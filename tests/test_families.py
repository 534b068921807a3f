import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    nx_outerplanar,
    reference_canonical_form,
    reference_enumerate_connected_outerplanar,
    reference_enumerate_two_connected_outerplanar,
)
from pcfcolor.families import (
    _automorphisms,
    _refined_colors,
    c5_uniform,
    canonical_form,
    degree_plus_one_gadget,
    enumerate_connected_outerplanar,
    enumerate_two_connected_outerplanar,
    random_cactus,
    random_outerplanar,
    theta,
    theta_hard_lists,
)
from pcfcolor.graphs import Graph, cycle_graph, path_graph, write_graph6
from pcfcolor.structure import block_decomposition, is_outerplanar


def test_c5_uniform_instance():
    inst = c5_uniform()
    assert inst.graph.n == 5 and inst.graph.m == 5
    assert all(lst == frozenset({1, 2, 3, 4}) for lst in inst.lists)
    assert inst.expected == "unsat"


def test_theta_shape():
    g = theta(1, 4, 4)
    assert g.n == 1 + 1 + 3 + 3
    assert g.degree(0) == 3 and g.degree(1) == 3
    assert sorted(g.degree(v) for v in range(2, 8)) == [2] * 6
    assert is_outerplanar(g) and g.is_connected()
    with pytest.raises(ValueError):
        theta(0, 4, 4)
    with pytest.raises(ValueError):
        theta(1, 1, 4)  # two paths of length 1 would be parallel edges


def test_theta_hard_lists_instance():
    inst = theta_hard_lists(4, 7)
    g = inst.graph
    assert g.n == 2 + 3 + 6
    # terminals carry 4 lists, internals 3: degree+1 everywhere
    for v in range(g.n):
        assert len(inst.lists[v]) == g.degree(v) + 1
    assert inst.expected == "unsat"
    with pytest.raises(ValueError):
        theta_hard_lists(5, 7)  # must be 1 mod 3
    with pytest.raises(ValueError):
        theta_hard_lists(1, 4)


def test_gadget_on_k2_host():
    inst = degree_plus_one_gadget(Graph(2, [(0, 1)]), 0)
    g = inst.graph
    assert g.n == 8
    assert is_outerplanar(g) and g.is_connected()
    # every vertex has a degree+1 list
    for v in range(g.n):
        assert len(inst.lists[v]) == g.degree(v) + 1
    assert inst.expected == "unsat"


def test_gadget_on_p3_middle():
    inst = degree_plus_one_gadget(path_graph(3), 1)
    g = inst.graph
    assert g.n == 12
    for v in range(g.n):
        assert len(inst.lists[v]) == g.degree(v) + 1


def test_gadget_rejects_bad_hosts():
    with pytest.raises(ValueError):
        degree_plus_one_gadget(Graph(3, [(0, 1)]), 0)  # disconnected
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError):
        degree_plus_one_gadget(k4, 0)  # not outerplanar


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(17)
    for _ in range(40):
        g = random_outerplanar(rng.randrange(2, 9), rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_non_isomorphic():
    assert canonical_form(path_graph(4)) != canonical_form(
        Graph(4, [(0, 1), (0, 2), (0, 3)])
    )


def atlas_connected(n):
    for ag in nx.graph_atlas_g()[1:]:
        if ag.number_of_nodes() == n and nx.is_connected(ag):
            yield Graph(n, ag.edges())


def test_enumeration_matches_atlas_up_to_seven():
    for n in range(2, 8):
        expect = {
            canonical_form(g) for g in atlas_connected(n) if nx_outerplanar(g)
        }
        got = [canonical_form(g) for g in enumerate_connected_outerplanar(n)]
        assert len(got) == len(set(got)), "enumerator emitted duplicates"
        assert set(got) == expect


def test_enumeration_count_frozen_at_eight():
    # derived once from the enumerator and cross-checked against the
    # atlas-backed counts below 8; guards against regressions
    counts = [len(enumerate_connected_outerplanar(n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 5, 13, 46, 172, 777]


def test_two_connected_enumeration_agrees_with_filter():
    for n in range(3, 9):
        filtered = {
            canonical_form(g)
            for g in enumerate_connected_outerplanar(n)
            if not block_decomposition(g).cut_vertices and g.m >= g.n
        }
        got = [canonical_form(g) for g in enumerate_two_connected_outerplanar(n)]
        assert len(got) == len(set(got))
        assert set(got) == filtered


def test_canonical_form_matches_the_reference():
    rng = random.Random(5)
    graphs = [g for n in range(1, 9) for g in enumerate_connected_outerplanar(n)]
    graphs += [g for n in range(3, 10) for g in enumerate_two_connected_outerplanar(n)]
    for _ in range(200):
        n = rng.randrange(1, 11)
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1))))
    graphs += [random_outerplanar(rng.randrange(8, 11), rng) for _ in range(100)]
    for g in graphs:
        assert canonical_form(g) == reference_canonical_form(g), g.edges()
    # the enumerator canonicalizes candidates that are not outerplanar too:
    # on n = 8..10, each side of the outerplanarity test meets both the
    # discrete shortcut and the slot search
    kinds = {
        (is_outerplanar(g), len(set(_refined_colors(g))) == g.n) for g in graphs if g.n >= 8
    }
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_connected_enumeration_matches_the_reference():
    for n in range(1, 9):
        got = [g.edges() for g in enumerate_connected_outerplanar(n)]
        assert got == [g.edges() for g in reference_enumerate_connected_outerplanar(n)], n


def test_two_connected_enumeration_matches_the_reference():
    for n in range(3, 11):
        got = [g.edges() for g in enumerate_two_connected_outerplanar(n)]
        assert got == [g.edges() for g in reference_enumerate_two_connected_outerplanar(n)], n


# sha256 of the graph6 strings, one per line, of each enumeration in order
# (connected n = 1..8, 2-connected n = 3..10); any change to the graphs
# kept or to their order changes it
CONNECTED_DIGEST = "d82bb25562d3ecca0e48b349b15fef5135295559f15b521bde4729e2bbcc84ad"
TWO_CONNECTED_DIGEST = "7b4ddb33bab21b5ed7c53998bf1b8b6708fadc8a85552dd57145ff2cf49bc185"


def test_enumerations_match_the_recorded_digests():
    for enumerate_graphs, sizes, digest in (
        (enumerate_connected_outerplanar, range(1, 9), CONNECTED_DIGEST),
        (enumerate_two_connected_outerplanar, range(3, 11), TWO_CONNECTED_DIGEST),
    ):
        h = hashlib.sha256()
        for n in sizes:
            for g in enumerate_graphs(n):
                h.update(write_graph6(g).encode() + b"\n")
        assert h.hexdigest() == digest


# the same digest of the n = 9 connected enumeration alone, which
# `pcfcolor gen corpus 9` and `pcfcolor check corpus 9` run
NINE_DIGEST = "90f9d9a539c97231a6f92aa0ca734a5fb976af05ff385f4f5e57d687e86ef992"


def test_connected_enumeration_at_nine_matches_the_recorded_digest():
    graphs = enumerate_connected_outerplanar(9)
    assert len(graphs) == 3783
    lines = b"".join(write_graph6(g).encode() + b"\n" for g in graphs)
    assert hashlib.sha256(lines).hexdigest() == NINE_DIGEST


@st.composite
def outerplanar_graphs(draw):
    kind = draw(st.sampled_from(("random", "cactus", "dissection")))
    if kind == "dissection":
        return draw(st.sampled_from(enumerate_two_connected_outerplanar(draw(st.integers(3, 9)))))
    make = random_outerplanar if kind == "random" else random_cactus
    return make(draw(st.integers(1, 60)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(outerplanar_graphs())
def test_deleting_an_edge_keeps_a_graph_outerplanar(g):
    # the premise of the enumerator's subset skip: outerplanarity is
    # closed under subgraphs
    assert is_outerplanar(g)
    edges = g.edges()
    for i in range(len(edges)):
        assert is_outerplanar(Graph(g.n, edges[:i] + edges[i + 1:])), edges[i]


def test_automorphisms_match_brute_force():
    for n in range(1, 7):
        for g in enumerate_connected_outerplanar(n):
            edges = set(g.edges())
            expect = {
                p
                for p in itertools.permutations(range(n))
                if {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
            }
            got = _automorphisms(g)
            assert got[0] == tuple(range(n))
            assert len(got) == len(set(got)) and set(got) == expect, g.edges()


def test_automorphic_masks_give_one_canonical_form():
    # the premise of the enumerator's orbit skip: an automorphism of the
    # parent maps each candidate onto an isomorphic one
    for k in range(1, 7):
        for g in enumerate_connected_outerplanar(k):
            autos = _automorphisms(g)
            for mask in range(1, 1 << k):
                ends = [v for v in range(k) if mask >> v & 1]
                form = canonical_form(Graph(k + 1, g.edges() + tuple((v, k) for v in ends)))
                for p in autos:
                    h = Graph(k + 1, g.edges() + tuple((p[v], k) for v in ends))
                    assert canonical_form(h) == form


def test_random_outerplanar_is_reproducible_and_valid():
    for seed in range(30):
        g1 = random_outerplanar(9, seed)
        g2 = random_outerplanar(9, seed)
        assert g1 == g2
        assert g1.n == 9 and g1.is_connected() and is_outerplanar(g1)
    shapes = {random_outerplanar(9, s).m for s in range(30)}
    assert len(shapes) > 1, "sampler collapsed to a single shape"


def polygon_size(n, seed):
    """The k that `random_outerplanar(n, seed)` draws first: 1 for a tree,
    else the size of its polygon."""
    return random.Random(seed).choice([1] + list(range(3, n + 1)))


def test_random_outerplanar_builds_what_the_checked_constructor_builds():
    for n in range(1, 61):
        seeds = list(range(12))
        if n >= 3:  # also the first seeds that draw a tree and a whole polygon
            seeds += [next(s for s in itertools.count() if polygon_size(n, s) == k) for k in (1, n)]
        for seed in seeds:
            g = random_outerplanar(n, seed)
            assert g == Graph(n, g.edges()) and g.m == len(g.edges())
            assert all(list(nb) == sorted(nb) for nb in g.adjacency)
            assert g.n == n and g.is_connected() and is_outerplanar(g)


def test_cycle_family():
    assert cycle_graph(5).n == 5
    with pytest.raises(ValueError):
        cycle_graph(2)
