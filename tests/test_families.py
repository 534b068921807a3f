import random

import networkx as nx
import pytest

from conftest import nx_outerplanar
from pcfcolor.families import (
    c5_uniform,
    canonical_form,
    degree_plus_one_gadget,
    enumerate_connected_outerplanar,
    enumerate_two_connected_outerplanar,
    random_outerplanar,
    theta,
    theta_hard_lists,
)
from pcfcolor.graphs import Graph, cycle_graph, path_graph
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
    assert len(enumerate_connected_outerplanar(8)) == 777


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


def test_random_outerplanar_is_reproducible_and_valid():
    for seed in range(30):
        g1 = random_outerplanar(9, seed)
        g2 = random_outerplanar(9, seed)
        assert g1 == g2
        assert g1.n == 9 and g1.is_connected() and is_outerplanar(g1)
    shapes = {random_outerplanar(9, s).m for s in range(30)}
    assert len(shapes) > 1, "sampler collapsed to a single shape"


def test_cycle_family():
    assert cycle_graph(5).n == 5
    with pytest.raises(ValueError):
        cycle_graph(2)
