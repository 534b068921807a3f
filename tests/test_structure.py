import hashlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _reference_classify,
    chain_good_for,
    chords_cross_pairwise,
    ear_good_for,
    nx_outerplanar,
    reference_find_good_ear_or_chain,
    reference_is_outerplanar,
    reference_outer_embedding,
)
from pcfcolor import structure
from pcfcolor.families import (
    enumerate_connected_outerplanar,
    enumerate_two_connected_outerplanar,
    random_cactus,
)
from pcfcolor.graphs import Graph, cycle_graph, path_graph
from pcfcolor.structure import (
    Ear,
    EarChain,
    KIND_CYCLE,
    KIND_EAR_CHAIN,
    KIND_GOOD_EAR,
    KIND_K2,
    KIND_LONG_EAR,
    OuterEmbedding,
    REASON_DISCONNECTED,
    _is_outer_cycle,
    block_decomposition,
    classify_end_block,
    find_good_ear_or_chain,
    is_outerplanar,
    outer_embedding,
    peel,
)


def bowtie():
    return Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


def flower(i1, i2, i3):
    """Triangle 0-1-2 where each side is the root edge of an ear with the
    given interior sizes, plus a pendant vertex on the last ear."""
    edges = [(0, 1), (1, 2), (0, 2)]
    nxt = 3
    for (a, b), k in (((0, 1), i1), ((1, 2), i2), ((2, 0), i3)):
        prev = a
        for _ in range(k):
            edges.append(tuple(sorted((prev, nxt))))
            prev = nxt
            nxt += 1
        edges.append(tuple(sorted((prev, b))))
    pendant_root = nxt - 1  # interior vertex of the third ear
    edges.append((pendant_root, nxt))
    return Graph(nxt + 1, edges)


def fan(n):
    """Vertex 0 joined to every vertex of the path 1..n-1."""
    return Graph(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


def zigzag_triangulation(n):
    """The n-gon 0..n-1 triangulated as a strip: chords join 0, n-1, 1,
    n-2, 2, ... in turn."""
    walk = [v for i in range((n + 1) // 2) for v in (i, n - 1 - i)][:n]
    rim = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    zig = {tuple(sorted(walk[k : k + 2])) for k in range(n - 1)}
    return Graph(n, rim | zig)


def sun(k):
    """The k-gon 0..k-1 with a triangle on every other side: vertex k + i // 2
    is joined to i and i + 1 for each even i < k - 1."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(v, k + i // 2) for i in range(0, k - 1, 2) for v in (i, i + 1)]
    return Graph(k + k // 2, edges)


# -- blocks -------------------------------------------------------------------


def test_blocks_of_a_path():
    d = block_decomposition(path_graph(4))
    assert d.blocks == ((0, 1), (1, 2), (2, 3))
    assert d.cut_vertices == frozenset({1, 2})
    assert d.end_blocks() == ((0, 1), (2, 3))


def test_blocks_of_bowtie():
    d = block_decomposition(bowtie())
    assert d.blocks == ((0, 1, 2), (2, 3, 4))
    assert d.cut_vertices == frozenset({2})
    assert d.end_blocks() == d.blocks


def test_blocks_of_two_connected_graph():
    d = block_decomposition(cycle_graph(5))
    assert d.blocks == ((0, 1, 2, 3, 4),)
    assert d.cut_vertices == frozenset()


def test_blocks_require_connectivity():
    with pytest.raises(ValueError):
        block_decomposition(Graph(4, [(0, 1), (2, 3)]))


def test_blocks_against_networkx():
    # from n = 3 on, vertex 0, the search root, is a cut vertex of some
    # graphs
    for g in (g for n in range(2, 8) for g in enumerate_connected_outerplanar(n)):
        d = block_decomposition(g)
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        theirs = sorted(
            tuple(sorted(b)) for b in nx.biconnected_components(h) if len(b) > 1
        )
        ours = sorted(b for b in d.blocks)
        assert ours == theirs
        assert d.cut_vertices == set(nx.articulation_points(h)), g.edges()


# -- embeddings ---------------------------------------------------------------


def test_embedding_of_chorded_cycle():
    g = Graph(6, list(cycle_graph(6).edges()) + [(0, 2), (2, 5)])
    emb = outer_embedding(g)
    assert emb is not None
    assert emb.order == (0, 1, 2, 3, 4, 5)
    assert emb.chords == ((0, 2), (2, 5))
    assert [emb.position()[v] for v in (0, 3)] == [0, 3]


def test_embedding_canonical_rotation():
    # relabeled cycle: embedding always starts at 0 toward the smaller side
    g = Graph(4, [(2, 3), (0, 3), (0, 1), (1, 2)])
    emb = outer_embedding(g)
    assert emb.order[0] == 0 and emb.order[1] < emb.order[-1]


def test_forbidden_minors_have_no_embedding():
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert outer_embedding(k4) is None
    assert outer_embedding(k23) is None
    assert not is_outerplanar(k4)
    assert not is_outerplanar(k23)


def test_outerplanarity_matches_apex_planarity_on_atlas():
    # exhaustive over all graphs with up to 7 vertices
    for ag in nx.graph_atlas_g()[1:]:
        g = Graph(ag.number_of_nodes(), ag.edges())
        assert is_outerplanar(g) == nx_outerplanar(g), g
    # random graphs of 8 to 14 vertices on both sides of the 2n - 3 edge
    # bound of outerplanar graphs
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(8, 14)
        pairs = [(u, v) for v in range(n) for u in range(v)]
        g = Graph(n, rng.sample(pairs, rng.randint(n - 2, min(len(pairs), 3 * n))))
        assert is_outerplanar(g) == nx_outerplanar(g), g.edges()
    assert is_outerplanar(Graph(1))
    assert is_outerplanar(Graph(2)) and is_outerplanar(path_graph(2))


def test_outerplanarity_of_a_large_fan():
    g = fan(4000)
    assert g.m == 2 * g.n - 3 and is_outerplanar(g)
    # a chord crossing (0, 2) puts the edge count over 2n - 3
    assert not is_outerplanar(Graph(g.n, g.edges() + ((1, 3),)))
    # the same kind of crossing at 2n - 3 edges reaches the block test
    crossed = Graph(g.n, [e for e in g.edges() if e != (0, 2)] + [(1000, 1002)])
    assert crossed.m == 2 * g.n - 3 and not is_outerplanar(crossed)
    assert is_outerplanar(zigzag_triangulation(4000))


@st.composite
def dissections(draw):
    """A relabeled 2-connected outerplanar graph: an enumerated one up to
    10 vertices, above that a polygon with drawn non-crossing chords."""
    n = draw(st.integers(3, 12))
    if n <= 10:
        edges = draw(st.sampled_from(enumerate_two_connected_outerplanar(n))).edges()
    else:
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        chords = []
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
            i, j = min(i, j), max(i, j)
            if j - i < 2 or (i, j) == (0, n - 1) or (i, j) in chords:
                continue
            if all(not (i < p < j < q or p < i < q < j) for p, q in chords):
                chords.append((i, j))
        edges += chords
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def dense_graphs(draw):
    """Random graphs up to the 2n - 3 edge bound, so that most reach the
    block test; some are outerplanar, most are not."""
    n = draw(st.integers(3, 12))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=n - 1, max_size=2 * n - 3))
    return Graph(n, edges)


@st.composite
def dissections_plus_one_edge(draw):
    g = draw(dissections())
    missing = [(u, v) for v in range(g.n) for u in range(v) if not g.has_edge(u, v)]
    if not missing:
        return g
    return Graph(g.n, g.edges() + (draw(st.sampled_from(missing)),))


@settings(max_examples=400, deadline=None)
@given(dissections() | dissections_plus_one_edge() | dense_graphs())
def test_embedding_and_outerplanarity_match_the_reference(g):
    assert outer_embedding(g) == reference_outer_embedding(g)
    assert is_outerplanar(g) == reference_is_outerplanar(g)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_stack_chord_check_matches_the_pairwise_one(data):
    # elimination never hands a crossing to the check (a graph that
    # reduces to a triangle has no K4 minor), so it is tested on its own:
    # a cycle through all vertices plus any chords, crossing or not
    n = data.draw(st.integers(4, 12))
    cycle = data.draw(st.permutations(range(n)))
    rim = {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(n)}
    pairs = [(u, v) for v in range(n) for u in range(v) if (u, v) not in rim]
    chords = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    gap = data.draw(st.none() | st.integers(0, n - 1))
    edges = set(chords) | rim
    if gap is not None:
        edges.discard(tuple(sorted((cycle[gap - 1], cycle[gap]))))
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    expected = gap is None and not chords_cross_pairwise(cycle, edges)
    assert _is_outer_cycle(adj, list(cycle)) == expected


def test_embeddings_are_valid_over_the_two_connected_corpus():
    for n in range(3, 9):
        for g in enumerate_two_connected_outerplanar(n):
            emb = outer_embedding(g)
            assert emb is not None
            assert sorted(emb.order) == list(range(n))
            cyc = emb.order
            for i in range(n):
                assert g.has_edge(cyc[i], cyc[(i + 1) % n])
            hull = {
                tuple(sorted((cyc[i], cyc[(i + 1) % n]))) for i in range(n)
            }
            assert set(emb.chords) == set(g.edges()) - hull
            pos = {v: i for i, v in enumerate(cyc)}
            for a, b in emb.chords:
                for c, d in emb.chords:
                    i1, i2 = sorted((pos[a], pos[b]))
                    j1, j2 = sorted((pos[c], pos[d]))
                    crossing = i1 < j1 < i2 < j2 or j1 < i1 < j2 < i2
                    assert not crossing


# -- ears and chains ----------------------------------------------------------

# sha256 of repr(find_good_ear_or_chain(g, outer_embedding(g), x)) over every
# 2-connected non-cycle outerplanar graph with 4 to 10 vertices and every
# anchor x; any change to an ear or chain chosen changes it
EAR_DIGEST = "d5f6638531ca72a6c68e1e54ee44653c6312a8c62ce3f2b8066e72053598a910"


def test_ear_search_matches_the_recorded_digest():
    h = hashlib.sha256()
    searches = 0
    for n in range(4, 11):
        for g in enumerate_two_connected_outerplanar(n):
            if g.m == g.n:
                continue
            emb = outer_embedding(g)
            for x in range(n):
                h.update((repr(find_good_ear_or_chain(g, emb, x)) + "\n").encode())
                searches += 1
    assert searches == 14296
    assert h.hexdigest() == EAR_DIGEST


def random_polygon(n, rng, stop):
    """The n-gon 0..n-1 with random non-crossing chords: split a polygon
    at a random chord and recurse into both sides, each side stopping
    with probability `stop` (never the whole polygon)."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    todo = [list(range(n))]
    while todo:
        poly = todo.pop()
        if len(poly) < 4 or (len(poly) < n and rng.random() < stop):
            continue
        i = rng.randrange(len(poly))
        i, j = sorted((i, (i + rng.randrange(2, len(poly) - 1)) % len(poly)))
        edges.append((poly[i], poly[j]))
        todo += [poly[i : j + 1], poly[j:] + poly[: i + 1]]
    return Graph(n, edges)


def with_ears(core, rng, p):
    """`core`, a polygon 0..m-1 with chords, with each side i,i+1 turned
    with probability p into the root of an ear of 1 to 4 new vertices.
    Sides whose two ends both get ears meet at degree-4 junctions, so the
    root edges can form the cycles and paths of ear chains."""
    m = core.n
    n = m
    edges = list(core.edges())
    for i in range(m):
        if rng.random() < p:
            k = rng.randint(1, 4)
            path = [i, *range(n, n + k), (i + 1) % m]
            edges += zip(path, path[1:])
            n += k
    return Graph(n, edges)


@st.composite
def large_blocks(draw):
    """A 2-connected non-cycle outerplanar graph beyond the digest's 10
    vertices, up to about 300: a fan, a strip triangulation, a polygon with
    random non-crossing chords, or such a polygon with ears on its sides;
    its ids shuffled in some examples."""
    kind = draw(st.sampled_from(("fan", "strip", "polygon", "eared")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stop = draw(st.sampled_from((0.05, 0.3, 0.6, 0.9)))
    if kind == "eared":
        m = draw(st.integers(3, 60))
        # a bare polygon core leaves every chord a root edge
        core = cycle_graph(m) if draw(st.booleans()) else random_polygon(m, rng, stop)
        g = with_ears(core, rng, draw(st.sampled_from((0.5, 0.9, 1.0))))
        while g.n <= 10 or g.m == g.n:
            g = with_ears(core, rng, 1.0)
    elif kind == "fan":
        g = fan(draw(st.integers(11, 300)))
    elif kind == "strip":
        g = zigzag_triangulation(draw(st.integers(11, 300)))
    else:
        g = random_polygon(draw(st.integers(11, 300)), rng, stop)
    n = g.n
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    return g


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ear_search_matches_the_reference_on_large_blocks(data):
    g = data.draw(large_blocks())
    emb = outer_embedding(g)
    for x in data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6)):
        assert find_good_ear_or_chain(g, emb, x) == reference_find_good_ear_or_chain(g, emb, x)


def test_ear_search_commutes_with_an_order_preserving_renaming():
    # the solver searches blocks in host ids, as a dict of neighbor sets;
    # renaming v to 3v + 5 keeps the order of the ids, so it must rename
    # the ear or chain found and change nothing else
    def ren(v):
        return 3 * v + 5

    def ren_ear(ear):
        return Ear((ren(ear.root[0]), ren(ear.root[1])), tuple(map(ren, ear.interior)))

    for n in range(4, 9):
        for g in enumerate_two_connected_outerplanar(n):
            if g.m == g.n:
                continue
            emb = outer_embedding(g)
            b = {ren(v): {ren(w) for w in g.neighbors(v)} for v in range(n)}
            renamed = OuterEmbedding(
                tuple(map(ren, emb.order)), tuple((ren(u), ren(v)) for u, v in emb.chords)
            )
            for x in range(n):
                found = find_good_ear_or_chain(g, emb, x)
                if isinstance(found, Ear):
                    expected = ren_ear(found)
                else:
                    expected = EarChain(tuple(map(ren, found.spine)), tuple(map(ren_ear, found.ears)))
                assert find_good_ear_or_chain(b, renamed, ren(x)) == expected, (g.edges(), x)


def test_ear_search_ignores_the_start_and_direction_of_the_cycle():
    # the search reads cycle positions and the chord set only, so where
    # `_embedding` starts the cycle, which way round it runs and the order
    # of the chords decide none of its tie-breaks
    rng = random.Random(20261020)
    searches = 0
    for n in range(4, 10):
        for g in enumerate_two_connected_outerplanar(n):
            if g.m == g.n:
                continue
            emb = outer_embedding(g)
            variants = []
            for order in (emb.order, emb.order[::-1]):
                for i in range(n):
                    chords = list(emb.chords)
                    rng.shuffle(chords)
                    variants.append(OuterEmbedding(order[i:] + order[:i], tuple(chords)))
            for x in range(n):
                found = find_good_ear_or_chain(g, emb, x)
                for other in variants:
                    assert find_good_ear_or_chain(g, other, x) == found, (g.edges(), other, x)
                    searches += 1
    assert searches == 54324


def test_good_ear_in_chorded_cycle():
    g = Graph(6, list(cycle_graph(6).edges()) + [(0, 2)])
    emb = outer_embedding(g)
    for x in range(6):
        found = find_good_ear_or_chain(g, emb, x)
        if isinstance(found, Ear):
            assert ear_good_for(g, found.root, found.interior, x)
        else:
            assert chain_good_for(g, found.spine, found.ears, x)


def test_chain_when_root_edges_form_a_cycle():
    g = flower(1, 1, 1)
    b, ids = g.subgraph(block_decomposition(g).blocks[0])
    emb = outer_embedding(b)
    # x at the pendant-bearing interior vertex of the third ear forces the
    # chain made of the first two ears
    x = ids.index(5)
    found = find_good_ear_or_chain(b, emb, x)
    assert isinstance(found, EarChain)
    assert chain_good_for(b, found.spine, found.ears, x)


def test_finder_rejects_cycles():
    g = cycle_graph(6)
    with pytest.raises(Exception):
        find_good_ear_or_chain(g, outer_embedding(g), 0)


def test_goodness_over_corpus():
    # every 2-connected non-cycle outerplanar graph up to 8 vertices,
    # every anchor: the found structure passes the independent predicate
    for n in range(4, 9):
        for g in enumerate_two_connected_outerplanar(n):
            if g.m == g.n:
                continue
            emb = outer_embedding(g)
            for x in range(n):
                found = find_good_ear_or_chain(g, emb, x)
                if isinstance(found, Ear):
                    assert ear_good_for(g, found.root, found.interior, x)
                    # orientation contract used by the solver
                    assert g.degree(found.root[1]) == 3
                    assert x not in found.interior and x != found.root[1]
                else:
                    # the raw finder leaves chain orientation to the caller,
                    # so x may sit at either spine end
                    assert chain_good_for(g, found.spine, found.ears, x)


# -- end block classification --------------------------------------------------


def test_classify_pendant_edge():
    case = classify_end_block(path_graph(4))
    assert case.kind == KIND_K2
    assert case.pendant == 0 and case.anchor == 1


def test_classify_cycle_block():
    g = Graph(7, list(cycle_graph(6).edges()) + [(3, 6)])
    case = classify_end_block(g)
    assert case.kind == KIND_CYCLE
    assert case.anchor == 3
    assert case.cycle_order[0] == 3
    assert sorted(case.cycle_order) == [0, 1, 2, 3, 4, 5]


def test_classify_whole_cycle():
    case = classify_end_block(cycle_graph(5))
    assert case.kind == KIND_CYCLE
    assert case.anchor == 0


def test_classify_good_ear():
    g = Graph(6, list(cycle_graph(6).edges()) + [(0, 2)])
    case = classify_end_block(g)
    assert case.kind == KIND_GOOD_EAR
    assert g.degree(case.ear.root[1]) == 3


def test_classify_long_ear_via_chain():
    g = flower(1, 4, 1)
    case = classify_end_block(g)
    assert case.kind == KIND_LONG_EAR
    assert case.ear.size() >= 6
    assert case.anchor not in case.ear.vertices()


def test_classify_ear_chain():
    g = flower(1, 1, 1)
    case = classify_end_block(g)
    assert case.kind == KIND_EAR_CHAIN
    assert len(case.chain.spine) == 3


def test_classify_is_cached():
    g = flower(2, 1, 1)
    assert classify_end_block(g) is classify_end_block(g)


def test_classify_needs_four_vertices():
    with pytest.raises(ValueError):
        classify_end_block(cycle_graph(3))


def test_classify_rejects_a_graph_that_is_not_outerplanar():
    # K4 with a pendant edge at vertex 0: the end block {0, 4} is a plain
    # edge, but the graph fails the outerplanarity screen first
    k4_pendant = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    with pytest.raises(ValueError):
        classify_end_block(k4_pendant)


def test_classify_rejects_a_disconnected_graph():
    with pytest.raises(ValueError):
        classify_end_block(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


def test_peel_of_the_smallest_graphs():
    assert peel(Graph(0, [])) == (None, (), ())
    assert peel(Graph(1, [])) == (None, (), (0,))
    assert peel(Graph(2, [])) == (REASON_DISCONNECTED, (), ())


def test_a_cycle_block_is_walked_not_eliminated(monkeypatch):
    # every block of a cactus is a bridge or a cycle: the screen passes
    # them at once and the peel walks each cycle, so neither runs the
    # elimination of `_outer_cycle`
    calls = []
    real = structure._outer_cycle
    monkeypatch.setattr(structure, "_outer_cycle", lambda adj: calls.append(len(adj)) or real(adj))
    for seed in range(3):
        g = random_cactus(300, seed)
        reason, records, _ = peel(g)
        assert reason is None and any(kind == KIND_CYCLE for kind, _, _ in records)
    assert peel(cycle_graph(7))[2] == (0, 1, 2, 3, 4, 5, 6)
    assert calls == []


def test_classify_matches_the_reference_on_the_corpus():
    # the first peel step is the case the decomposition's first end block
    # gives, classified on its own
    for g in (g for n in range(4, 9) for g in enumerate_connected_outerplanar(n)):
        assert classify_end_block(g) == _reference_classify(g), g.edges()
