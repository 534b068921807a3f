import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import in_lists, pcf_ok, reference_structure
from pcfcolor import kernel, solver
from pcfcolor.families import (
    enumerate_connected_outerplanar,
    enumerate_two_connected_outerplanar,
    random_cactus,
    random_outerplanar,
)
from pcfcolor.graphs import Graph, cycle_graph, path_graph
from pcfcolor.kernel import ListAssignment, degree_plus_k_lists, verify
from pcfcolor.oracle import SAT, solve_exact
from pcfcolor.solver import (
    Obstruction,
    REASON_C5_UNIFORM,
    REASON_DISCONNECTED,
    REASON_LIST_TOO_SMALL,
    REASON_NOT_OUTERPLANAR,
    SolverInternalError,
    color_constrained_path,
    color_cycle,
    extend_ear,
    replay_trace,
    solve,
    trace_from_json_lines,
    trace_to_json_lines,
    trim_lists,
)
from test_structure import fan, flower, zigzag_triangulation


def cyc_ok(colors, lists=None):
    g = cycle_graph(len(colors))
    return pcf_ok(g, colors) and (lists is None or in_lists(colors, lists))


# -- cycles -------------------------------------------------------------------


def test_uniform_four_lists_on_cycles():
    for n in range(3, 13):
        lists = [frozenset({1, 2, 3, 4})] * n
        got = color_cycle(lists)
        if n == 5:
            assert isinstance(got, Obstruction)
            assert got.reason == REASON_C5_UNIFORM
        else:
            assert cyc_ok(got, lists), (n, got)


def test_uniform_pattern_shapes():
    # length 0 mod 3 gives the plain repeat of the three smallest colors
    assert color_cycle([frozenset({1, 2, 3, 4})] * 6) == [1, 2, 3, 1, 2, 3]
    assert color_cycle([frozenset({2, 4, 6, 8})] * 9) == [2, 4, 6] * 3
    # other lengths finish with a rainbow over the four smallest
    got = color_cycle([frozenset({1, 2, 3, 4})] * 7)
    assert got[-4:] == [1, 2, 3, 4] or got[-1] == 4


def test_uniform_c5_with_five_colors_is_fine():
    got = color_cycle([frozenset({1, 2, 3, 4, 5})] * 5)
    assert cyc_ok(got)
    assert len(set(got)) == 5


def test_non_uniform_c5():
    lists = [
        frozenset({1, 2, 3, 4}),
        frozenset({1, 2, 3, 5}),
        frozenset({1, 2, 3, 4}),
        frozenset({1, 2, 3, 4}),
        frozenset({1, 2, 3, 4}),
    ]
    got = color_cycle(lists)
    assert cyc_ok(got, lists)


def test_cycle_rejects_short_lists():
    with pytest.raises(ValueError):
        color_cycle([frozenset({1, 2, 3})] * 6)
    with pytest.raises(ValueError):
        color_cycle([frozenset({1, 2, 3, 4})] * 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_cycle_lists(data):
    n = data.draw(st.integers(3, 10))
    lists = [
        frozenset(data.draw(st.sets(st.integers(1, 8), min_size=4, max_size=6)))
        for _ in range(n)
    ]
    got = color_cycle(lists)
    if isinstance(got, Obstruction):
        assert n == 5 and all(l == lists[0] for l in lists) and len(lists[0]) == 4
    else:
        assert cyc_ok(got, lists)


# -- constrained paths ---------------------------------------------------------


def test_path_lemma_base_case():
    lists = [
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
        frozenset({1, 2, 3}),
        frozenset({1, 2}),
    ]
    got = color_constrained_path(lists)
    assert pcf_ok(path_graph(4), got) and in_lists(got, lists)


def test_path_lemma_longer():
    lists = [
        frozenset({5, 6}),
        frozenset({4, 5, 6}),
        frozenset({1, 2, 3, 4}),
        frozenset({1, 2, 3, 4}),
        frozenset({2, 3, 6}),
        frozenset({1, 6}),
    ]
    got = color_constrained_path(lists)
    assert pcf_ok(path_graph(6), got) and in_lists(got, lists)


def test_path_lemma_rejects_undersized_lists():
    with pytest.raises(ValueError):
        color_constrained_path([frozenset({1})] * 3)


def test_path_lemma_on_a_long_path():
    rng = random.Random(1101)
    sizes = [2, 3] + [4] * 1097 + [3, 2]
    lists = [frozenset(rng.sample(range(1, 9), k)) for k in sizes]
    got = color_constrained_path(lists)
    assert pcf_ok(path_graph(1101), got) and in_lists(got, lists)


def test_path_lemma_seeded_sweep():
    rng = random.Random(99)
    for s in range(3, 8):
        sizes = [2, 3] + [4] * (s - 3) + [3, 2]
        for _ in range(200):
            lists = [frozenset(rng.sample(range(1, 9), k)) for k in sizes]
            got = color_constrained_path(lists)
            assert pcf_ok(path_graph(s + 1), got) and in_lists(got, lists)


# -- ear extension --------------------------------------------------------------


def test_extend_ear_triangle_example():
    # w0 colored 2 gives u1 the unique neighborhood color 2; the interior
    # then avoids {1, 2} and the far anchor's 4, landing on 3
    host = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    lists = ListAssignment([[2], [1], [1, 2, 3, 4], [4]])
    got = extend_ear(host, [2, 1, None, 4], (1, 2, 3), lists)
    assert got == [2, 1, 3, 4]


def test_extend_ear_unanimous_neighborhood_branch():
    # every colored neighbor of u1, including the far anchor across the
    # root edge, carries color 2: the unanimity branch forbids {1, 2} for
    # u2, making u2's color unique at u1 afterwards
    host = Graph(6, [(0, 1), (4, 1), (1, 2), (2, 3), (3, 5), (1, 5)])
    lists = ListAssignment([[2], [1], [1, 2, 3, 4], [1, 2, 3, 4], [2], [2]])
    colors = extend_ear(host, [2, 1, None, None, 2, 2], (1, 2, 3, 5), lists)
    assert colors[2] not in {1, 2}
    assert verify(host, colors, lists).ok


def test_extend_ear_keeps_host_coloring():
    host = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    lists = ListAssignment([[3], [1], [1, 2, 3, 4], [1, 2, 3, 4], [2]])
    before = [3, 1, None, None, 2]
    got = extend_ear(host, before, (1, 2, 3, 4), lists)
    assert got[:2] == [3, 1] and got[4] == 2
    assert before[2] is None  # input untouched
    assert verify(host, got, lists).ok


def test_extend_ear_rejects_a_colored_interior():
    host = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    lists = ListAssignment([[3], [1], [1, 2, 3, 4], [1, 2, 3, 4], [2]])
    with pytest.raises(SolverInternalError, match="already colored"):
        extend_ear(host, [3, 1, None, 4, 2], (1, 2, 3, 4), lists)


# -- the full solver ------------------------------------------------------------


def plus2_lists(g, seed, spread=4):
    rng = random.Random(seed)
    return degree_plus_k_lists(g, 2, range(1, g.max_degree() + 2 + spread), rng)


def solved_ok(g, lists):
    res = solve(g, lists)
    assert res.ok, res.obstruction
    assert verify(g, res.coloring, lists).ok
    return res


def test_tiny_graphs():
    for g in (Graph(1), path_graph(2), path_graph(3), cycle_graph(3)):
        res = solved_ok(g, plus2_lists(g, 7))
        assert res.trace[0].case == "Trivial"


def test_trees_use_pendant_case():
    res = solved_ok(path_graph(6), plus2_lists(path_graph(6), 3))
    assert {s.case for s in res.trace} >= {"K2", "Trivial"}
    star = Graph(5, [(0, i) for i in range(1, 5)])
    solved_ok(star, plus2_lists(star, 3))


def test_whole_cycle_case():
    res = solved_ok(cycle_graph(7), plus2_lists(cycle_graph(7), 1))
    assert res.trace[-1].case == "CycleProp"


def test_attached_triangle_and_square_cases():
    bowtie = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    res = solved_ok(bowtie, plus2_lists(bowtie, 5))
    assert any(s.case == "CycleBlock" for s in res.trace)
    # pendant on vertex 1 so the cycle block sorts first and is peeled
    # as a block rather than the pendant going first
    square = Graph(5, list(cycle_graph(4).edges()) + [(1, 4)])
    res = solved_ok(square, plus2_lists(square, 5))
    assert any(s.case == "CycleBlock" for s in res.trace)


def test_attached_big_cycle_uses_path_lemma():
    g = Graph(7, list(cycle_graph(6).edges()) + [(1, 6)])
    res = solved_ok(g, plus2_lists(g, 11))
    assert any(s.case == "PathLemma" for s in res.trace)


def test_good_ear_case():
    g = Graph(6, list(cycle_graph(6).edges()) + [(0, 2)])
    res = solved_ok(g, plus2_lists(g, 2))
    assert any(s.case.startswith(("GoodEar", "EarExtension")) for s in res.trace)


def test_long_ear_case():
    g = flower(1, 4, 1)
    seen = set()
    for seed in range(40):
        res = solved_ok(g, plus2_lists(g, seed))
        seen |= {s.case for s in res.trace if s.case.startswith("LongEar")}
    assert seen, "no solve ever routed through the long ear handler"


def test_long_ear_subcases_over_sizes():
    # closing ears of 6, 7 and 8 vertices, many list draws: exercises the
    # pivot subcases including the shortest ear length
    seen = set()
    for interior in (4, 5, 6):
        g = flower(1, interior, 1)
        for seed in range(60):
            res = solved_ok(g, plus2_lists(g, seed, spread=5))
            seen |= {s.case for s in res.trace if s.case.startswith("LongEar")}
    assert {"LongEar(sub1)", "LongEar(sub2)"} <= seen


def test_long_ear_identical_interior_lists_hit_the_equal_list_subcase():
    # pinning the long ear's interior lists to one set forces the handler
    # into the branch for equal next-to-anchor lists whenever the simple
    # forward pass is unavailable
    g = flower(1, 4, 1)
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        lists = ListAssignment(
            [
                [1, 2, 3, 4]
                if v in (4, 5, 6, 7)
                else rng.sample(range(1, g.degree(v) + 7), g.degree(v) + 2)
                for v in range(g.n)
            ]
        )
        res = solved_ok(g, lists)
        seen |= {s.case for s in res.trace if s.case.startswith("LongEar")}
    assert "LongEar(sub3)" in seen


def test_ear_chain_three_spine_cases():
    for interior, tag in ((1, "EarChain(s3H3)"), (2, "EarChain(s3H4)"), (3, "EarChain(s3H5)")):
        g = flower(1, interior, 1)
        hit = False
        for seed in range(40):
            res = solved_ok(g, plus2_lists(g, seed))
            hit = hit or any(s.case == tag for s in res.trace)
        assert hit, f"never hit {tag}"


def test_ear_chain_long_spine():
    # four ears rooted on a 4-cycle, anchor inside the last one
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    nxt = 4
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        edges += [(min(a, nxt), max(a, nxt)), (min(nxt, b), max(nxt, b))]
        nxt += 1
    edges.append((7, 8))  # pendant marks the ear to protect
    g = Graph(9, edges)
    hit = False
    for seed in range(40):
        res = solved_ok(g, plus2_lists(g, seed))
        hit = hit or any(s.case == "EarChain(s>=4)" for s in res.trace)
    assert hit


# -- obstructions ---------------------------------------------------------------


def test_obstruction_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    res = solve(g, ListAssignment([[1, 2, 3]] * 4))
    assert not res.ok and res.obstruction.reason == REASON_DISCONNECTED


def test_obstruction_not_outerplanar():
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    res = solve(k4, ListAssignment([[1, 2, 3, 4, 5]] * 4))
    assert res.obstruction.reason == REASON_NOT_OUTERPLANAR
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    res = solve(k23, ListAssignment([[1, 2, 3, 4, 5]] * 5))
    assert res.obstruction.reason == REASON_NOT_OUTERPLANAR


def test_obstruction_short_lists():
    g = path_graph(3)
    res = solve(g, ListAssignment([[1, 2, 3], [1, 2, 3], [1, 2]]))
    assert res.obstruction.reason == REASON_LIST_TOO_SMALL


def test_obstruction_uniform_c5():
    g = cycle_graph(5)
    res = solve(g, ListAssignment([[7, 8, 9, 10]] * 5))
    assert res.obstruction.reason == REASON_C5_UNIFORM
    # a single deviating list dissolves the obstruction
    res = solve(g, ListAssignment([[7, 8, 9, 10]] * 4 + [[7, 8, 9, 11]]))
    assert res.ok


def test_oversized_uniform_c5_is_solvable():
    # 5 identical colors is more than degree+2; the solver must not trim
    # its way into the one hard instance
    g = cycle_graph(5)
    la = ListAssignment([[1, 2, 3, 4, 5]] * 5)
    res = solved_ok(g, la)
    assert len(set(res.coloring)) == 5
    # explicit trimming does produce the hard instance, by design
    trimmed = trim_lists(g, la)
    assert solve(g, trimmed).obstruction.reason == REASON_C5_UNIFORM


def test_trim_lists_caps_at_degree_plus_two():
    g = path_graph(3)
    la = ListAssignment([range(1, 10)] * 3)
    trimmed = trim_lists(g, la)
    assert trimmed.sizes() == (3, 4, 3)
    solved_ok(g, trimmed)


# -- cross-checks, traces, determinism -------------------------------------------


def test_agrees_with_oracle_over_small_corpus():
    for n in range(2, 7):
        for gi, g in enumerate(enumerate_connected_outerplanar(n)):
            for t in range(3):
                lists = plus2_lists(g, 1000 * n + 31 * gi + t)
                res = solved_ok(g, lists)
                assert solve_exact(g, lists).status == SAT


def test_trace_replays_to_the_same_coloring():
    for seed in range(10):
        g = random_outerplanar(11, seed)
        lists = plus2_lists(g, seed)
        res = solved_ok(g, lists)
        assert replay_trace(g.n, res.trace) == res.coloring
        round_tripped = trace_from_json_lines(trace_to_json_lines(res.trace))
        assert replay_trace(g.n, round_tripped) == res.coloring


# sha256 of the colorings and traces over the n <= 6 corpus, one seeded
# degree+2 draw per graph; any change to the colors chosen or to the case
# steps recorded changes it
CORPUS_DIGEST = "5d7888088c9ab082f98eb6f1115847bf733d782b5bf2379235c713a1adbd83b6"


def test_colorings_and_traces_match_the_recorded_digest():
    h = hashlib.sha256()
    for n in range(2, 7):
        for gi, g in enumerate(enumerate_connected_outerplanar(n)):
            res = solve(g, plus2_lists(g, 7919 * n + gi))
            h.update(json.dumps(res.coloring if res.ok else res.obstruction.reason).encode())
            h.update(trace_to_json_lines(res.trace).encode())
    assert h.hexdigest() == CORPUS_DIGEST


def test_internal_errors_carry_the_partial_trace(monkeypatch):
    # the 4-cycle 0-1-2-3 with chord 0-2 colors the triangle 0, 2, 3, then
    # extends the good ear through 1; with no unique color anywhere and no
    # unanimous one at 0 that ear fails, after the first step has closed
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    lists = ListAssignment([[1, 2, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 4, 5], [1, 2, 3, 4]])
    assert [s.case for s in solve(g, lists).trace] == ["Trivial", "GoodEar"]
    monkeypatch.setattr(kernel, "unique_colors", lambda g, colors, v: set())
    with pytest.raises(SolverInternalError, match="unique or unanimous") as exc:
        solve(g, lists)
    assert [s.case for s in exc.value.trace] == ["Trivial"]


def test_the_coloring_pass_looks_up_unique_colors_on_the_kernel(monkeypatch):
    # a wrapper on the module attribute (as the benchmark's per-layer
    # counters install) sees the pass's calls
    real = kernel.unique_colors
    calls = []

    def counted(g, colors, v):
        calls.append(v)
        return real(g, colors, v)

    monkeypatch.setattr(kernel, "unique_colors", counted)
    g = path_graph(4)
    solved_ok(g, plus2_lists(g, 4))
    assert calls


def test_long_path_solves_without_recursion():
    g = path_graph(600)
    res = solved_ok(g, plus2_lists(g, 600))
    assert replay_trace(g.n, res.trace) == res.coloring


def test_large_random_outerplanar_solves():
    g = random_outerplanar(400, 1)  # chorded polygon with pendant trees
    assert g.m >= g.n
    res = solved_ok(g, plus2_lists(g, 1))
    assert replay_trace(g.n, res.trace) == res.coloring


def test_large_single_blocks_solve():
    # one block of 200 vertices: every peel step embeds it and searches
    # its ears again
    for g in (fan(200), zigzag_triangulation(200)):
        assert g.m == 2 * g.n - 3
        res = solved_ok(g, plus2_lists(g, 200))
        assert replay_trace(g.n, res.trace) == res.coloring


def test_solve_is_deterministic():
    g = random_outerplanar(12, 4)
    lists = plus2_lists(g, 4)
    first = solve(g, lists)
    second = solve(g, lists)
    assert first.coloring == second.coloring
    assert [s.case for s in first.trace] == [s.case for s in second.trace]


def test_structure_cache_keeps_lists_apart():
    # every draw on this graph peels an EarChain(s3H4), the only case that
    # reserves colors; a cached plan must carry no list of an earlier call
    g = flower(1, 2, 1)
    a, b = plus2_lists(g, 0), plus2_lists(g, 1)

    def key(res):
        return res.coloring, trace_to_json_lines(res.trace)

    cold = {}
    for name, lists in (("a", a), ("b", b)):
        solver._structure.cache_clear()
        cold[name] = key(solve(g, lists))
    assert "EarChain(s3H4)" in cold["a"][1] and cold["a"] != cold["b"]

    solver._structure.cache_clear()
    for name, lists in (("a", a), ("b", b), ("a", a)):
        assert key(solve(g, lists)) == cold[name]
    twin = Graph(g.n, g.edges())
    assert twin is not g
    before = solver._structure.cache_info()
    assert key(solve(twin, b)) == cold["b"]
    after = solver._structure.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_large_graphs_skip_the_structure_cache():
    limit = solver.STRUCTURE_CACHE_MAX_N
    solver._structure.cache_clear()
    for n, cached in ((limit + 1, 0), (limit, 1)):
        g = path_graph(n)
        solved_ok(g, plus2_lists(g, n))
        assert solver._structure.cache_info().currsize == cached


def test_large_path_and_cactus_solve_cold():
    # one peel step per block over the block tree, no recursion
    for g in (path_graph(10_000), random_cactus(10_000, 3)):
        assert g.n > solver.STRUCTURE_CACHE_MAX_N  # never cached: every solve is cold
        res = solved_ok(g, plus2_lists(g, 10))
        assert replay_trace(g.n, res.trace) == res.coloring


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def peel_inputs(draw):
    """Graphs of every block shape, in random vertex order half the time,
    plus disconnected and (often) non-outerplanar ones."""
    kind = draw(st.sampled_from(
        ["random", "path", "cactus", "fan", "strip", "flower", "extra_edge", "union"]
    ))
    seed = draw(st.integers(0, 10**6))
    if kind == "random":
        g = random_outerplanar(draw(st.integers(1, 300)), seed)
    elif kind == "path":
        g = path_graph(draw(st.integers(1, 300)))
    elif kind == "cactus":
        g = random_cactus(draw(st.integers(1, 300)), seed)
    elif kind == "fan":
        g = fan(draw(st.integers(2, 120)))
    elif kind == "strip":
        g = zigzag_triangulation(draw(st.integers(3, 120)))
    elif kind == "flower":
        g = flower(*(draw(st.integers(1, 7)) for _ in range(3)))
    elif kind == "extra_edge":
        g = random_outerplanar(draw(st.integers(4, 60)), seed)
        u, v = random.Random(seed).sample(range(g.n), 2)
        if not g.has_edge(u, v):
            g = Graph(g.n, [*g.edges(), (u, v)])
    else:
        a = random_outerplanar(draw(st.integers(1, 30)), seed)
        b = random_outerplanar(draw(st.integers(1, 30)), seed + 1)
        g = Graph(a.n + b.n, [*a.edges(), *((u + a.n, v + a.n) for u, v in b.edges())])
    if draw(st.booleans()):
        g = _relabeled(g, random.Random(seed))
    return g


@settings(max_examples=150, deadline=None)
@given(peel_inputs())
def test_peel_matches_the_reference(g):
    # case for case and field for field, screens included
    assert solver._structure_pass(g) == reference_structure(g)


def test_peel_matches_the_reference_on_the_corpora():
    graphs = [g for n in range(1, 9) for g in enumerate_connected_outerplanar(n)]
    graphs += [g for n in range(4, 10) for g in enumerate_two_connected_outerplanar(n)]
    graphs += [flower(a, b, c) for a in (1, 2, 3) for b in range(1, 7) for c in (1, 2, 3)]
    for g in graphs:
        assert solver._structure_pass(g) == reference_structure(g), g.edges()


@settings(max_examples=100, deadline=None)
@given(peel_inputs(), st.integers(0, 10**6))
def test_trace_steps_partition_the_vertices(g, seed):
    res = solve(g, plus2_lists(g, seed))
    if not res.ok:
        assert res.trace == ()
        return
    colored = [v for step in res.trace for v in step.colors]
    assert sorted(colored) == list(range(g.n))
    # a step removes exactly what it and the steps after it that remove
    # nothing (an ear chain's EarExtensions and its s3H5 tail) color
    groups = []
    for step in res.trace:
        if step.removed:
            groups.append((set(step.removed), set()))
        groups[-1][1].update(step.colors)
    for removed, colors in groups:
        assert removed == colors


def test_graph_screens_come_before_the_list_screen():
    short = ListAssignment([[1]] * 4)
    disconnected = Graph(4, [(0, 1), (2, 3)])
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for _ in range(2):  # the cold solve, then the cached one
        assert solve(disconnected, short).obstruction.reason == REASON_DISCONNECTED
        assert solve(k4, short).obstruction.reason == REASON_NOT_OUTERPLANAR


def test_status_is_invariant_under_color_relabeling():
    rng = random.Random(2)
    for seed in range(20):
        g = random_outerplanar(8, seed)
        lists = plus2_lists(g, seed)
        used = sorted({c for lst in lists for c in lst})
        image = rng.sample(range(1, 40), len(used))
        relab = dict(zip(used, image))
        mapped = ListAssignment([[relab[c] for c in lst] for lst in lists])
        assert solve(g, lists).ok == solve(g, mapped).ok


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_outerplanar_instances_always_solve(data):
    n = data.draw(st.integers(1, 12))
    g = random_outerplanar(n, data.draw(st.integers(0, 10**6)))
    spread = data.draw(st.integers(0, 5))
    universe = range(1, g.max_degree() + 3 + spread)
    lists = degree_plus_k_lists(
        g, 2, universe, random.Random(data.draw(st.integers(0, 10**6)))
    )
    res = solve(g, lists)
    if not res.ok:
        # only the one genuine obstruction may appear
        assert res.obstruction.reason == REASON_C5_UNIFORM
        assert g.n == 5 and len(set(lists.lists)) == 1
    else:
        assert verify(g, res.coloring, lists).ok
