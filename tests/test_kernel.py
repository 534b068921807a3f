import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_unique_colors, naive_violations, pcf_ok
from pcfcolor.families import enumerate_connected_outerplanar, random_cactus, random_outerplanar
from pcfcolor.graphs import Graph, cycle_graph, path_graph
from pcfcolor.kernel import (
    COLOR_NOT_IN_LIST,
    ListAssignment,
    NO_UNIQUE_NEIGHBOR_COLOR,
    NOT_PROPER,
    UNCOLORED,
    coloring_from_json,
    coloring_to_json,
    degree_plus_k_lists,
    unique_colors,
    verify,
)
from pcfcolor.solver import solve


def test_list_assignment_basics():
    la = ListAssignment([[3, 1, 2], [4]])
    assert la[0] == frozenset({1, 2, 3})
    assert la.sizes() == (3, 1)
    assert len(la) == 2
    lb = la.with_list(1, [5, 6])
    assert lb[1] == frozenset({5, 6}) and la[1] == frozenset({4})
    assert la == ListAssignment([{1, 2, 3}, {4}])
    assert hash(la) == hash(ListAssignment([{1, 2, 3}, {4}]))


def test_list_assignment_rejects_bad_input():
    with pytest.raises(ValueError):
        ListAssignment([[0]])
    with pytest.raises(ValueError):
        ListAssignment([[-1, 2]])
    with pytest.raises(ValueError):
        ListAssignment([["a"]])
    # each color is checked as given, before a set could merge True or 1.0 into 1
    for bad in ([[1, True]], [[1, 1.0]], [[2, True]], [[1.0, 1]]):
        with pytest.raises(ValueError, match="colors must be positive integers"):
            ListAssignment(bad)
    # the first bad color in input order is named
    with pytest.raises(ValueError, match=r"got 0\b"):
        ListAssignment([[3, 0, -1]])
    # empty lists are legal; they just make the vertex uncolorable
    assert ListAssignment([[]]).sizes() == (0,)


def test_list_assignment_json_round_trip():
    la = ListAssignment([[1, 2], [2, 3, 4]])
    assert ListAssignment.from_json(la.to_json()) == la
    assert la.to_json() == {"lists": [[1, 2], [2, 3, 4]]}


def test_coloring_json_round_trip():
    colors = [1, None, 3]
    assert coloring_from_json(coloring_to_json(colors)) == colors
    with pytest.raises(ValueError):
        coloring_from_json({"colors": [1, "x"]})


def test_coloring_json_accepts_int_subclasses_and_names_the_first_bad_color():
    class Color(int):
        pass

    assert coloring_from_json({"colors": [Color(2), None, 1]}) == [2, None, 1]
    for bad, shown in ((True, "True"), (1.0, "1.0"), ("1", "'1'")):
        with pytest.raises(ValueError) as exc:
            coloring_from_json({"colors": [1, None, bad, "x"]})
        assert str(exc.value) == f"colors must be integers or null, got {shown}"


def test_verify_reads_plain_lists_as_a_list_assignment():
    g = path_graph(3)
    lists = [{1}, {2}, {2, 9}]
    assert verify(g, [1, 2, 3], lists) == verify(g, [1, 2, 3], ListAssignment(lists))


def test_unique_colors_partial():
    g = path_graph(4)
    # vertex 1 sees colors {1, 1} once 2 is colored the same as 0
    assert unique_colors(g, [1, None, 1, None], 1) == set()
    assert unique_colors(g, [1, None, 2, None], 1) == {1, 2}
    assert unique_colors(g, [1, None, None, None], 1) == {1}
    assert unique_colors(g, [None, None, None, None], 1) == set()


def test_verify_flags_conflict_free_failures_on_c5():
    g = cycle_graph(5)
    verdict = verify(g, [1, 2, 3, 1, 2])
    assert not verdict.ok
    assert {(v.vertex, v.reason) for v in verdict.violations} == {
        (0, NO_UNIQUE_NEIGHBOR_COLOR),
        (4, NO_UNIQUE_NEIGHBOR_COLOR),
    }


def test_verify_proper_and_list_violations():
    g = path_graph(3)
    verdict = verify(g, [1, 1, 2])
    reasons = {(v.vertex, v.reason, v.other) for v in verdict.violations}
    assert (0, NOT_PROPER, 1) in reasons and (1, NOT_PROPER, 0) in reasons

    la = ListAssignment([[1], [2], [2, 9]])
    verdict = verify(g, [1, 2, 3], la)
    assert {(v.vertex, v.reason) for v in verdict.violations} == {
        (2, COLOR_NOT_IN_LIST)
    }


def test_verify_partial_coloring_semantics():
    g = path_graph(3)
    verdict = verify(g, [1, None, 2])
    # vertex 1 is only reported as uncolored; the conflict-free test for
    # vertices 0 and 2 stays quiet while their neighborhoods have holes
    assert {(v.vertex, v.reason) for v in verdict.violations} == {(1, UNCOLORED)}
    # a colored vertex with a fully colored neighborhood does get the test
    verdict = verify(cycle_graph(4), [1, 2, 1, 2])
    assert {(v.vertex, v.reason) for v in verdict.violations} == {
        (v, NO_UNIQUE_NEIGHBOR_COLOR) for v in range(4)
    }


def test_verify_wrong_length():
    with pytest.raises(ValueError):
        verify(path_graph(3), [1, 2])


def test_isolated_vertex_needs_no_unique_neighbor():
    g = Graph(3, [(0, 1)])
    assert verify(g, [1, 2, 1]).ok


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_agrees_with_naive_predicate(data):
    n = data.draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    g = Graph(n, edges)
    color = st.integers(1, 4)
    colors = data.draw(st.lists(st.none() | color, min_size=n, max_size=n))
    lists = data.draw(st.none() | st.lists(st.sets(color), min_size=n, max_size=n))
    la = None if lists is None else ListAssignment(lists)
    verdict = verify(g, colors, la)
    got = tuple((x.vertex, x.reason, x.other) for x in verdict.violations)
    assert got == naive_violations(g, colors, lists)
    assert verdict.ok == (not got)
    for v in range(n):
        assert unique_colors(g, colors, v) == naive_unique_colors(g, colors, v)
    if None not in colors:
        assert verify(g, colors).ok == pcf_ok(g, colors)


# mostly vertices of degree 1 and 2, which verify decides without its sets
SOLVED_GRAPHS = [g for n in range(2, 8) for g in enumerate_connected_outerplanar(n)]
SOLVED_GRAPHS += [path_graph(9), cycle_graph(7), random_cactus(30, 2), random_outerplanar(30, 1)]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_verify_reports_corruptions_of_a_solved_coloring(data):
    # a verified coloring with a few vertices uncolored, given a neighbor's
    # color, or given a color outside their lists
    g = data.draw(st.sampled_from(SOLVED_GRAPHS))
    lists = degree_plus_k_lists(g, 2, range(1, 2 * g.max_degree() + 5), data.draw(st.integers(0, 99)))
    colors = solve(g, lists).coloring or [min(x) for x in lists]  # or a uniform 5-cycle
    vertex = st.integers(0, g.n - 1)
    for v, how, k in data.draw(st.lists(st.tuples(vertex, st.sampled_from("ncx"), st.integers(0, 7)), max_size=4)):
        nb = g.neighbors(v)
        if how == "n":
            colors[v] = None
        elif how == "c":
            colors[v] = colors[nb[k % len(nb)]]
        else:
            colors[v] = max(lists[v]) + 1
    verdict = verify(g, colors, lists)
    got = tuple((x.vertex, x.reason, x.other) for x in verdict.violations)
    assert got == naive_violations(g, colors, lists)
    assert verdict.ok == (not got)


def test_degree_plus_k_lists_sizes_and_determinism():
    g = cycle_graph(6)
    la1 = degree_plus_k_lists(g, 2, range(1, 9), random.Random(5))
    la2 = degree_plus_k_lists(g, 2, range(1, 9), random.Random(5))
    assert la1 == la2
    assert la1.sizes() == tuple(g.degree(v) + 2 for v in range(6))
    assert all(c in range(1, 9) for lst in la1 for c in lst)
    with pytest.raises(ValueError):
        degree_plus_k_lists(g, 2, range(1, 4), random.Random(5))


@pytest.mark.parametrize("k", [-1, -2])
def test_degree_plus_k_lists_rejects_negative_k(k):
    # k = -1 used to hand a leaf an empty list, and k = -2 failed inside
    # random.sample
    with pytest.raises(ValueError, match="k must be nonnegative"):
        degree_plus_k_lists(path_graph(4), k, range(1, 9), random.Random(5))
