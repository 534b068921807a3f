import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import to_networkx
from pcfcolor.families import enumerate_connected_outerplanar, random_outerplanar
from pcfcolor.graphs import (
    Graph,
    cycle_graph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    write_edge_list,
    write_graph6,
)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert g.n == 4 and g.m == 4
    assert g.degree(2) == 3
    assert g.neighbors(2) == (0, 1, 3)
    assert g.has_edge(1, 0) and not g.has_edge(0, 3)
    assert g.max_degree() == 3
    assert list(g.vertices()) == [0, 1, 2, 3]


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    assert g.connected_components() == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert path_graph(5).is_connected()
    assert Graph(1).is_connected()


def test_subgraph_relabels_consistently():
    g = cycle_graph(5)
    sub, ids = g.subgraph([1, 3, 4])
    assert ids == (1, 3, 4)
    assert sub.n == 3
    # only the 3-4 and 4-0? no: kept edges are 3-4 (both kept); 1's cycle
    # neighbours 0 and 2 are gone
    assert sub.edges() == ((1, 2),)


def test_shape_builders():
    assert cycle_graph(3).edges() == ((0, 1), (0, 2), (1, 2))
    assert path_graph(2).edges() == ((0, 1),)
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_graph6_matches_networkx_atlas():
    for ag in nx.graph_atlas_g()[1:]:
        n = ag.number_of_nodes()
        if n == 0 or n > 6:
            continue
        g = Graph(n, ag.edges())
        theirs = nx.to_graph6_bytes(ag, header=False).decode().strip()
        assert write_graph6(g) == theirs
        back = parse_graph6(theirs)
        assert back == g


def test_parse_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("@@@garbage")
    # n = 2 has one edge bit and five padding bits: "A_" is K2, "A@" sets padding
    assert parse_graph6("A_") == Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="padding"):
        parse_graph6("A@")
    with pytest.raises(ValueError, match="body length"):
        parse_graph6("A")
    with pytest.raises(ValueError, match="body length"):
        parse_graph6("A__")
    with pytest.raises(ValueError, match="body length"):
        parse_graph6(write_graph6(path_graph(70)) + "?")


@settings(deadline=None)
@given(
    # n = 62 / 63 is where the header switches from one character to four
    st.integers(min_value=1, max_value=70).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=3 * n,
            ),
        )
    )
)
@example((62, {(0, 61), (60, 61)}))
@example((63, {(0, 62), (61, 62)}))
@example((0, set()))
@example((1, set()))
def test_graph6_round_trip(data):
    n, raw = data
    g = Graph(n, {tuple(sorted(e)) for e in raw})
    # parse_graph6 builds from the bits, without the constructor's checks
    assert_same_graph(parse_graph6(write_graph6(g)), g)
    theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
    assert write_graph6(g) == theirs


def test_edge_list_round_trip():
    g = Graph(6, [(0, 5), (1, 2)])
    text = write_edge_list(g)
    assert parse_edge_list(text) == g
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("not a header")


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 2)])


def assert_same_graph(a, b):
    """Every reader of a `Graph` sees the same thing on a and b."""
    assert (a.n, a.m) == (b.n, b.m)
    assert [a.neighbors(v) for v in a.vertices()] == [b.neighbors(v) for v in b.vertices()]
    assert [a.neighbor_set(v) for v in a.vertices()] == [b.neighbor_set(v) for v in b.vertices()]
    assert a.edges() == b.edges()
    assert a == b and hash(a) == hash(b)


@settings(deadline=None)
@given(st.integers(1, 200), st.integers(0, 10**6))
def test_graph6_round_trip_of_outerplanar_graphs(n, seed):
    g = random_outerplanar(n, seed)
    assert_same_graph(parse_graph6(write_graph6(g)), Graph(n, g.edges()))


def test_enumerated_graphs_equal_validated_builds():
    # the enumerator builds each candidate from its parent's adjacency
    for n in range(1, 9):
        for g in enumerate_connected_outerplanar(n):
            assert_same_graph(g, Graph(n, g.edges()))


def test_graph_is_read_only():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.m = 5
    with pytest.raises(AttributeError):
        g.n = 5
    assert (g.n, g.m) == (3, 2)
    assert g == path_graph(3)
