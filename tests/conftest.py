"""Shared test helpers.

Everything here is deliberately written from scratch against the definitions,
not by calling back into the package, so that tests cross-check independent
implementations: a brute-force product-enumeration solver, an outerplanarity
test via apex planarity, and the goodness predicates for ears and chains.
"""

from __future__ import annotations

import itertools

import networkx as nx

from pcfcolor.graphs import Graph


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def nx_outerplanar(g: Graph) -> bool:
    """A graph is outerplanar iff adding a vertex joined to all others
    leaves it planar."""
    h = to_networkx(g)
    apex = g.n
    h.add_edges_from((apex, v) for v in range(g.n))
    ok, _ = nx.check_planarity(h)
    return ok


def pcf_ok(g: Graph, colors) -> bool:
    """Total proper coloring where every non-isolated vertex sees some color
    exactly once among its neighbors."""
    if len(colors) != g.n or any(c is None for c in colors):
        return False
    for u, v in g.edges():
        if colors[u] == colors[v]:
            return False
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if not nbrs:
            continue
        seen = [colors[u] for u in nbrs]
        if not any(seen.count(c) == 1 for c in set(seen)):
            return False
    return True


def _edge_neighbors(g: Graph, v) -> list:
    return sorted(u for e in g.edges() if v in e for u in e if u != v)


def naive_unique_colors(g: Graph, colors, v) -> set:
    """Colors that exactly one colored neighbor of v carries."""
    seen = [colors[u] for u in _edge_neighbors(g, v)]
    return {c for c in seen if c is not None and seen.count(c) == 1}


def naive_violations(g: Graph, colors, lists=None) -> tuple:
    """(vertex, reason, other) for every violation, vertex by vertex: an
    uncolored vertex reports only that; a colored one reports a color
    outside its list, then each clashing neighbor in increasing order, then
    a missing unique neighbor color once its whole neighborhood is colored."""
    nbrs = [_edge_neighbors(g, v) for v in range(g.n)]
    out = []
    for v in range(g.n):
        if colors[v] is None:
            out.append((v, "uncolored", None))
            continue
        if lists is not None and colors[v] not in lists[v]:
            out.append((v, "color_not_in_list", None))
        out.extend((v, "not_proper", u) for u in nbrs[v] if colors[u] == colors[v])
        full = nbrs[v] and all(colors[u] is not None for u in nbrs[v])
        if full and not naive_unique_colors(g, colors, v):
            out.append((v, "no_unique_neighbor_color", None))
    return tuple(out)


def in_lists(colors, lists) -> bool:
    return all(colors[v] in lists[v] for v in range(len(colors)))


def naive_pcf_solve(g: Graph, lists):
    """Full product enumeration; None when no coloring exists.  Tiny inputs only."""
    for combo in itertools.product(*[sorted(lists[v]) for v in range(g.n)]):
        if pcf_ok(g, list(combo)):
            return list(combo)
    return None


# -- goodness predicates, transcribed from the structure definitions ----------


def ear_shape_ok(b: Graph, root, interior) -> bool:
    """An ear is a cycle u1..ur u1 (r >= 3) whose non-root vertices all have
    degree 2 in the block."""
    u1, ur = root
    if not interior:
        return False
    walk = [u1, *interior, ur]
    if len(set(walk)) != len(walk):
        return False
    if not b.has_edge(u1, ur):
        return False
    for a, c in zip(walk, walk[1:]):
        if not b.has_edge(a, c):
            return False
    return all(b.degree(w) == 2 for w in interior)


def ear_good_for(b: Graph, root, interior, x) -> bool:
    """Good for x: one root endpoint has degree 3 and x avoids all of the ear
    except the other root endpoint."""
    if not ear_shape_ok(b, root, interior):
        return False
    u1, ur = root
    body = set(interior)
    if b.degree(ur) == 3 and x != ur and x not in body:
        return True
    return b.degree(u1) == 3 and x != u1 and x not in body


def chain_good_for(b: Graph, spine, ears, x) -> bool:
    """A chain of ears rooted along a spine path v1..vs, closed by the edge
    v1 vs, inner spine vertices of degree 4; good for x when x only meets it
    at the spine ends."""
    s = len(spine)
    if s < 3 or len(ears) != s - 1:
        return False
    if not b.has_edge(spine[0], spine[-1]):
        return False
    members = set(spine)
    for i, ear in enumerate(ears):
        if tuple(ear.root) != (spine[i], spine[i + 1]):
            return False
        if not ear_shape_ok(b, ear.root, ear.interior):
            return False
        members.update(ear.interior)
    if any(b.degree(v) != 4 for v in spine[1:-1]):
        return False
    return x not in members or x in (spine[0], spine[-1])
