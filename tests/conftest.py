"""Shared test helpers.

Everything here is deliberately written from scratch against the definitions,
not by calling back into the package, so that tests cross-check independent
implementations: a brute-force product-enumeration solver, an outerplanarity
test via apex planarity, and the goodness predicates for ears and chains.
The one exception is the reference outer embedding at the end: the
package's earlier, simpler structure code, kept verbatim as the yardstick
for the linear-work one.
"""

from __future__ import annotations

import itertools

import networkx as nx

from pcfcolor.graphs import Graph, normalize_edge
from pcfcolor.structure import OuterEmbedding


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


# -- reference outer embedding -------------------------------------------------
#
# The package's embedding before it did linear work per call: degree-2
# elimination in sorted order, re-insertion with list.index / list.insert,
# and a pairwise chord-crossing check.  Blocks come from networkx.


def _reference_validated(b: Graph, cycle: list) -> "OuterEmbedding | None":
    n = b.n
    if sorted(cycle) != list(range(n)):
        return None
    pos = {v: i for i, v in enumerate(cycle)}
    for i in range(n):
        if not b.has_edge(cycle[i], cycle[(i + 1) % n]):
            return None
    chords = []
    for u, v in b.edges():
        d = (pos[u] - pos[v]) % n
        if d not in (1, n - 1):
            chords.append((min(pos[u], pos[v]), max(pos[u], pos[v])))
    for a in range(len(chords)):
        i1, j1 = chords[a]
        for i2, j2 in chords[a + 1 :]:
            if i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1:
                return None
    i0 = cycle.index(0)
    cyc = cycle[i0:] + cycle[:i0]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    chord_edges = tuple(
        sorted(normalize_edge(u, v) for u, v in b.edges() if (pos[u] - pos[v]) % n not in (1, n - 1))
    )
    return OuterEmbedding(tuple(cyc), chord_edges)


def reference_outer_embedding(block: Graph) -> "OuterEmbedding | None":
    n = block.n
    if n < 3:
        return None
    adj = [set(block.neighbors(v)) for v in range(n)]
    alive = set(range(n))
    removed = []
    while len(alive) > 3:
        v = next((u for u in sorted(alive) if len(adj[u]) == 2), None)
        if v is None:
            return None
        a, c = sorted(adj[v])
        alive.remove(v)
        adj[a].discard(v)
        adj[c].discard(v)
        adj[v].clear()
        adj[a].add(c)
        adj[c].add(a)
        removed.append((v, a, c))
    x, y, z = sorted(alive)
    if not (y in adj[x] and z in adj[x] and z in adj[y]):
        return None
    cycle = [x, y, z]
    for v, a, c in reversed(removed):
        i = cycle.index(a)
        if cycle[(i + 1) % len(cycle)] == c:
            cycle.insert(i + 1, v)
        elif cycle[(i - 1) % len(cycle)] == c:
            cycle.insert(i, v)
        else:
            return None
    return _reference_validated(block, cycle)


def reference_is_outerplanar(g: Graph) -> bool:
    if g.n >= 2 and g.m > 2 * g.n - 3:
        return False
    for block in nx.biconnected_components(to_networkx(g)):
        if len(block) >= 3 and reference_outer_embedding(g.subgraph(block)[0]) is None:
            return False
    return True


def chords_cross_pairwise(cycle, edges) -> bool:
    """Whether two edges that are not sides of `cycle` cross inside it."""
    n = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    chords = [
        tuple(sorted((pos[u], pos[v])))
        for u, v in edges
        if (pos[u] - pos[v]) % n not in (1, n - 1)
    ]
    return any(
        i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1
        for i1, j1 in chords
        for i2, j2 in chords
    )
