"""Shared test helpers.

Everything here is deliberately written from scratch against the definitions,
not by calling back into the package, so that tests cross-check independent
implementations: a brute-force product-enumeration solver, an outerplanarity
test via apex planarity, and the goodness predicates for ears and chains.
The exceptions are the references at the end: the package's earlier,
simpler outer embedding and peel, kept as the yardsticks for the
linear-work ones, its earlier ear search, which built the ears of a
span from the outer cycle rather than from the ear table, its earlier
canonical form and enumerators, which tested every candidate, and its
earlier exact search, which rescanned each neighborhood at every node.
"""

from __future__ import annotations

import itertools

import networkx as nx

from pcfcolor.families import canonical_form
from pcfcolor.graphs import Edge, Graph, normalize_edge
from pcfcolor.kernel import Coloring, ListAssignment, unique_colors, verify
from pcfcolor.oracle import DEFAULT_BUDGET, SAT, UNSAT, BudgetExceededError, OracleResult
from pcfcolor.solver import REASON_DISCONNECTED, REASON_NOT_OUTERPLANAR, Obstruction
from pcfcolor.structure import (
    KIND_CYCLE,
    KIND_EAR_CHAIN,
    KIND_GOOD_EAR,
    KIND_K2,
    KIND_LONG_EAR,
    Ear,
    EarChain,
    EndBlockCase,
    OuterEmbedding,
    StructureError,
    _check_chain,
    _check_ear,
    block_decomposition,
    chain_is_good,
    ear_is_good,
    find_good_ear_or_chain,
    is_outerplanar,
    outer_embedding,
)


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


# -- reference peel --------------------------------------------------------------
#
# The package's graph-only pass before it kept a block tree: every peel step
# copies the remaining graph with `subgraph`, decomposes it into blocks
# again, classifies its first end block in the copy's ids and renames the
# case into host ids.  Quadratic; for comparison on small graphs only.


def _renamed_ear(ear, ids):
    return Ear((ids[ear.root[0]], ids[ear.root[1]]), tuple(ids[w] for w in ear.interior))


def _reference_classify(g: Graph) -> EndBlockCase:
    """The first end block's case, in g's own ids."""
    decomp = block_decomposition(g)
    block = decomp.end_blocks()[0]
    in_block_cuts = [v for v in block if v in decomp.cut_vertices]
    anchor = in_block_cuts[0] if in_block_cuts else block[0]
    if len(block) == 2:
        pendant = block[0] if block[1] == anchor else block[1]
        return EndBlockCase(KIND_K2, anchor, pendant=pendant)
    bsub, ids = g.subgraph(block)
    loc = {old: new for new, old in enumerate(ids)}
    emb = outer_embedding(bsub)
    if bsub.m == bsub.n:
        order = [ids[v] for v in emb.order]
        i = order.index(anchor)
        return EndBlockCase(KIND_CYCLE, anchor, cycle_order=tuple(order[i:] + order[:i]))
    found = find_good_ear_or_chain(bsub, emb, loc[anchor])
    if isinstance(found, Ear):
        return EndBlockCase(KIND_GOOD_EAR, anchor, ear=_renamed_ear(found, ids))
    chain = EarChain(tuple(ids[v] for v in found.spine), tuple(_renamed_ear(e, ids) for e in found.ears))
    if anchor == chain.spine[-1]:
        chain = chain.reversed()
    if chain.ears[-1].size() >= 6:
        return EndBlockCase(KIND_LONG_EAR, anchor, ear=chain.ears[-1])
    return EndBlockCase(KIND_EAR_CHAIN, anchor, chain=chain)


def _renamed_case(case: EndBlockCase, ids) -> EndBlockCase:
    return EndBlockCase(
        case.kind,
        ids[case.anchor],
        pendant=None if case.pendant is None else ids[case.pendant],
        cycle_order=None if case.cycle_order is None else tuple(ids[v] for v in case.cycle_order),
        ear=None if case.ear is None else _renamed_ear(case.ear, ids),
        chain=None if case.chain is None else EarChain(
            tuple(ids[v] for v in case.chain.spine),
            tuple(_renamed_ear(e, ids) for e in case.chain.ears),
        ),
    )


def reference_structure(g: Graph):
    """(obstruction or None, cases in peel order, remaining vertices), as
    `solver._structure_pass` returns them."""
    if not g.is_connected():
        return Obstruction(REASON_DISCONNECTED, "input graph is disconnected"), (), ()
    if not is_outerplanar(g):
        return Obstruction(REASON_NOT_OUTERPLANAR, "input graph is not outerplanar"), (), ()
    plan = []
    sub, ids = g, tuple(range(g.n))
    while sub.n > 3:
        case = _reference_classify(sub)
        if case.kind == KIND_CYCLE and len(case.cycle_order) == sub.n:
            return None, tuple(plan), tuple(ids[v] for v in case.cycle_order)
        plan.append(_renamed_case(case, ids))
        cut = set(case.removed())
        sub, kept = sub.subgraph(w for w in range(sub.n) if w not in cut)
        ids = tuple(ids[w] for w in kept)
    return None, tuple(plan), ids


# -- reference ear search ----------------------------------------------------------
#
# The package's `find_good_ear_or_chain` before every ear it returns came
# from the ear table: the span case cut its ears out of the outer cycle,
# each chain case built and checked its chain on its own, and the root-edge
# graph was built and walked once per case.  Copied verbatim with its
# helpers; only the search's name changed.


def _arc(order: tuple[int, ...], p: int, step: int, length: int) -> list[int]:
    """The `length` outer-cycle vertices after position p, walking by step."""
    n = len(order)
    return [order[(p + step * t) % n] for t in range(1, length + 1)]


def reference_find_good_ear_or_chain(b: Graph, emb: OuterEmbedding, x: int) -> "Ear | EarChain":
    """An ear or ear chain of b good for x.

    b must be 2-connected outerplanar and not a cycle.  Follows the
    existence proof: collect the root edges of ears (E1); if every chord is
    such a root edge, the graph they induce (G1) is a single cycle (yield
    the chain missing the ear containing x) or a forest of paths (yield the
    ear at a degree-1 endpoint avoiding x); otherwise pick the non-root
    chord uv spanning the fewest vertices on the side avoiding x and
    recurse into that span, where the root edges either form a u-v path
    (yield it as a chain) or again have a free endpoint (yield its ear).

    Each arc of a chord is judged from cycle positions alone: it is an ear
    arc iff its interior fits in the run of degree-2 vertices after its
    start, and it avoids x iff x's position falls outside it.  Only the
    arcs that are kept are built.
    """
    order = emb.order
    n = len(order)
    pos = emb.position()
    chords = set(emb.chords)
    if not chords:
        raise ValueError("cycle blocks have no ears; handle them separately")

    # run[i]: how many degree-2 vertices follow position i on the cycle;
    # a chord has an endpoint of degree 3 or more, where the count restarts
    run = [0] * n
    k = next(i for i in range(n) if b.degree(order[i]) != 2)
    for i in range(k - 1, k - n - 1, -1):
        j = (i + 1) % n
        run[i % n] = run[j] + 1 if b.degree(order[j]) == 2 else 0

    ears_by_edge: dict[Edge, list[Ear]] = {}
    for u, v in sorted(chords):
        pu, pv = pos[u], pos[v]
        # the arc from u backward is the arc after v forward
        for step, length, start in ((1, (pv - pu) % n - 1, pu), (-1, (pu - pv) % n - 1, pv)):
            if 0 < length <= run[start]:
                arc = tuple(_arc(order, pu, step, length))
                ears_by_edge.setdefault((u, v), []).append(Ear((u, v), arc))
    e1 = set(ears_by_edge)

    g1_deg: dict[int, int] = {}
    g1_adj: dict[int, list[int]] = {}
    for u, v in e1:
        g1_deg[u] = g1_deg.get(u, 0) + 1
        g1_deg[v] = g1_deg.get(v, 0) + 1
        g1_adj.setdefault(u, []).append(v)
        g1_adj.setdefault(v, []).append(u)
    if g1_deg and max(g1_deg.values()) > 2:
        raise StructureError("ear root edges meet 3+ times at a vertex")

    if chords == e1:
        if e1 and min(g1_deg.values()) == 2:
            return _chain_from_root_cycle(b, g1_adj, ears_by_edge, x)
        return _ear_at_free_endpoint(
            b, x, edges=sorted(e1), degree={v: d for v, d in g1_deg.items()},
            ears_by_edge=ears_by_edge, banned=frozenset(),
        )

    # some chord roots no ear: shrink to the smallest span avoiding x.
    # Chords differ, so (span, chord) decides; only the winner's arcs are built
    px = pos[x]
    best: "tuple[tuple[int, Edge], list[tuple[int, int]]] | None" = None
    for u, v in sorted(chords - e1):
        pu = pos[u]
        sides = [
            (length, step)
            for step, length in ((1, (pos[v] - pu) % n - 1), (-1, (pu - pos[v]) % n - 1))
            if not 0 < step * (px - pu) % n <= length
        ]
        if not sides:
            raise StructureError("anchor interior to both arcs of one chord")
        key = (min(sides)[0] + 2, (u, v))
        if best is None or key < best[0]:
            best = (key, sides)
    (_, (u, v)), sides = best
    arc = min(
        (_arc(order, pos[u], step, length) for length, step in sides),
        key=lambda a: (len(a), a),
    )
    strip = [u, *arc, v]
    strip_pos = {w: i for i, w in enumerate(strip)}
    strip_set = set(strip)

    inner = [e for e in chords if e != (u, v) and e[0] in strip_set and e[1] in strip_set]
    for e in inner:
        if e not in e1:
            raise StructureError("minimal span contains a non-root chord")
    if not inner:
        raise StructureError("non-root chord spans no root edges")

    g2_deg: dict[int, int] = {}
    g2_adj: dict[int, list[int]] = {}
    for a, c in inner:
        g2_deg[a] = g2_deg.get(a, 0) + 1
        g2_deg[c] = g2_deg.get(c, 0) + 1
        g2_adj.setdefault(a, []).append(c)
        g2_adj.setdefault(c, []).append(a)
    if max(g2_deg.values()) > 2:
        raise StructureError("root edges meet 3+ times inside a span")

    if _is_path_between(g2_adj, g2_deg, u, v, len(inner)):
        spine = _walk_path(g2_adj, u)
        if spine[-1] != v:
            raise StructureError("span walk did not end at the chord")
        if any(strip_pos[spine[i]] >= strip_pos[spine[i + 1]] for i in range(len(spine) - 1)):
            raise StructureError("span path does not follow the outer cycle")
        ears = []
        for i in range(len(spine) - 1):
            interior = tuple(strip[strip_pos[spine[i]] + 1 : strip_pos[spine[i + 1]]])
            ear = Ear((spine[i], spine[i + 1]), interior)
            _check_ear(b, ear)
            ears.append(ear)
        chain = EarChain(tuple(spine), tuple(ears))
        _check_chain(b, chain)
        if not chain_is_good(b, chain, x):
            raise StructureError("constructed ear chain is not good for the anchor")
        return chain

    return _ear_at_free_endpoint(
        b, x, edges=sorted(inner), degree=g2_deg, ears_by_edge=None,
        banned=frozenset((u, v)), strip=strip, strip_pos=strip_pos,
    )


def _chain_from_root_cycle(b, g1_adj, ears_by_edge, x) -> EarChain:
    # all chords are root edges and they close a cycle; the ears tile the
    # outer cycle, so drop the one holding x and chain the rest
    start = min(g1_adj)
    order = [start, min(g1_adj[start])]
    while True:
        nxt = [w for w in g1_adj[order[-1]] if w != order[-2]]
        if len(nxt) != 1:
            raise StructureError("root-edge cycle is not 2-regular")
        if nxt[0] == start:
            break
        order.append(nxt[0])
    if len(order) != len(g1_adj):
        raise StructureError("root-edge cycle is disconnected")

    ell = len(order)
    ears: list[Ear] = []
    for i in range(ell):
        a, c = order[i], order[(i + 1) % ell]
        cands = ears_by_edge[normalize_edge(a, c)]
        if len(cands) != 1:
            raise StructureError("root edge on a cycle must have a unique ear")
        ear = cands[0]
        ears.append(ear if ear.root == (a, c) else ear.reversed())

    holders = [i for i, ear in enumerate(ears) if x in ear.vertices()]
    if not holders:
        raise StructureError("anchor missing from every ear of the tiling")
    j = holders[0]
    spine = tuple(order[(j + 1 + t) % ell] for t in range(ell))
    chain = EarChain(spine, tuple(ears[(j + 1 + t) % ell] for t in range(ell - 1)))
    _check_chain(b, chain)
    if not chain_is_good(b, chain, x):
        raise StructureError("tiling chain is not good for the anchor")
    return chain


def _ear_at_free_endpoint(
    b, x, edges, degree, ears_by_edge, banned, strip=None, strip_pos=None
) -> Ear:
    # a root edge with a degree-1 endpoint (not on the enclosing chord)
    # gives a good ear: that endpoint has block degree 3 and becomes the
    # far end u_r, while x may only coincide with the near end u_1
    candidates: list[Ear] = []
    for a, c in edges:
        for far, near in ((a, c), (c, a)):
            if degree[far] != 1 or far in banned:
                continue
            if strip is None:
                raw = ears_by_edge[normalize_edge(far, near)]
            else:
                lo, hi = sorted((strip_pos[far], strip_pos[near]))
                raw = [Ear((strip[lo], strip[hi]), tuple(strip[lo + 1 : hi]))]
            for ear in raw:
                oriented = ear if ear.root == (near, far) else ear.reversed()
                if oriented.root != (near, far):
                    continue
                if b.degree(far) != 3:
                    raise StructureError(f"free endpoint {far} has degree {b.degree(far)}")
                _check_ear(b, oriented)
                if ear_is_good(b, oriented, x):
                    candidates.append(oriented)
    if not candidates:
        raise StructureError("no good ear at any free endpoint")
    candidates.sort(key=lambda e: (tuple(sorted(e.root)), len(e.interior), e.interior))
    return candidates[0]


def _is_path_between(adj, deg, u, v, edge_count) -> bool:
    if deg.get(u) != 1 or deg.get(v) != 1:
        return False
    if any(d != 2 for w, d in deg.items() if w not in (u, v)):
        return False
    return len(_walk_path(adj, u)) == edge_count + 1 == len(deg)


def _walk_path(adj, start) -> list[int]:
    path = [start, adj[start][0]]
    while True:
        nxt = [w for w in adj[path[-1]] if w != path[-2]]
        if not nxt:
            return path
        if len(nxt) > 1:
            raise StructureError("path walk hit a branching vertex")
        path.append(nxt[0])


# -- reference canonical form and enumerators -----------------------------------


def reference_canonical_form(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Isomorphism-invariant normal form: relabel within refinement classes
    to lexicographically minimize the adjacency rows, return the edges."""
    n = g.n
    if n == 0:
        return (0, ())
    colors = [g.degree(v) for v in range(n)]
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[sig[v]] for v in range(n)]
        if new == colors:
            break
        colors = new
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    slot_class = [c for c in sorted(classes) for _ in classes[c]]

    best: "list[int] | None" = None
    slot_of: dict[int, int] = {}
    rows: list[int] = []

    def descend(i: int) -> None:
        nonlocal best
        if i == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        for v in classes[slot_class[i]]:
            if v in slot_of:
                continue
            row = 0
            for w in g.neighbors(v):
                j = slot_of.get(w)
                if j is not None:
                    row |= 1 << j
            rows.append(row)
            if best is None or rows <= best[: len(rows)]:
                slot_of[v] = i
                descend(i + 1)
                del slot_of[v]
            rows.pop()

    descend(0)
    edges = []
    for i, row in enumerate(best):
        for j in range(i):
            if row >> j & 1:
                edges.append((j, i))
    return (n, tuple(sorted(edges)))


def reference_enumerate_connected_outerplanar(n: int) -> tuple[Graph, ...]:
    """All connected outerplanar graphs on n vertices, one per isomorphism
    class.  Grows each (n-1)-vertex graph by one vertex attached to every
    nonempty subset; some deletion order reaches every class because every
    connected graph has a vertex whose removal keeps it connected."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > 9:
        raise ValueError("enumeration is exponential; capped at 9 vertices")
    if n == 1:
        return (Graph(1, ()),)
    by_key: dict = {}
    for g in reference_enumerate_connected_outerplanar(n - 1):
        base = list(g.edges())
        for mask in range(1, 1 << (n - 1)):
            extra = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
            h = Graph(n, base + extra)
            if not is_outerplanar(h):
                continue
            by_key.setdefault(canonical_form(h), h)
    return tuple(by_key[k] for k in sorted(by_key))


def reference_enumerate_two_connected_outerplanar(n: int) -> tuple[Graph, ...]:
    """All 2-connected outerplanar graphs on n vertices up to isomorphism:
    an n-gon plus each non-crossing chord set, deduplicated under the
    dihedral symmetries.  That exhausts the class because such a graph has
    a unique Hamiltonian cycle, which any isomorphism must respect."""
    if n < 3:
        raise ValueError("2-connected graphs need at least 3 vertices")
    if n > 12:
        raise ValueError("dissection enumeration capped at 12 vertices")
    rim = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if (i, j) != (0, n - 1)
    ]
    maps = []
    for r in range(n):
        maps.append(lambda v, r=r: (v + r) % n)
        maps.append(lambda v, r=r: (r - v) % n)

    def key_of(chosen: list[Edge]) -> tuple:
        best = None
        for f in maps:
            img = tuple(
                sorted(tuple(sorted((f(a), f(b)))) for a, b in chosen)
            )
            if best is None or img < best:
                best = img
        return best

    found: dict[tuple, Graph] = {}

    def crossing(c: Edge, d: Edge) -> bool:
        (a, b), (p, q) = c, d
        return a < p < b < q or p < a < q < b

    chosen: list[Edge] = []

    def grow(start: int) -> None:
        key = key_of(chosen)
        if key not in found:
            found[key] = Graph(n, rim + chosen)
        for idx in range(start, len(chords)):
            c = chords[idx]
            if all(not crossing(c, d) for d in chosen):
                chosen.append(c)
                grow(idx + 1)
                chosen.pop()

    grow(0)
    return tuple(found[k] for k in sorted(found))


# -- reference exact search -------------------------------------------------------


def reference_solve_exact(g: Graph, lists: ListAssignment, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Decide PCF list colorability by backtracking.

    Vertices are processed by descending degree (ties by index) and colors
    in ascending order, so results are deterministic.  A branch dies when
    properness fails or some vertex with a fully colored neighborhood has
    no color appearing exactly once in it.
    """
    if len(lists) != g.n:
        raise ValueError(f"list assignment has {len(lists)} entries for a graph on {g.n} vertices")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    palette = [sorted(lists[v]) for v in range(g.n)]
    colors: Coloring = [None] * g.n
    nodes = 0

    def dead_end(v: int) -> bool:
        # v was just colored; the only constraints newly pinned down are the
        # unique-color requirements of v and its neighbors.
        for w in (v, *g.neighbors(v)):
            nb = g.neighbors(w)
            if nb and all(colors[x] is not None for x in nb):
                if not unique_colors(g, colors, w):
                    return True
        return False

    # Depth-first over positions without recursion, so any number of
    # vertices fits: nxt[pos] is the palette index to try next at pos.
    nxt = [0] * g.n
    pos = 0
    while 0 <= pos < g.n:
        v = order[pos]
        colors[v] = None  # still holds the last color tried when backtracking
        pal = palette[v]
        i = nxt[pos]
        while i < len(pal):
            c = pal[i]
            i += 1
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(nodes)
            if any(colors[w] == c for w in g.neighbors(v)):
                continue
            colors[v] = c
            if not dead_end(v):
                break
            colors[v] = None
        else:
            nxt[pos] = 0
            pos -= 1
            continue
        nxt[pos] = i
        pos += 1

    if pos == g.n:
        verdict = verify(g, colors, lists)
        assert verdict.ok, f"oracle produced an invalid coloring: {verdict.violations}"
        return OracleResult(SAT, list(colors), nodes)
    return OracleResult(UNSAT, None, nodes)
