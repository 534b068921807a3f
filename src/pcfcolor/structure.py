"""Structural analysis of outerplanar graphs.

Three layers, each feeding the next:

1. block/cut decomposition (any connected graph), by one iterative Tarjan
   depth-first search;
2. outer-cycle embeddings of 2-connected blocks, which double as the
   outerplanarity test: degree-2 vertices are eliminated from a worklist,
   put back into a doubly linked cycle, and one stack pass over the cycle
   checks that the chords nest (Mitchell 1979, "Linear algorithms to
   recognize outerplanar and maximal outerplanar graphs");
3. the unavoidable substructures of 2-connected non-cycle outerplanar
   graphs: an *ear* (a cycle hanging off one chord, interior degrees 2) or
   an *ear chain* (ears whose root edges form a path v_1..v_s closed by the
   edge v_1 v_s, junction degrees 4), found "good" for a given anchor
   vertex x, meaning x avoids the part that gets recolored.

Each call works in time linear in its graph, up to sorting blocks and
chords.  The search in `find_good_ear_or_chain` follows a constructive
existence proof, so every branch ends in an assertion rather than a failure
path; a `StructureError` here means a bug, not an unlucky input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Edge, Graph, normalize_edge


class StructureError(Exception):
    """An internal structural invariant failed."""


# -- blocks and cut vertices -------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[tuple[int, ...], ...]  # sorted vertex tuples, deterministic order
    cut_vertices: frozenset[int]

    def end_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks containing at most one cut vertex (leaves of the block tree)."""
        return tuple(
            b for b in self.blocks if sum(v in self.cut_vertices for v in b) <= 1
        )


def _blocks(g: Graph, roots, disc: list[int], cuts: "set[int] | None" = None):
    """Tarjan's biconnected components, iteratively (no recursion limit).

    Runs one depth-first search from each root in `roots` that no earlier
    search reached (`disc[v]` is v's discovery time, -1 until then) and
    yields the edge list of each block as the search closes it.  Adds the
    cut vertices to `cuts` when given.
    """
    low = [0] * g.n
    timer = 0
    estack: list[Edge] = []
    for root in roots:
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, object]] = [(root, -1, iter(g.neighbors(root)))]
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            for w in it:  # type: ignore[union-attr]
                if w == parent:
                    continue
                if disc[w] == -1:
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.neighbors(w))))
                    if v == root:
                        root_children += 1
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:  # v is finished
                stack.pop()
                if not stack:
                    break
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = estack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    if cuts is not None and u != root:
                        cuts.add(u)
                    yield block
        if estack:
            raise StructureError("leftover edges after block decomposition")
        if cuts is not None and root_children >= 2:
            cuts.add(root)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks and cut vertices of a connected graph, from one Tarjan search;
    a graph that search does not cover raises ValueError."""
    if g.n == 0:
        return BlockDecomposition((), frozenset())
    disc = [-1] * g.n
    cuts: set[int] = set()
    blocks = [
        tuple(sorted({v for e in edges for v in e}))
        for edges in _blocks(g, (0,), disc, cuts)
    ]
    if -1 in disc:
        raise ValueError("block decomposition requires a connected graph")
    blocks.sort(key=lambda b: (b[0], len(b), b))
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


# -- outer embeddings of 2-connected blocks ----------------------------------


@dataclass(frozen=True)
class OuterEmbedding:
    order: tuple[int, ...]  # Hamiltonian outer cycle
    chords: tuple[Edge, ...]  # edges not on the cycle, normalized and sorted

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def _is_outer_cycle(adj, cycle: list[int]) -> bool:
    """Whether `cycle`, which lists every vertex once, is an outer cycle of
    the graph `adj` (vertex -> neighbor set): consecutive vertices are
    adjacent and no two chords cross.

    The chord check is one stack pass over the cycle positions, like
    matching parentheses: at each position close the chords ending there,
    which must be on top of the stack, then open the chords starting there,
    farthest end first.  A chord crossed by a later-opened one is buried
    under it when its end comes, so it is never closed.
    """
    n = len(cycle)
    if any(cycle[i - 1] not in adj[cycle[i]] for i in range(n)):
        return False
    pos = {v: i for i, v in enumerate(cycle)}
    opens: list[list[int]] = [[] for _ in range(n)]  # far ends, farthest first
    for j in range(n - 1, 1, -1):
        for w in adj[cycle[j]]:
            i = pos[w]
            if i < j - 1 and (i or j < n - 1):
                opens[i].append(j)
    stack: list[int] = []
    for p in range(n):
        while stack and stack[-1] == p:
            stack.pop()
        stack.extend(opens[p])
    return not stack


def _outer_cycle(adj) -> "list[int] | None":
    """The outer cycle of the graph `adj` (vertex -> neighbor set), or None
    if the graph is not 2-connected outerplanar.  Shared by
    `outer_embedding` and `is_outerplanar`; see `outer_embedding`."""
    n = len(adj)
    if n < 3:
        return None
    work = {v: set(nb) for v, nb in adj.items()}
    todo = [v for v, nb in work.items() if len(nb) == 2]
    removed: list[tuple[int, int, int]] = []
    while len(removed) < n - 3:
        if not todo:
            return None
        v = todo.pop()
        nb = work[v]
        if len(nb) != 2:  # eliminated already, or lost a neighbor since queued
            continue
        a, c = nb
        nb.clear()
        for p, q in ((a, c), (c, a)):
            wp = work[p]
            wp.discard(v)
            wp.add(q)
            if len(wp) == 2:
                todo.append(p)
        removed.append((v, a, c))
    # eliminated vertices have no neighbors left; a vertex that had some
    # keeps one, as it gains the far neighbor of each one it loses
    rest = [v for v, nb in work.items() if nb]
    if len(rest) != 3:
        return None
    x, y, z = rest
    if not (y in work[x] and z in work[x] and z in work[y]):
        return None
    nxt = {x: y, y: z, z: x}
    prv = {x: z, y: x, z: y}
    for v, a, c in reversed(removed):
        if prv[a] == c:
            a, c = c, a
        elif nxt[a] != c:
            return None
        nxt[a] = prv[c] = v
        prv[v], nxt[v] = a, c
    cycle = [x]
    w = nxt[x]
    while w != x:
        cycle.append(w)
        w = nxt[w]
    return cycle if _is_outer_cycle(adj, cycle) else None


def outer_embedding(block: Graph) -> "OuterEmbedding | None":
    """Outer cycle of a 2-connected graph, or None if it is not outerplanar.

    Strategy (Mitchell 1979): delete degree-2 vertices, taken from a
    worklist, each bridging its neighbors with a virtual edge, down to a
    triangle; then re-insert them in reverse order into a doubly linked
    cycle, each between its two recorded neighbors.  In a 2-connected
    outerplanar graph every degree-2 vertex sits on the outer cycle between
    its neighbors and the reduced graph stays 2-connected outerplanar with
    the spliced outer cycle, so any elimination order works and the rebuild
    always finds the neighbors adjacent.  The final validation (cycle edges
    real, chords nested, checked by one stack pass) makes any failure mode
    return None instead of a wrong embedding.  Such a graph has exactly one
    Hamiltonian cycle; the result starts it at vertex 0 and walks toward
    the smaller neighbor of 0.
    """
    cycle = _outer_cycle({v: block.neighbor_set(v) for v in block.vertices()})
    if cycle is None:
        return None
    n = block.n
    i0 = cycle.index(0)
    cyc = cycle[i0:] + cycle[:i0]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    pos = {v: i for i, v in enumerate(cyc)}
    chords = tuple(e for e in block.edges() if (pos[e[0]] - pos[e[1]]) % n not in (1, n - 1))
    return OuterEmbedding(tuple(cyc), chords)


def is_outerplanar(g: Graph) -> bool:
    """Whole-graph outerplanarity: every block of every component embeds.

    An outerplanar graph on n >= 2 vertices has at most 2n - 3 edges, so a
    denser graph is rejected before any block is looked at.  Otherwise one
    Tarjan search over all components yields the blocks, each tested on its
    own edges: a bridge, or a cycle (as many edges as vertices), passes at
    once.
    """
    n = g.n
    if n >= 2 and g.m > 2 * n - 3:
        return False
    return all(_block_embeds(edges) for edges in _blocks(g, range(n), [-1] * n))


def _block_embeds(edges) -> bool:
    """Whether the block with this edge list is outerplanar: a bridge, or
    a cycle (as many edges as vertices), passes at once."""
    if len(edges) == 1:
        return True
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if len(edges) == len(adj):
        return True
    return len(edges) <= 2 * len(adj) - 3 and _outer_cycle(adj) is not None


# -- ears and ear chains ------------------------------------------------------


@dataclass(frozen=True)
class Ear:
    """Cycle root[0]-interior...-root[1]-root[0]; interior degrees are 2."""

    root: tuple[int, int]
    interior: tuple[int, ...]

    def vertices(self) -> tuple[int, ...]:
        return (self.root[0], *self.interior, self.root[1])

    def size(self) -> int:
        return len(self.interior) + 2

    def reversed(self) -> "Ear":
        return Ear((self.root[1], self.root[0]), tuple(reversed(self.interior)))

    def relabel(self, ids) -> "Ear":
        """The same ear with every vertex v renamed ids[v]."""
        return Ear((ids[self.root[0]], ids[self.root[1]]), tuple(ids[w] for w in self.interior))


@dataclass(frozen=True)
class EarChain:
    """Ears[i] has root edge (spine[i], spine[i+1]); spine[0]spine[-1] is an edge."""

    spine: tuple[int, ...]
    ears: tuple[Ear, ...]

    def vertices(self) -> tuple[int, ...]:
        seen = list(self.spine)
        for ear in self.ears:
            seen.extend(ear.interior)
        return tuple(sorted(seen))

    def reversed(self) -> "EarChain":
        return EarChain(
            tuple(reversed(self.spine)),
            tuple(e.reversed() for e in reversed(self.ears)),
        )

    def relabel(self, ids) -> "EarChain":
        """The same chain with every vertex v renamed ids[v]."""
        return EarChain(tuple(ids[v] for v in self.spine), tuple(e.relabel(ids) for e in self.ears))


def _check_ear(b: Graph, ear: Ear) -> None:
    u1, ur = ear.root
    if not b.has_edge(u1, ur):
        raise StructureError(f"ear root {ear.root} is not an edge")
    path = ear.vertices()
    for i in range(len(path) - 1):
        if not b.has_edge(path[i], path[i + 1]):
            raise StructureError(f"ear path breaks at {path[i]}-{path[i + 1]}")
    for w in ear.interior:
        if b.degree(w) != 2:
            raise StructureError(f"ear interior vertex {w} has degree {b.degree(w)}")
    if not ear.interior:
        raise StructureError("ear must have at least one interior vertex")


def _check_chain(b: Graph, chain: EarChain) -> None:
    s = len(chain.spine)
    if s < 3 or len(chain.ears) != s - 1:
        raise StructureError("malformed ear chain")
    if not b.has_edge(chain.spine[0], chain.spine[-1]):
        raise StructureError("ear chain root edge missing")
    for i, ear in enumerate(chain.ears):
        if ear.root != (chain.spine[i], chain.spine[i + 1]):
            raise StructureError("ear chain root edges do not follow the spine")
        _check_ear(b, ear)
    for v in chain.spine[1:-1]:
        if b.degree(v) != 4:
            raise StructureError(f"ear chain junction {v} has degree {b.degree(v)}")


def ear_is_good(b: Graph, ear: Ear, x: int) -> bool:
    """Goodness in the orientation the solver consumes: the root[1] endpoint
    has degree 3 and x avoids everything except possibly root[0]."""
    u1, ur = ear.root
    return b.degree(ur) == 3 and x != ur and x not in ear.interior


def chain_is_good(b: Graph, chain: EarChain, x: int) -> bool:
    ends = {chain.spine[0], chain.spine[-1]}
    return all(v in ends for v in chain.vertices() if v == x)


def _arc(order: tuple[int, ...], p: int, step: int, length: int) -> list[int]:
    """The `length` outer-cycle vertices after position p, walking by step."""
    n = len(order)
    return [order[(p + step * t) % n] for t in range(1, length + 1)]


def find_good_ear_or_chain(b: Graph, emb: OuterEmbedding, x: int) -> "Ear | EarChain":
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


# -- end-block classification --------------------------------------------------

KIND_K2 = "k2"
KIND_CYCLE = "cycle"
KIND_GOOD_EAR = "good_ear"
KIND_LONG_EAR = "long_ear"
KIND_EAR_CHAIN = "ear_chain"


@dataclass(frozen=True)
class EndBlockCase:
    """Which inductive step applies to the chosen end block, with its data,
    in host-graph vertex ids."""

    kind: str
    anchor: int
    pendant: "int | None" = None  # k2: the non-anchor vertex
    cycle_order: "tuple[int, ...] | None" = None  # cycle: order starting at anchor
    ear: "Ear | None" = None  # good_ear / long_ear
    chain: "EarChain | None" = None  # ear_chain

    def removed(self) -> tuple[int, ...]:
        """The vertices this step deletes from the graph: the pendant, the
        attached cycle minus its anchor (in cycle order), the ear interior
        (in ear order), or the chain minus its two ends (sorted)."""
        if self.kind == KIND_K2:
            return (self.pendant,)
        if self.kind == KIND_CYCLE:
            return self.cycle_order[1:]
        if self.kind == KIND_EAR_CHAIN:
            ends = (self.chain.spine[0], self.chain.spine[-1])
            return tuple(v for v in self.chain.vertices() if v not in ends)
        return self.ear.interior


@lru_cache(maxsize=65536)
def classify_end_block(g: Graph) -> EndBlockCase:
    """Choose an end block and anchor, and classify the inductive case.

    The graph must be connected, outerplanar, and have at least 4 vertices.
    The end block is the first of `block_decomposition(g).end_blocks()`;
    its anchor is its cut vertex, or its smallest vertex when it is the
    whole graph.  The result depends only on the graph, so it is cached.
    """
    if g.n < 4:
        raise ValueError("classification needs at least 4 vertices")
    decomp = block_decomposition(g)
    block = decomp.end_blocks()[0]
    in_block_cuts = [v for v in block if v in decomp.cut_vertices]
    anchor = in_block_cuts[0] if in_block_cuts else block[0]
    inside = set(block)
    return classify_block(block, [e for e in g.edges() if e[0] in inside and e[1] in inside], anchor)


def classify_block(block: tuple[int, ...], edges, anchor: int) -> EndBlockCase:
    """The inductive case of one end block peeled at `anchor`.

    `block` lists the block's vertices sorted and `edges` its edges, both
    in host ids.  Works in time linear in the block: only the block is
    built as a `Graph`, its vertices numbered in host order so that the
    embedding's rotation and every tie-break of the ear search follow the
    host ids.
    """
    if len(block) == 2:
        return EndBlockCase(KIND_K2, anchor, pendant=block[0] if block[1] == anchor else block[1])

    loc = {v: i for i, v in enumerate(block)}
    bsub = Graph(len(block), [(loc[u], loc[v]) for u, v in edges])
    emb = outer_embedding(bsub)
    if emb is None:
        raise StructureError("end block is not outerplanar")

    if bsub.m == bsub.n:  # 2-regular: the block is a cycle
        order = [block[v] for v in emb.order]
        i = order.index(anchor)
        return EndBlockCase(KIND_CYCLE, anchor, cycle_order=tuple(order[i:] + order[:i]))

    found = find_good_ear_or_chain(bsub, emb, loc[anchor])
    if isinstance(found, Ear):
        return EndBlockCase(KIND_GOOD_EAR, anchor, ear=found.relabel(block))

    chain = found.relabel(block)
    if anchor == chain.spine[-1]:
        chain = chain.reversed()
    last = chain.ears[-1]
    if last.size() >= 6:
        # the closing ear is long and free of the anchor: the long-ear
        # recoloring handles it without needing a degree-3 endpoint
        return EndBlockCase(KIND_LONG_EAR, anchor, ear=last)
    return EndBlockCase(KIND_EAR_CHAIN, anchor, chain=chain)
