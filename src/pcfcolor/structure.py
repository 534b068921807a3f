"""Structural analysis of outerplanar graphs.

Three layers, each feeding the next:

1. block/cut decomposition (any connected graph),
2. outer-cycle embeddings of 2-connected blocks, which double as the
   outerplanarity test,
3. the unavoidable substructures of 2-connected non-cycle outerplanar
   graphs: an *ear* (a cycle hanging off one chord, interior degrees 2) or
   an *ear chain* (ears whose root edges form a path v_1..v_s closed by the
   edge v_1 v_s, junction degrees 4), found "good" for a given anchor
   vertex x, meaning x avoids the part that gets recolored.

The search in `find_good_ear_or_chain` follows a constructive existence
proof, so every branch ends in an assertion rather than a failure path;
a `StructureError` here means a bug, not an unlucky input.
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


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Tarjan's biconnected components, iteratively (no recursion limit)."""
    if not g.is_connected():
        raise ValueError("block decomposition requires a connected graph")
    n = g.n
    if n == 0 or g.m == 0:
        return BlockDecomposition((), frozenset())
    disc = [-1] * n
    low = [0] * n
    cuts: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    estack: list[Edge] = []
    timer = 0
    root = 0
    disc[root] = low[root] = timer
    timer += 1
    stack: list[tuple[int, int, object]] = [(root, -1, iter(g.neighbors(root)))]
    root_children = 0
    while stack:
        v, parent, it = stack[-1]
        advanced = False
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
                advanced = True
                break
            if disc[w] < disc[v]:
                estack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if advanced:
            continue
        stack.pop()
        if not stack:
            break
        u = stack[-1][0]
        if low[v] < low[u]:
            low[u] = low[v]
        if low[v] >= disc[u]:
            verts: set[int] = set()
            while True:
                e = estack.pop()
                verts.add(e[0])
                verts.add(e[1])
                if e == (u, v):
                    break
            blocks.append(tuple(sorted(verts)))
            if u != root:
                cuts.add(u)
    if estack:
        raise StructureError("leftover edges after block decomposition")
    if root_children >= 2:
        cuts.add(root)
    blocks.sort(key=lambda b: (b[0], len(b), b))
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


# -- outer embeddings of 2-connected blocks ----------------------------------


@dataclass(frozen=True)
class OuterEmbedding:
    order: tuple[int, ...]  # Hamiltonian outer cycle
    chords: tuple[Edge, ...]  # edges not on the cycle, normalized and sorted

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def _validated(b: Graph, cycle: list[int]) -> "OuterEmbedding | None":
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
    # canonical rotation: start at vertex 0, walk toward its smaller neighbor
    i0 = cycle.index(0)
    cyc = cycle[i0:] + cycle[:i0]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    order = tuple(cyc)
    chord_edges = tuple(
        sorted(normalize_edge(u, v) for u, v in b.edges() if (pos[u] - pos[v]) % n not in (1, n - 1))
    )
    return OuterEmbedding(order, chord_edges)


def outer_embedding(block: Graph) -> "OuterEmbedding | None":
    """Outer cycle of a 2-connected graph, or None if it is not outerplanar.

    Strategy: repeatedly delete a degree-2 vertex, bridging its neighbors
    with a virtual edge, down to a triangle; then re-insert in reverse
    order, each vertex between its two recorded neighbors.  In a
    2-connected outerplanar graph every degree-2 vertex sits on the outer
    cycle between its neighbors and the reduced graph stays 2-connected
    outerplanar with the spliced outer cycle, so the rebuild always finds
    the neighbors adjacent.  The final validation (cycle edges real, chords
    pairwise non-crossing) makes any failure mode return None instead of a
    wrong embedding.
    """
    n = block.n
    if n < 3:
        return None
    adj = [set(block.neighbors(v)) for v in range(n)]
    alive = set(range(n))
    removed: list[tuple[int, int, int]] = []
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
    return _validated(block, cycle)


def is_outerplanar(g: Graph) -> bool:
    """Whole-graph outerplanarity: every block of every component embeds.

    An outerplanar graph on n >= 2 vertices has at most 2n - 3 edges, so a
    denser graph is rejected before any block is looked at.
    """
    if g.n >= 2 and g.m > 2 * g.n - 3:
        return False
    comps = g.connected_components()
    for comp in comps:
        sub = g if len(comps) == 1 else g.subgraph(comp)[0]
        for block in block_decomposition(sub).blocks:
            if len(block) < 3:
                continue
            bsub, _ = sub.subgraph(block)
            if outer_embedding(bsub) is None:
                return False
    return True


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


def _arc_interiors(order: tuple[int, ...], pos: dict[int, int], u: int, v: int):
    """Both outer-cycle arcs from u to v, as interior vertex lists in walk order."""
    n = len(order)
    pu, pv = pos[u], pos[v]
    fwd = [order[(pu + t) % n] for t in range(1, (pv - pu) % n)]
    bwd = [order[(pu - t) % n] for t in range(1, (pu - pv) % n)]
    return fwd, bwd


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
    """
    pos = emb.position()
    chords = set(emb.chords)
    if not chords:
        raise ValueError("cycle blocks have no ears; handle them separately")

    ears_by_edge: dict[Edge, list[Ear]] = {}
    for u, v in sorted(chords):
        for arc in _arc_interiors(emb.order, pos, u, v):
            if arc and all(b.degree(w) == 2 for w in arc):
                ears_by_edge.setdefault((u, v), []).append(Ear((u, v), tuple(arc)))
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

    # some chord roots no ear: shrink to the smallest span avoiding x
    best: "tuple[int, Edge, list[int]] | None" = None
    for u, v in sorted(chords - e1):
        arcs = [a for a in _arc_interiors(emb.order, pos, u, v) if x not in a]
        if not arcs:
            raise StructureError("anchor interior to both arcs of one chord")
        arc = min(arcs, key=lambda a: (len(a), a))
        key = (len(arc) + 2, (u, v), arc)
        if best is None or key < best:
            best = key
    span, (u, v), arc = best
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
    """Which inductive step applies to the chosen end block, with its data.

    All vertex ids refer to the host graph (the one passed to
    classify_end_block), not to the block subgraph.
    """

    kind: str
    block: tuple[int, ...]
    anchor: int
    pendant: "int | None" = None  # k2: the non-anchor vertex
    cycle_order: "tuple[int, ...] | None" = None  # cycle: order starting at anchor
    ear: "Ear | None" = None  # good_ear / long_ear
    chain: "EarChain | None" = None  # ear_chain

    def relabel(self, ids) -> "EndBlockCase":
        """The same case with every vertex v renamed ids[v]."""
        return EndBlockCase(
            self.kind,
            tuple(ids[v] for v in self.block),
            ids[self.anchor],
            pendant=None if self.pendant is None else ids[self.pendant],
            cycle_order=None if self.cycle_order is None else tuple(ids[v] for v in self.cycle_order),
            ear=None if self.ear is None else self.ear.relabel(ids),
            chain=None if self.chain is None else self.chain.relabel(ids),
        )

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
    The result depends only on the graph, never on color lists, so it is
    cached; the peels of different graphs that reach the same remaining
    graph share its classification.
    """
    if g.n < 4:
        raise ValueError("classification needs at least 4 vertices")
    decomp = block_decomposition(g)
    block = decomp.end_blocks()[0]
    in_block_cuts = [v for v in block if v in decomp.cut_vertices]
    anchor = in_block_cuts[0] if in_block_cuts else block[0]

    if len(block) == 2:
        pendant = block[0] if block[1] == anchor else block[1]
        return EndBlockCase(KIND_K2, block, anchor, pendant=pendant)

    bsub, ids = g.subgraph(block)
    loc = {old: new for new, old in enumerate(ids)}
    emb = outer_embedding(bsub)
    if emb is None:
        raise StructureError("end block is not outerplanar")

    if bsub.m == bsub.n:  # 2-regular: the block is a cycle
        order = [ids[v] for v in emb.order]
        i = order.index(anchor)
        rotated = tuple(order[i:] + order[:i])
        return EndBlockCase(KIND_CYCLE, block, anchor, cycle_order=rotated)

    found = find_good_ear_or_chain(bsub, emb, loc[anchor])
    if isinstance(found, Ear):
        return EndBlockCase(KIND_GOOD_EAR, block, anchor, ear=found.relabel(ids))

    chain = found.relabel(ids)
    if anchor == chain.spine[-1]:
        chain = chain.reversed()
    last = chain.ears[-1]
    if last.size() >= 6:
        # the closing ear is long and free of the anchor: the long-ear
        # recoloring handles it without needing a degree-3 endpoint
        return EndBlockCase(KIND_LONG_EAR, block, anchor, ear=last)
    return EndBlockCase(KIND_EAR_CHAIN, block, anchor, chain=chain)
