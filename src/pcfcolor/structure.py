"""Structural analysis of outerplanar graphs.

Four layers, each feeding the next:

1. block/cut decomposition (any connected graph), by one iterative Tarjan
   depth-first search;
2. outer cycles of 2-connected blocks, found once, by the outerplanarity
   test (Mitchell 1979, "Linear algorithms to recognize outerplanar and
   maximal outerplanar graphs"; see `outer_embedding`);
3. the unavoidable substructures of 2-connected non-cycle outerplanar
   graphs: an *ear* (a cycle hanging off one chord, interior degrees 2) or
   an *ear chain* (ears whose root edges form a path v_1..v_s closed by the
   edge v_1 v_s, junction degrees 4), found "good" for a given anchor vertex
   x, meaning x avoids the part that gets recolored.  Every ear and chain is
   read from one ear table, built once per search over neighbor sets;
4. the peel (`peel`): layers 1 and 2 screen connectivity and
   outerplanarity, then end blocks are cut one at a time, each at its
   anchor and by its inductive case, and recorded as the flat arguments
   of its coloring step; `classify_end_block` is its first step.

Layers 1-3 take time linear in their input, up to sorting blocks and
chords.  The peel keeps each block's outer cycle (a bridge's edge) and,
for a block with chords, its neighbor sets from the first cut into it,
but a step still redoes the cycle filter, the embedding's normalization
and the ear search, in time linear in the block.  The ear search
follows a constructive proof: every branch ends in an assertion, and a
`StructureError` is a bug.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush

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


def _blocks(g: Graph, roots, disc: list[int]):
    """Tarjan's biconnected components, iteratively (no recursion limit).

    Runs one depth-first search from each root in `roots` that no earlier
    search reached (`disc[v]` is v's discovery time, -1 until then) and
    yields the edge list of each block as the search closes it.
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
                    yield block
        if estack:
            raise StructureError("leftover edges after block decomposition")


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks and cut vertices of a connected graph, from one Tarjan search;
    a graph that search does not cover raises ValueError.  The cut vertices
    are the vertices in two or more blocks."""
    if g.n == 0:
        return BlockDecomposition((), frozenset())
    disc = [-1] * g.n
    blocks = [tuple(sorted({v for e in edges for v in e})) for edges in _blocks(g, (0,), disc)]
    if -1 in disc:
        raise ValueError("block decomposition requires a connected graph")
    blocks.sort(key=lambda b: (b[0], len(b), b))
    count = Counter(v for b in blocks for v in b)
    return BlockDecomposition(tuple(blocks), frozenset(v for v, k in count.items() if k > 1))


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
    del work, removed, nxt, prv  # freed before the validation, or the two peak together
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
    cycle = _outer_cycle({v: block[v] for v in block.vertices()})
    return None if cycle is None else _embedding(cycle, block)


def _embedding(cycle: list[int], adj) -> OuterEmbedding:
    """`cycle` from its smallest vertex toward that vertex's smaller
    neighbor, with the chords (normalized, sorted) of `adj`, if not None."""
    n = len(cycle)
    i0 = cycle.index(min(cycle))
    cyc = cycle[i0:] + cycle[:i0]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    chords = () if adj is None else sorted(
        (u, v) for i, u in enumerate(cyc) if len(adj[u]) > 2
        for v in adj[u] - {cyc[i - 1], cyc[(i + 1) % n]} if u < v)
    return OuterEmbedding(tuple(cyc), tuple(chords))


def is_outerplanar(g: Graph) -> bool:
    """Whole-graph outerplanarity: every block of every component embeds.

    An outerplanar graph on n >= 2 vertices has at most 2n - 3 edges, so a
    denser graph is rejected at once; otherwise one Tarjan search over all
    components yields the blocks, each screened by `_block_embeds`.
    """
    n = g.n
    if n >= 2 and g.m > 2 * n - 3:
        return False
    return None not in map(_block_embeds, _blocks(g, range(n), [-1] * n))


def _block_embeds(edges) -> "list[int] | tuple[int, int] | None":
    """The one per-block screen, of `is_outerplanar` and the peel: the
    block's outer cycle (a bridge's edge, a cycle's walk), or None if it is
    not outerplanar.  Only a block with chords runs `_outer_cycle`."""
    if len(edges) == 1:
        return edges[0]
    adj = _adjacency(edges)
    if len(edges) == len(adj):
        return _walk(adj, list(edges[0]))
    return _outer_cycle(adj) if len(edges) <= 2 * len(adj) - 3 else None


def _adjacency(edges) -> dict[int, set[int]]:
    """The neighbor sets (vertex -> set) of the graph these edges form."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


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


def _check_ear(b, seq) -> None:  # seq: root[0], interior..., root[1]
    for i in range(len(seq)):  # i = 0 checks the root edge
        if seq[i - 1] not in b[seq[i]]:
            raise StructureError(f"ear cycle breaks at {seq[i - 1]}-{seq[i]}")
    for w in seq[1:-1]:
        if len(b[w]) != 2:
            raise StructureError(f"ear interior vertex {w} has degree {len(b[w])}")
    if len(seq) < 3:
        raise StructureError("ear must have at least one interior vertex")


def _check_chain(b, spine, ears) -> None:
    s = len(spine)
    if s < 3 or len(ears) != s - 1:
        raise StructureError("malformed ear chain")
    if spine[-1] not in b[spine[0]]:
        raise StructureError("ear chain root edge missing")
    for i, seq in enumerate(ears):
        if (seq[0], seq[-1]) != (spine[i], spine[i + 1]):
            raise StructureError("ear chain root edges do not follow the spine")
        _check_ear(b, seq)
    for v in spine[1:-1]:
        if len(b[v]) != 4:
            raise StructureError(f"ear chain junction {v} has degree {len(b[v])}")


def ear_is_good(b, ear: Ear, x: int) -> bool:
    """Goodness in the orientation the solver consumes: the root[1] endpoint
    has degree 3 and x avoids everything except possibly root[0]."""
    u1, ur = ear.root
    return len(b[ur]) == 3 and x != ur and x not in ear.interior


def chain_is_good(b, chain: EarChain, x: int) -> bool:
    return x in (chain.spine[0], chain.spine[-1]) or x not in chain.vertices()


def _arc(order: tuple[int, ...], p: int, step: int, length: int) -> list[int]:
    """The `length` outer-cycle vertices after position p, walking by step."""
    n = len(order)
    return [order[(p + step * t) % n] for t in range(1, length + 1)]


def find_good_ear_or_chain(b, emb: OuterEmbedding, x: int) -> "Ear | EarChain":
    """An ear or ear chain of b good for x.

    b maps each vertex to its neighbor set (a `Graph` qualifies) and must
    be 2-connected outerplanar and not a cycle.  Follows the existence
    proof: collect the root edges of ears (E1); if every chord is such a
    root edge, the graph they induce (G1) is a single cycle (yield the
    chain missing the ear containing x) or a forest of paths (yield the ear
    at a degree-1 endpoint avoiding x); otherwise pick the non-root chord
    uv spanning the fewest vertices on the side avoiding x and recurse into
    that span, where the root edges either form a u-v path (yield it as a
    chain) or again have a free endpoint (yield its ear).

    Each arc of a chord is judged from cycle positions alone: it is an ear
    arc iff its interior fits in the run of degree-2 vertices after its
    start, and it avoids x iff x's position falls outside it.  The ear arcs
    fill one table, `ears_by_edge`, and every ear returned, alone or in a
    chain, is read from it.  A root edge inside the span has exactly one
    ear there, the arc inside the span: its other arc passes u or v, which
    have degree 3 or more.
    """
    spine, ears = _good_ear_or_chain(b, emb, x)
    return _as_ear(ears[0]) if spine is None else EarChain(spine, tuple(map(_as_ear, ears)))


def _as_ear(seq) -> Ear:  # the ear of the vertex sequence root[0], interior..., root[1]
    return Ear((seq[0], seq[-1]), seq[1:-1])


def _good_ear_or_chain(b, emb: OuterEmbedding, x: int):
    """`find_good_ear_or_chain` with each ear as its vertex sequence root[0],
    interior..., root[1]: `(None, (ear,))`, or a chain's `(spine, ears)`."""
    order = emb.order
    n = len(order)
    pos = emb.position()
    chords = emb.chords
    if not chords:
        raise ValueError("cycle blocks have no ears; handle them separately")

    # run[i]: how many degree-2 vertices follow position i on the cycle;
    # a chord has an endpoint of degree 3 or more, where the count restarts
    run = [0] * n
    k = next(i for i in range(n) if len(b[order[i]]) != 2)
    for i in range(k - 1, k - n - 1, -1):
        j = (i + 1) % n
        run[i % n] = run[j] + 1 if len(b[order[j]]) == 2 else 0

    # the ear table: the ears of each root edge (u, v), as sequences from u to v
    ears_by_edge: dict[Edge, list[tuple[int, ...]]] = {}
    for u, v in chords:
        pu, pv = pos[u], pos[v]
        # the arc from u backward is the arc after v forward
        for step, length, start in ((1, (pv - pu) % n - 1, pu), (-1, (pu - pv) % n - 1, pv)):
            if 0 < length <= run[start]:
                ears_by_edge.setdefault((u, v), []).append((u, *_arc(order, pu, step, length), v))

    def _ear(a: int, c: int) -> tuple[int, ...]:
        # the single ear rooted at a-c, oriented from a to c
        ears = ears_by_edge[normalize_edge(a, c)]
        if len(ears) != 1:
            raise StructureError("chain root edge must have a unique ear")
        return ears[0] if ears[0][0] == a else ears[0][::-1]

    adj = _root_graph(ears_by_edge)
    if any(len(nb) > 2 for nb in adj.values()):
        raise StructureError("ear root edges meet 3+ times at a vertex")

    if len(ears_by_edge) == len(chords):  # every chord roots an ear
        if any(len(nb) == 1 for nb in adj.values()):
            return _ear_at_free_endpoint(b, x, adj, ears_by_edge, banned=())
        # the root edges close a cycle and their ears tile the outer cycle:
        # drop the ear holding x and chain the rest
        start = min(adj)
        cycle = _walk(adj, [start, min(adj[start])])
        if len(cycle) != len(adj):
            raise StructureError("root-edge cycle is disconnected")
        ell = len(cycle)
        holders = (i for i in range(ell) if x in _ear(cycle[i], cycle[(i + 1) % ell]))
        j = next(holders, None)
        if j is None:
            raise StructureError("anchor missing from every ear of the tiling")
        return _chain(b, cycle[j + 1 :] + cycle[: j + 1], _ear, x)

    # some chord roots no ear: shrink to the smallest span avoiding x.
    # Chords differ, so (span, chord) decides; only the winner's arcs are built
    px = pos[x]
    best: "tuple[tuple[int, Edge], list[tuple[int, int]]] | None" = None
    for u, v in (e for e in chords if e not in ears_by_edge):
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
    span = {u, v, *arc}
    inner = [e for e in chords if e != (u, v) and e[0] in span and e[1] in span]
    if any(e not in ears_by_edge for e in inner):
        raise StructureError("minimal span contains a non-root chord")
    if not inner:
        raise StructureError("non-root chord spans no root edges")

    adj = _root_graph(inner)
    if len(adj.get(u, ())) == 1:
        spine = _walk(adj, [u, adj[u][0]])
        if spine[-1] == v and len(spine) == len(adj):  # a u-v path through the span
            return _chain(b, spine, _ear, x)
    return _ear_at_free_endpoint(b, x, adj, ears_by_edge, banned=(u, v))


def _root_graph(edges) -> dict[int, list[int]]:
    """Adjacency lists of the graph that these root edges form."""
    adj: dict[int, list[int]] = {}
    for a, c in edges:
        adj.setdefault(a, []).append(c)
        adj.setdefault(c, []).append(a)
    return adj


def _walk(adj, path: list[int]) -> list[int]:
    """Extend `path`, which starts with two adjacent vertices of a graph of
    degree at most 2, until it reaches a dead end or comes back to its
    start."""
    while True:
        nxt = [w for w in adj[path[-1]] if w != path[-2]]
        if not nxt or nxt[0] == path[0]:
            return path
        path.append(nxt[0])


def _chain(b, spine, ear, x):
    """`(spine, ears)`: the ear chain along `spine`, with the ear `ear(a,
    c)` on each of its edges, checked and good for x."""
    ears = tuple(map(ear, spine, spine[1:]))
    _check_chain(b, spine, ears)
    if x not in (spine[0], spine[-1]) and any(x in seq for seq in ears):
        raise StructureError("ear chain is not good for the anchor")
    return tuple(spine), ears


def _ear_at_free_endpoint(b, x, adj, ears_by_edge, banned):
    # a root edge of `adj` with a degree-1 endpoint (not on the enclosing
    # chord) gives a good ear: that endpoint has block degree 3 and becomes
    # the far end u_r, while x may only coincide with the near end u_1
    candidates = []
    for a, c in sorted((a, c) for a in adj for c in adj[a] if a < c):
        for far, near in ((a, c), (c, a)):
            if len(adj[far]) != 1 or far in banned:
                continue
            if len(b[far]) != 3:
                raise StructureError(f"free endpoint {far} has degree {len(b[far])}")
            for ear in ears_by_edge[a, c]:
                oriented = ear if ear[0] == near else ear[::-1]
                _check_ear(b, oriented)
                if x not in oriented[1:]:  # good, as far has degree 3
                    candidates.append(oriented)
    if not candidates:
        raise StructureError("no good ear at any free endpoint")
    return None, (min(candidates, key=lambda e: (sorted((e[0], e[-1])), len(e), e[1:-1])),)


# -- end-block classification --------------------------------------------------

KIND_K2 = "k2"
KIND_CYCLE = "cycle"
KIND_GOOD_EAR = "good_ear"
KIND_LONG_EAR = "long_ear"
KIND_EAR_CHAIN = "ear_chain"


@dataclass(frozen=True)
class EndBlockCase:
    """Which inductive step applies to the chosen end block, with its data,
    in host-graph vertex ids: a peel record as `end_block_case` reads it."""

    kind: str
    anchor: int
    pendant: "int | None" = None  # k2: the non-anchor vertex
    cycle_order: "tuple[int, ...] | None" = None  # cycle: order starting at anchor
    ear: "Ear | None" = None  # good_ear / long_ear
    chain: "EarChain | None" = None  # ear_chain


def end_block_case(record) -> EndBlockCase:
    """The `EndBlockCase` of a peel record, the one place that builds one.

    A record is `(kind, anchor, args)`, with `args` the flat arguments of
    the solver's step for that kind; the step removes `args[-1]`, or the
    pendant of a pendant edge.  By kind, `args` are: KIND_K2, (pendant,
    anchor); KIND_CYCLE, (anchor, cycle length, the cycle after the anchor);
    KIND_GOOD_EAR and KIND_LONG_EAR, (the ear u_1..u_r, its interior);
    KIND_EAR_CHAIN, (spine, the ears before the closing one as vertex
    sequences, the closing ear's interior, the chain minus its ends, sorted).
    """
    kind, anchor, args = record
    if kind == KIND_K2:
        return EndBlockCase(kind, anchor, pendant=args[0])
    if kind == KIND_CYCLE:
        return EndBlockCase(kind, anchor, cycle_order=(anchor, *args[-1]))
    if kind == KIND_EAR_CHAIN:
        spine, firsts, last, _ = args
        chain = EarChain(spine, (*map(_as_ear, firsts), Ear(spine[-2:], last)))
        return EndBlockCase(kind, anchor, chain=chain)
    return EndBlockCase(kind, anchor, ear=_as_ear(args[0]))


@lru_cache(maxsize=65536)
def classify_end_block(g: Graph) -> EndBlockCase:
    """The first record of `peel(g)`, through `end_block_case`: the end
    block it cuts first, at its anchor, and the inductive case it falls in.

    The graph must be connected, outerplanar, and have at least 4 vertices;
    anything else raises ValueError.  A whole-graph cycle, which the peel
    does not cut, gives its cycle case anchored at vertex 0.  The result
    depends only on the graph, so it is cached.
    """
    if g.n < 4:
        raise ValueError("classification needs at least 4 vertices")
    reason, records, rest = peel(g)
    if reason is not None:
        raise ValueError(f"classification needs a connected outerplanar graph, not {reason}")
    return end_block_case(records[0] if records else classify_block(None, rest, rest[0]))


def classify_block(b, cycle, anchor: int) -> tuple:
    """The peel record `(kind, anchor, args)` of one 2-connected end block
    peeled at `anchor`: its inductive case and the step's flat arguments.

    `cycle` is the block's outer cycle, from any vertex either way round,
    and `b` its neighbor sets, or None if it has no chords: all the peel
    keeps of a block, in host ids.  A call redoes the normalization, the
    chord filter and the ear search, in time linear in the block, and its
    tie-breaks follow the order of the ids, so it needs no renaming.
    """
    emb = _embedding(cycle, b)

    if not emb.chords:  # the block is a cycle
        i = emb.order.index(anchor)
        return KIND_CYCLE, anchor, (anchor, len(emb.order), emb.order[i + 1:] + emb.order[:i])

    spine, ears = _good_ear_or_chain(b, emb, anchor)
    if spine is None:
        return KIND_GOOD_EAR, anchor, (ears[0], ears[0][1:-1])

    if anchor == spine[-1]:
        spine, ears = spine[::-1], tuple(seq[::-1] for seq in reversed(ears))
    last = ears[-1]
    if len(last) >= 6:
        # the closing ear is long and free of the anchor: the long-ear
        # recoloring handles it without needing a degree-3 endpoint
        return KIND_LONG_EAR, anchor, (last, last[1:-1])
    removed = tuple(sorted((*spine[1:-1], *(v for seq in ears for v in seq[1:-1]))))
    return KIND_EAR_CHAIN, anchor, (spine, ears[:-1], last[1:-1], removed)


# -- the peel ----------------------------------------------------------------

REASON_DISCONNECTED = "Disconnected"
REASON_NOT_OUTERPLANAR = "NotOuterplanar"


def peel(g: Graph) -> "tuple[str | None, tuple[tuple, ...], tuple[int, ...]]":
    """Screen a graph, then peel it down to at most 3 vertices or a whole
    cycle; returns the reason a screen failed (or None), the step records
    `(kind, anchor, args)` in peel order, `args` being the solver's step
    arguments (see `end_block_case`), and the remaining vertices (sorted,
    or in cycle order), all in host ids and immutable.

    One Tarjan search from vertex 0 screens connectivity and yields the
    blocks, each screened by `_block_embeds` as it comes: a connected graph
    is outerplanar iff every block embeds.  A block is then its outer cycle
    (a bridge, its edge); a block with chords also keeps its edge list until
    the first step cuts into it, and from then its neighbor sets, shrunk in
    place; a step redoes the cycle filter, the normalization and the ear
    search.  The block tree is flat: per vertex, the number of its live
    blocks and, for a cut vertex, the sum of their indices, which is the
    one block left once the number is 1; per block, the number of its cut
    vertices.  End blocks wait in a heap, one entry each, keyed (smallest
    vertex, size, second smallest), the order of
    `BlockDecomposition.end_blocks()`, as two blocks share at most one
    vertex.  The anchor is the block's one cut vertex, or its smallest
    vertex once it is the only block left; no step removes its anchor.  A
    pendant or cycle step deletes its block, which can only turn the anchor
    into an inner vertex of its one other block; an ear or chain step
    removes vertices of no other block and leaves the rest of its block
    2-connected, so only that block's key changes.
    """
    n = g.n
    disc = [-1] * n
    cycles = []  # each block's outer cycle, or a bridge's edge
    adjs = []  # a block with chords: its edge list until the first cut, then its neighbor sets
    for edges in _blocks(g, (0,) if n else (), disc):
        cycles.append(cycle := _block_embeds(edges))
        adjs.append(edges if cycle is not None and len(edges) > len(cycle) else None)
    if -1 in disc:
        return REASON_DISCONNECTED, (), ()
    if None in cycles:
        return REASON_NOT_OUTERPLANAR, (), ()
    count = [0] * n  # live blocks at each vertex
    for cycle in cycles:
        for v in cycle:
            count[v] += 1
    within = [0] * n  # the sum of the indices of the live blocks at a cut vertex
    ncut = [0] * len(cycles)  # cut vertices in each block
    for i, cycle in enumerate(cycles):
        for v in cycle:
            if count[v] > 1:
                within[v] += i
                ncut[i] += 1
    heap = [_key(cycle, i) for i, cycle in enumerate(cycles) if ncut[i] <= 1]
    heapify(heap)
    gone = bytearray(n)
    left = n
    records = []
    while left > 3:
        first, size, _, i = heappop(heap)
        cycle = cycles[i]
        anchor = next((v for v in cycle if count[v] > 1), first)
        if size == 2:
            cut = (cycle[0] if cycle[1] == anchor else cycle[1],)
            record = KIND_K2, anchor, (cut[0], anchor)
        else:
            if isinstance(adjs[i], list):  # the first cut into a block with chords
                adjs[i] = _adjacency(adjs[i])
            record = classify_block(adjs[i], cycle, anchor)
            cut = record[2][-1]
            if record[0] == KIND_CYCLE and size == left:
                return None, tuple(records), (anchor, *cut)
        records.append(record)
        left -= len(cut)
        for v in cut:
            gone[v] = 1
        if record[0] in (KIND_K2, KIND_CYCLE):
            cycles[i] = adjs[i] = None
            count[anchor] -= 1
            within[anchor] -= i
            if count[anchor] == 1:
                j = within[anchor]  # the one block left at the anchor
                ncut[j] -= 1
                if ncut[j] == 1:  # it has just become an end block
                    heappush(heap, _key(cycles[j], j))
        else:
            for v in cut:  # shrink the neighbor sets by what went
                for w in adjs[i].pop(v):
                    if not gone[w]:
                        adjs[i][w].discard(v)
            cycles[i] = cycle = [v for v in cycle if not gone[v]]  # the smaller block's outer cycle
            heappush(heap, _key(cycle, i))
    return None, tuple(records), tuple(v for v in range(n) if not gone[v])


def _key(cycle, i: int) -> tuple[int, int, int, int]:  # block i's heap entry
    first, second = sorted(cycle)[:2]
    return first, len(cycle), second, i
