"""Constructive proper conflict-free coloring of outerplanar graphs.

Every connected outerplanar graph except one obstruction family admits a
proper coloring from lists of size degree+2 in which each non-isolated
vertex sees some color exactly once in its neighborhood.  `solve` builds
such a coloring the way the induction proves it exists: peel an end
block, color the rest, then extend the coloring over the block, by case:
a pendant edge, an attached cycle, a good ear, a long ear, or an ear
chain.  It runs as two loops, not as recursion.  The peel pass records
the case of each end block in turn until at most 3 vertices or a whole
cycle remain; the coloring pass colors that base and then walks the
recorded cases backwards over the host graph, filling one coloring
through `_Pass.put`, its only write, and recording each step through
`_Pass.close`.  So `solve` has no recursion-depth limit.  Which end
block is peeled, and which case fires, depend on the graph alone, so the
graph-only pass (connectivity and outerplanarity screens plus the peel)
is cached per graph up to `STRUCTURE_CACHE_MAX_N` vertices; a repeated
graph pays only for the list work: list-size screens, color
reservations, the coloring pass and the final verification.  The
graph-only pass makes one block decomposition, then peels over a block
tree kept up to date in place; each step works in time linear in its end
block.  So a graph's first solve takes time linear in the number of
vertices, apart from the work inside one large block, which is quadratic
in that block (a fan or a strip triangulation).  The coloring pass takes
time linear in each step, plus one `unique_colors` walk of the step's
anchor adjacency, so it is quadratic on a high-degree anchor (the hub of
a fan).  The only true obstruction among connected outerplanar inputs is
the 5-cycle whose five lists are one identical 4-set.

Colors are chosen by minimum value at every free choice, so the output is
deterministic.  A `SolveResult` carries either a verified coloring or an
`Obstruction`, plus a trace of case steps that replays to the coloring.

`color_cycle`, `color_constrained_path` and `extend_ear` are the reusable
pieces of the induction and are exposed for direct use; each enforces its
own list-size preconditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush

from . import kernel  # kernel.unique_colors is looked up at call time, where the benchmark hooks it
from .graphs import Graph, cycle_graph, path_graph
from .kernel import Coloring, ListAssignment, verify
from .structure import (
    KIND_CYCLE,
    KIND_EAR_CHAIN,
    KIND_GOOD_EAR,
    KIND_K2,
    KIND_LONG_EAR,
    EndBlockCase,
    _block_embeds,
    _blocks,
    classify_block,
)
# not called here: imported so that the benchmark's hooks on solver.<name> resolve
from .structure import classify_end_block, is_outerplanar  # noqa: F401

REASON_C5_UNIFORM = "IsC5Uniform"
REASON_NOT_OUTERPLANAR = "NotOuterplanar"
REASON_LIST_TOO_SMALL = "ListTooSmall"
REASON_DISCONNECTED = "Disconnected"


@dataclass(frozen=True)
class Obstruction:
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class TraceStep:
    """One inductive step: which case fired, which vertices it removed from
    the remaining graph, and the colors it assigned (host-graph ids)."""

    case: str
    removed: tuple[int, ...]
    colors: dict[int, int]

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "removed": list(self.removed),
            "colors": {str(v): c for v, c in sorted(self.colors.items())},
        }


@dataclass(frozen=True)
class SolveResult:
    coloring: "Coloring | None"
    obstruction: "Obstruction | None"
    trace: tuple[TraceStep, ...]

    @property
    def ok(self) -> bool:
        return self.coloring is not None


class SolverInternalError(Exception):
    """A case invariant failed; indicates a bug, never a legal-input outcome."""

    def __init__(self, message: str, trace: tuple = ()):
        super().__init__(message)
        self.trace = tuple(trace)


def trace_to_json_lines(trace) -> str:
    return "".join(json.dumps(step.to_json(), sort_keys=True) + "\n" for step in trace)


def trace_from_json_lines(text: str) -> tuple[TraceStep, ...]:
    steps = []
    for line in text.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        steps.append(
            TraceStep(
                doc["case"],
                tuple(doc["removed"]),
                {int(v): c for v, c in doc["colors"].items()},
            )
        )
    return tuple(steps)


def replay_trace(n: int, trace) -> Coloring:
    """Union of the per-step assignments; each vertex must appear once."""
    out: Coloring = [None] * n
    for step in trace:
        for v, c in step.colors.items():
            if out[v] is not None:
                raise ValueError(f"trace colors vertex {v} twice")
            out[v] = c
    return out


def trim_lists(g: Graph, lists, k: int = 2) -> ListAssignment:
    """Cut each vertex list to its degree+k smallest colors.

    Optional preprocessing: the solver never needs it, and it can lose
    solutions at the margin.  In particular a colorable 5-cycle whose lists
    share the same 4 smallest colors becomes the uniform obstruction after
    trimming.
    """
    la = lists if isinstance(lists, ListAssignment) else ListAssignment(lists)
    if len(la) != g.n:
        raise ValueError(f"graph has {g.n} vertices but {len(la)} lists given")
    return ListAssignment(
        [frozenset(sorted(la[v])[: g.degree(v) + k]) for v in range(g.n)]
    )


# -- reusable coloring lemmas --------------------------------------------------


def _min_excluding(pool: frozenset, forbidden, what: str) -> int:
    avail = pool - forbidden
    if not avail:
        raise SolverInternalError(f"no color available for {what}")
    return min(avail)


# the self-checks of color_cycle and color_constrained_path share one graph
# per length instead of building it on every call
_cycle_graph = lru_cache(maxsize=64)(cycle_graph)
_path_graph = lru_cache(maxsize=64)(path_graph)


def color_cycle(lists) -> "list[int] | Obstruction":
    """Conflict-free coloring of a cycle, lists indexed along the cycle.

    Every list must have at least 4 colors.  Returns an Obstruction exactly
    when the cycle has length 5 and all five lists are the same 4-set; that
    single family admits no such coloring.
    """
    ls = [frozenset(x) for x in lists]
    ell = len(ls)
    if ell < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if any(len(x) < 4 for x in ls):
        raise ValueError("cycle coloring needs at least degree+2 = 4 colors per vertex")

    phi: list[int]
    if ell <= 4:
        phi = []
        for x in ls:  # rainbow: at most 3 prior colors against 4 choices
            phi.append(_min_excluding(x, set(phi), "cycle vertex"))
    elif all(x == ls[0] for x in ls):
        pal = sorted(ls[0])
        if ell == 5:
            if len(pal) == 4:
                return Obstruction(
                    REASON_C5_UNIFORM,
                    "5-cycle with all lists equal to one 4-element set",
                )
            phi = pal[:5]
        else:
            a, b, c, d = pal[:4]
            rem = ell % 3
            if rem == 0:
                phi = [a, b, c] * (ell // 3)
            elif rem == 1:
                phi = [a, b, c] * ((ell - 4) // 3) + [a, b, c, d]
            else:  # ell >= 8
                phi = [a, b, c] * ((ell - 8) // 3) + [a, b, c, d, a, b, c, d]
    else:
        # some neighboring pair has a list difference; rotate so it spans
        # the wrap-around edge, then color the path between greedily
        found = None
        for i in range(ell):
            for step in (1, -1):
                if ls[i] - ls[(i + step) % ell]:
                    found = (i, step)
                    break
            if found:
                break
        if found is None:
            raise SolverInternalError("unequal lists with no adjacent difference")
        i0, step = found
        order = [(i0 - step * t) % ell for t in range(ell)]
        lw = [ls[v] for v in order]
        alpha = min(lw[0] - lw[ell - 1])
        w = [0] * ell
        w[0] = alpha
        w[1] = _min_excluding(lw[1], {alpha}, "cycle vertex")
        for t in range(2, ell - 2):
            w[t] = _min_excluding(lw[t], {w[t - 2], w[t - 1]}, "cycle vertex")
        w[ell - 2] = _min_excluding(
            lw[ell - 2], {w[ell - 4], w[ell - 3], alpha}, "cycle vertex"
        )
        w[ell - 1] = _min_excluding(
            lw[ell - 1], {w[ell - 3], w[ell - 2], w[1]}, "cycle vertex"
        )
        phi = [0] * ell
        for t, v in enumerate(order):
            phi[v] = w[t]

    verdict = verify(_cycle_graph(ell), list(phi), ListAssignment(ls))
    if not verdict.ok:
        raise SolverInternalError("cycle coloring failed verification")
    return list(phi)


def color_constrained_path(lists) -> list[int]:
    """Conflict-free coloring of a path under tight end constraints.

    For a path p_0..p_s with s >= 3 the list sizes must be at least
    2, 3, 4, ..., 4, 3, 2.  The coloring is proper and every vertex keeps a
    color that is unique in its path neighborhood, so it composes with an
    already-colored host graph whose excluded colors were stripped from the
    end lists beforehand.
    """
    ls = [frozenset(x) for x in lists]
    s = len(ls) - 1
    if s < 3:
        raise ValueError("the path must have at least 4 vertices")
    need = [2] + [3] + [4] * (s - 3) + [3] + [2]
    for i, (x, k) in enumerate(zip(ls, need)):
        if len(x) < k:
            raise ValueError(f"path vertex {i} needs {k} colors, has {len(x)}")

    # from the far end inward: fix the end to its smallest color and strip
    # that color from the two vertices adjacent or at distance 2, which
    # leaves the shorter prefix path with lists of the required sizes
    work = list(ls)
    for k in range(s, 3, -1):
        alpha = min(work[k])
        work[k - 1] = work[k - 1] - {alpha}
        work[k - 2] = work[k - 2] - {alpha}
    phi = _path_base(work) + [min(work[k]) for k in range(4, s + 1)]

    verdict = verify(_path_graph(s + 1), phi, ListAssignment(ls))
    if not verdict.ok:
        raise SolverInternalError("path coloring failed verification")
    return phi


def _path_base(ls) -> list[int]:
    # 4 vertices; work inside trimmed lists of sizes 2, 3, 3, 2
    a2 = frozenset(sorted(ls[0])[:2])
    b3 = frozenset(sorted(ls[1])[:3])
    c3 = frozenset(sorted(ls[2])[:3])
    d2 = frozenset(sorted(ls[3])[:2])
    common = a2 & d2
    if common:
        a = min(common)
        p1 = _min_excluding(b3, {a}, "path vertex 1")
        p2 = _min_excluding(c3, {a, p1}, "path vertex 2")
        return [a, p1, p2, a]
    # ends disjoint: one end color can dodge the 3-set of its neighbor
    beta = _min_excluding(a2 | d2, b3, "path end")
    if beta in a2:
        p3 = min(d2)
        p2 = _min_excluding(c3, {beta, p3}, "path vertex 2")
        p1 = _min_excluding(b3, {beta, p2, p3}, "path vertex 1")
        return [beta, p1, p2, p3]
    p0 = min(a2)
    p2 = _min_excluding(c3, {beta, p0}, "path vertex 2")
    p1 = _min_excluding(b3, {p0, p2}, "path vertex 1")
    return [p0, p1, p2, beta]


def extend_ear(host: Graph, colors, ear_vertices, lists) -> Coloring:
    """Color the interior of an ear of `host` on top of a partial coloring.

    `ear_vertices` lists the ear cycle u_1..u_r in path order; u_1 and u_r
    must already be colored, the interior not.  u_1 must have a colored
    neighbor, and either some color appears exactly once around u_1 or all
    its colored neighbors agree.  The extension is proper and leaves every
    vertex of the ear except u_r with a unique neighborhood color; interior
    lists need at least 4 colors.
    """
    seq = list(ear_vertices)
    if len(seq) < 3:
        raise ValueError("an ear has at least 3 vertices")
    ls = lists.lists if isinstance(lists, ListAssignment) else tuple(frozenset(x) for x in lists)
    p = _Pass(host, ls, list(colors))
    _extend_ear(p, seq, "EarExtension", ())
    return p.colors


class _Pass:
    """One coloring pass over the host graph: `put` is its only write into
    `colors`, `close` records the colors put since the last one as a trace
    step, and `fail` builds every error with the steps closed so far."""

    __slots__ = ("g", "lists", "colors", "trace", "step")

    def __init__(self, g: Graph, lists, colors: Coloring):
        self.g = g
        self.lists = lists
        self.colors = colors
        self.trace: list[TraceStep] = []
        self.step: dict[int, int] = {}

    def put(self, v: int, c: int) -> None:
        if self.colors[v] is not None:
            raise self.fail(f"vertex {v} is already colored")
        self.colors[v] = c
        self.step[v] = c

    def close(self, tag: str, removed: tuple) -> None:
        self.trace.append(TraceStep(tag, removed, self.step))
        self.step = {}

    def pick(self, pool: frozenset, forbidden, what: str) -> int:
        """The smallest color of `pool` not in `forbidden`."""
        avail = pool - forbidden
        if not avail:
            raise self.fail(f"no color available for {what}")
        return min(avail)

    def unique(self, v: int, what: str) -> int:
        """The smallest color seen exactly once around `v`."""
        kept = kernel.unique_colors(self.g, self.colors, v)
        if not kept:
            raise self.fail(f"no unique neighborhood color at {what}")
        return min(kept)

    def fail(self, message: str) -> SolverInternalError:
        return SolverInternalError(message, self.trace)


def _extend_ear(p: _Pass, seq, tag: str, removed: tuple) -> None:
    colors = p.colors
    r = len(seq)
    u1, ur = seq[0], seq[-1]
    c1, cr = colors[u1], colors[ur]
    if c1 is None or cr is None:
        raise p.fail("ear root must be colored before extension")
    kept = kernel.unique_colors(p.g, colors, u1)
    if kept:
        c2 = min(kept)
    else:
        palette = {colors[w] for w in p.g.neighbors(u1) if colors[w] is not None}
        if len(palette) != 1:
            raise p.fail("ear extension needs a unique or unanimous color at the near root")
        c2 = next(iter(palette))
    for i in range(2, r):  # cycle positions u_2 .. u_{r-1}
        v = seq[i - 1]
        if i == 2:
            forb = {c1, c2}
        else:
            forb = {colors[seq[i - 2]], colors[seq[i - 3]]}
        if i >= r - 2:
            forb.add(cr)
        p.put(v, p.pick(p.lists[v], forb, f"ear vertex {v}"))
    p.close(tag, removed)


# -- the peel pass and the coloring pass ---------------------------------------


def solve(g: Graph, lists) -> SolveResult:
    """Conflict-free list coloring of a connected outerplanar graph.

    Inputs that cannot be handled return an `Obstruction` (checked in this
    order): disconnected graph, non-outerplanar graph, some list smaller
    than degree+2, or the 5-cycle with five identical 4-element lists.
    Everything else returns a coloring, verified before it is returned.
    """
    la = lists if isinstance(lists, ListAssignment) else ListAssignment(lists)
    if len(la) != g.n:
        raise ValueError(f"graph has {g.n} vertices but {len(la)} lists given")
    if g.n == 0:
        return SolveResult([], None, ())
    structure = _structure if g.n <= STRUCTURE_CACHE_MAX_N else _structure_pass
    screened, plan, rest = structure(g)
    if screened is not None:
        return SolveResult(None, screened, ())
    for v in range(g.n):
        if len(la[v]) < g.degree(v) + 2:
            return SolveResult(
                None,
                Obstruction(
                    REASON_LIST_TOO_SMALL,
                    f"vertex {v} has {len(la[v])} colors for degree {g.degree(v)}",
                ),
                (),
            )
    if g.n == 5 and all(g.degree(v) == 2 for v in range(5)):
        if len(la[0]) == 4 and all(la[v] == la[0] for v in range(5)):
            return SolveResult(
                None,
                Obstruction(
                    REASON_C5_UNIFORM,
                    "5-cycle whose lists are all the same 4-element set",
                ),
                (),
            )

    work = list(la)
    for case in plan:
        chain = case.chain
        if chain is not None and len(chain.spine) == 3 and chain.ears[-1].size() == 4:
            # reserve a color of the first closing-ear interior so the rest
            # of the graph cannot hand it to either chain endpoint; applied
            # in peel order, as each step reads only the lists of the
            # vertices it removes and reservations never change the peel
            u2, u3 = chain.ears[-1].interior
            t2 = frozenset(sorted(work[u2])[:4])
            t3 = frozenset(sorted(work[u3])[:4])
            gamma = min(t2 - t3) if t2 - t3 else min(t2)
            for v in (chain.spine[0], chain.spine[-1]):
                work[v] = work[v] - {gamma}
    p = _Pass(g, work, [None] * g.n)
    if len(rest) <= 3:
        _color_trivial(p, rest)
    else:
        _color_whole_cycle(p, rest)
    for case in reversed(plan):
        _STEPS[case.kind](p, case)
    verdict = verify(g, p.colors, la)
    if not verdict.ok:
        raise p.fail(
            "constructed coloring fails verification: "
            + "; ".join(v.describe() for v in verdict.violations[:5])
        )
    return SolveResult(p.colors, None, tuple(p.trace))


# Graphs above this many vertices skip the structure cache: repeated graphs
# are small (the criterion-2 corpus has n <= 8), and the plan of one large
# graph holds objects in proportion to its size
STRUCTURE_CACHE_MAX_N = 1024


def _structure_pass(g: Graph) -> "tuple[Obstruction | None, tuple[EndBlockCase, ...], tuple[int, ...]]":
    """The graph-only pass of `solve`.

    One Tarjan search from vertex 0 screens connectivity and yields the
    blocks; the graph is outerplanar iff m <= 2n - 3 and every block
    embeds.  Then `_peel` cuts end blocks until at most 3 vertices or a
    whole cycle remain.  Returns the obstruction found by the screens (or
    None), the cases in peel order and the remaining vertices (sorted, or
    in cycle order), all in host ids.  Everything returned is immutable,
    so every solve of the graph can share it.
    """
    n = g.n
    disc = [-1] * n
    blocks = list(_blocks(g, (0,), disc))
    if -1 in disc:
        return Obstruction(REASON_DISCONNECTED, "input graph is disconnected"), (), ()
    if (n >= 2 and g.m > 2 * n - 3) or not all(_block_embeds(edges) for edges in blocks):
        return Obstruction(REASON_NOT_OUTERPLANAR, "input graph is not outerplanar"), (), ()
    plan, rest = _peel(n, blocks)
    return None, plan, rest


# cached per graph (by value); sized above the 1,016 connected outerplanar
# graphs on 2..8 vertices, so a pass over that corpus finds every graph it
# has seen before
_structure = lru_cache(maxsize=4096)(_structure_pass)


def _peel(n: int, block_edges) -> "tuple[tuple[EndBlockCase, ...], tuple[int, ...]]":
    """Peel a connected outerplanar graph, given the edge lists of its
    blocks, over a block tree kept up to date in place.

    The end block peeled next is the one `BlockDecomposition.end_blocks()`
    lists first, by the key (smallest vertex, size, vertex tuple); end
    blocks wait in a heap under that key, and an entry whose block has
    since changed or gone is skipped.  The anchor is the block's one cut
    vertex, or its smallest vertex once it is the only block left; no step
    removes its anchor.  A pendant or cycle step deletes its block, which
    can only turn the anchor from a cut vertex into an inner vertex of its
    one other block; an ear or chain step removes vertices of no other
    block and leaves the rest of its block 2-connected, so only that
    block's key changes.  Each step costs time linear in its block.
    """
    verts: "list[tuple[int, ...] | None]" = [
        tuple(sorted({v for e in edges for v in e})) for edges in block_edges
    ]
    edges = list(block_edges)
    count = [0] * n  # blocks containing each vertex
    for block in verts:
        for v in block:
            count[v] += 1
    at: dict[int, list[int]] = {}  # cut vertex -> its blocks
    ncut = [0] * len(verts)  # cut vertices in each block
    for i, block in enumerate(verts):
        for v in block:
            if count[v] > 1:
                at.setdefault(v, []).append(i)
                ncut[i] += 1
    heap = [(block[0], len(block), block, i) for i, block in enumerate(verts) if ncut[i] <= 1]
    heapify(heap)
    gone = bytearray(n)
    left = n
    plan = []
    while left > 3:
        _, _, block, i = heappop(heap)
        if verts[i] is not block:
            continue  # the block has shrunk or gone since this entry
        anchor = next((v for v in block if count[v] > 1), block[0])
        case = classify_block(block, edges[i], anchor)
        if case.kind == KIND_CYCLE and len(block) == left:
            return tuple(plan), case.cycle_order
        if case.kind not in _STEPS:
            raise SolverInternalError(f"unknown end-block case {case.kind}")
        plan.append(case)
        cut = case.removed()
        left -= len(cut)
        for v in cut:
            gone[v] = 1
        if case.kind in (KIND_K2, KIND_CYCLE):
            verts[i] = None
            count[anchor] -= 1
            if count[anchor] == 1:
                j = next(j for j in at[anchor] if verts[j] is not None)
                ncut[j] -= 1
                if ncut[j] == 1:  # it has just become an end block
                    heappush(heap, (verts[j][0], len(verts[j]), verts[j], j))
        else:
            verts[i] = block = tuple(v for v in block if not gone[v])
            edges[i] = [e for e in edges[i] if not (gone[e[0]] or gone[e[1]])]
            heappush(heap, (block[0], len(block), block, i))
    return tuple(plan), tuple(v for v in range(n) if not gone[v])


def _color_trivial(p: _Pass, rest) -> None:
    # rainbow within radius 2 of the remaining vertices: trivially proper
    # and conflict-free; peeled vertices are not walked through
    g, colors = p.g, p.colors
    inside = set(rest)
    for v in rest:
        forb = set()
        for w in g.neighbors(v):
            if w not in inside:
                continue
            if colors[w] is not None:
                forb.add(colors[w])
            for z in g.neighbors(w):
                if colors[z] is not None:
                    forb.add(colors[z])
        p.put(v, p.pick(p.lists[v], forb, f"vertex {v}"))
    p.close("Trivial", tuple(rest))


def _color_whole_cycle(p: _Pass, order) -> None:
    res = color_cycle([p.lists[v] for v in order])
    if isinstance(res, Obstruction):
        # reachable only if the top-level uniform-C5 screen were skipped
        raise p.fail("uniform 5-cycle reached the cycle case")
    for v, c in zip(order, res):
        p.put(v, c)
    p.close("CycleProp", tuple(order))


def _step_pendant(p: _Pass, case) -> None:
    v, x = case.pendant, case.anchor
    alpha = p.unique(x, f"anchor {x}")
    p.put(v, p.pick(p.lists[v], {p.colors[x], alpha}, f"pendant {v}"))
    p.close("K2", (v,))


def _step_cycle(p: _Pass, case) -> None:
    x = case.anchor
    body = case.removed()
    lists = p.lists
    c1 = p.colors[x]
    alpha = p.unique(x, f"anchor {x}")
    ell = len(case.cycle_order)
    if ell == 3:
        p0 = p.pick(lists[body[0]], {c1, alpha}, "cycle block")
        p.put(body[0], p0)
        p.put(body[1], p.pick(lists[body[1]], {c1, alpha, p0}, "cycle block"))
        tag = "CycleBlock"
    elif ell == 4:
        p0 = p.pick(lists[body[0]], {c1, alpha}, "cycle block")
        p2 = p.pick(lists[body[2]], {c1, alpha, p0}, "cycle block")
        p1 = p.pick(lists[body[1]], {c1, p0, p2}, "cycle block")
        p.put(body[0], p0)
        p.put(body[1], p1)
        p.put(body[2], p2)
        tag = "CycleBlock"
    else:
        plists = []
        for t, v in enumerate(body):
            cut = lists[v]
            if t in (0, ell - 2):
                cut = cut - {c1, alpha}
            elif t in (1, ell - 3):
                cut = cut - {c1}
            plists.append(cut)
        for v, c in zip(body, color_constrained_path(plists)):
            p.put(v, c)
        tag = "PathLemma"
    p.close(tag, body)


def _step_good_ear(p: _Pass, case) -> None:
    ear = case.ear
    _extend_ear(p, list(ear.vertices()), "GoodEar", ear.interior)


def _step_long_ear(p: _Pass, case) -> None:
    ear = case.ear
    seq = list(ear.vertices())
    r = len(seq)
    colors = p.colors
    c1, c2 = colors[seq[0]], colors[seq[-1]]
    if c1 == c2:
        raise p.fail("long ear root edge colored improperly")
    alpha = p.unique(seq[0], f"root {seq[0]}")
    beta = p.unique(seq[-1], f"root {seq[-1]}")

    # positions are 1-based along the ear; interiors work in their 4
    # smallest colors so that the set-difference tests below are decisive
    l4 = {v: frozenset(sorted(p.lists[v])[:4]) for v in ear.interior}

    def lof(i):
        return l4[seq[i - 1]]

    def phi(i):
        return colors[seq[i - 1]]

    def fill(i, forbidden):
        p.put(seq[i - 1], p.pick(lof(i), forbidden, "long ear"))

    near_end = lof(r - 1)
    if len(near_end & {c2, beta}) <= 1:
        tag = "LongEar(sub1)"
        fill(2, {c1, alpha})
        for i in range(3, r - 2):
            fill(i, {phi(i - 2), phi(i - 1)})
        fill(r - 2, {c2, phi(r - 4), phi(r - 3)})
        fill(r - 1, {c2, beta, phi(r - 3), phi(r - 2)})
    else:
        diff = lof(r - 2) - near_end
        if diff:
            tag = "LongEar(sub2)"
            pivot = min(diff)  # not c2: c2 sits in the last list
        else:
            tag = "LongEar(sub3)"
            if lof(r - 2) != near_end or beta not in lof(r - 2):
                raise p.fail("long ear subcase split broke")
            pivot = beta
        p.put(seq[r - 3], pivot)  # position r - 2
        # for r = 6 the second vertex is also two steps before the pivot
        # vertex, so it must dodge the pivot color to protect u_3
        fill(2, {c1, alpha, pivot} if r == 6 else {c1, alpha})
        for i in range(3, r - 4):
            fill(i, {phi(i - 2), phi(i - 1)})
        for i in (r - 4, r - 3):
            if i >= 3:
                fill(i, {pivot, phi(i - 2), phi(i - 1)})
        if tag == "LongEar(sub2)":
            fill(r - 1, {c2, beta, phi(r - 3), pivot})
        else:
            fill(r - 1, {c2, beta, phi(r - 3)})
    p.close(tag, ear.interior)


def _step_ear_chain(p: _Pass, case) -> None:
    chain = case.chain
    spine = chain.spine
    s = len(spine)
    v1, vs = spine[0], spine[-1]
    last = chain.ears[-1]
    rlast = last.size()
    removed = case.removed()
    lists, colors = p.lists, p.colors

    c1, c2 = colors[v1], colors[vs]
    if c1 == c2:
        raise p.fail("ear chain root edge colored improperly")
    alpha = p.unique(v1, f"chain end {v1}")
    beta = p.unique(vs, f"chain end {vs}")

    def extend(t):
        _extend_ear(p, [spine[t], *chain.ears[t].interior, spine[t + 1]], "EarExtension", ())

    if s >= 4:
        iv = last.interior  # u_2..u_{r-1} of the closing ear, r = rlast

        def uphi(j):
            return c2 if j == rlast else colors[iv[j - 2]]

        p.put(iv[rlast - 3], p.pick(lists[iv[rlast - 3]], {c2, beta}, "chain ear"))
        for j in range(rlast - 2, 1, -1):
            p.put(iv[j - 2], p.pick(lists[iv[j - 2]], {c2, uphi(j + 1), uphi(j + 2)}, "chain ear"))
        u2c, u3c = uphi(2), uphi(3)
        p.put(spine[s - 2], p.pick(lists[spine[s - 2]], {c2, beta, u2c, u3c}, "chain junction"))
        for i in range(2, s - 1):  # junctions v_2..v_{s-2} along the spine
            forb = {colors[spine[i - 2]]}
            if i == 2:
                forb |= {c1, alpha}
            if i == s - 2:
                forb |= {c2, colors[spine[s - 2]], u2c}
            p.put(spine[i - 1], p.pick(lists[spine[i - 1]], forb, "chain junction"))
        p.close("EarChain(s>=4)", removed)
        for t in range(s - 2):
            extend(t)
        return

    v2 = spine[1]
    if rlast == 3:
        u2 = last.interior[0]
        p.put(u2, p.pick(lists[u2], {c1, c2, beta}, "chain ear"))
        p.put(v2, p.pick(lists[v2], {c1, c2, alpha, beta, colors[u2]}, "chain junction"))
        p.close("EarChain(s3H3)", removed)
        extend(0)
    elif rlast == 4:
        u2, u3 = last.interior
        t2 = frozenset(sorted(lists[u2])[:4])
        t3 = frozenset(sorted(lists[u3])[:4])
        if beta == c1:
            p2 = p.pick(t2, {c1, c2}, "chain ear")
            p3 = p.pick(t3, {c1, c2, p2}, "chain ear")
            p.put(u2, p2)
            p.put(u3, p3)
            p.put(v2, p.pick(lists[v2], {c1, c2, alpha, p2, p3}, "chain junction"))
        else:
            chosen = next((x for x in sorted(t2 - {c1, c2}) if len(t3 - {c2, beta, x}) >= 2), None)
            if chosen is None:
                raise p.fail("no pivot for the 4-vertex closing ear")
            p.put(u2, chosen)
            p.put(v2, p.pick(lists[v2], {c1, c2, alpha, beta, chosen}, "chain junction"))
            p.put(u3, p.pick(t3, {c2, beta, chosen, colors[v2]}, "chain ear"))
        p.close("EarChain(s3H4)", removed)
        extend(0)
    elif rlast == 5:
        u2, u3, u4 = last.interior
        tv2 = frozenset(sorted(lists[v2] - {c1, c2, alpha, beta})[:2])
        tu3 = frozenset(sorted(lists[u3] - {c2})[:3])
        tu4 = frozenset(sorted(lists[u4] - {c2, beta})[:2])
        common = tv2 & tu4
        if common:
            pv2 = pu4 = min(common)
        else:
            outside = p.pick(tv2 | tu4, tu3, "chain far pair")
            if outside in tv2:
                pv2, pu4 = outside, min(tu4)
            else:
                pv2, pu4 = min(tv2), outside
        p.put(v2, pv2)
        p.put(u4, pu4)
        if len(tu3 - {pv2, pu4}) < 2:
            raise p.fail("middle list lost too many colors")
        p.close("EarChain(s3H5)", removed)
        extend(0)
        # u2 and u3 wait for the first ear, whose colors fix v2's unique color
        gmid = p.unique(v2, f"junction {v2}")
        cu2 = p.pick(lists[u2], {pv2, pu4, gmid}, "chain ear")
        p.put(u2, cu2)
        p.put(u3, p.pick(tu3, {pv2, cu2, pu4}, "chain ear"))
        p.close("EarChain(s3H5)", ())
    else:
        raise p.fail(f"closing ear of size {rlast} in chain case")


_STEPS = {
    KIND_K2: _step_pendant,
    KIND_CYCLE: _step_cycle,
    KIND_GOOD_EAR: _step_good_ear,
    KIND_LONG_EAR: _step_long_ear,
    KIND_EAR_CHAIN: _step_ear_chain,
}
