"""Constructive proper conflict-free coloring of outerplanar graphs.

Every connected outerplanar graph except one obstruction family admits a
proper coloring from lists of size degree+2 in which each non-isolated
vertex sees some color exactly once in its neighborhood.  `solve` builds
such a coloring the way the induction proves it exists: peel an end
block, color the rest, then extend the coloring over the block, by case:
a pendant edge, an attached cycle, a good ear, a long ear, or an ear
chain.  It runs as two passes over one record format, not as recursion.
The peel, `structure.peel`, screens connectivity and outerplanarity and
records the step of each end block in turn, until at most 3 vertices or
a whole cycle remain, as `(kind, anchor, args)`: `args` are the flat
arguments of the step function `_STEP[kind]`.  The coloring pass colors
the remaining vertices, then runs `_STEP[kind](p, *args)` for each
record, the last one peeled first, filling one coloring through
`_Pass.put`, its only write, and recording each step through
`_Pass.close`.  So `solve` has no recursion-depth limit.  Which end block
is peeled, and which case fires, depend on the graph alone, so the
records are cached per graph up to `structure.STRUCTURE_CACHE_MAX_N`
vertices, as the peel made them, with the list sizes to screen and the
color reservations read off them by `_compile`; nothing is compiled from
them, and a repeated graph pays only for the list work.  A graph's first
solve takes time linear in the number of vertices, apart from the work
inside one large block, which is quadratic in that block (a fan, a strip
triangulation or a sun; see `structure.peel`).  The coloring pass takes
time linear in each step, plus one `unique_colors` walk of the step's
anchor adjacency, so it is quadratic on a high-degree anchor (the hub of
a fan).  The only true obstruction among connected
outerplanar inputs is the 5-cycle whose five lists are one identical
4-set, the one cycle `color_cycle` refuses: `solve` returns its refusal.

Colors are chosen by minimum value at every free choice, so the output is
deterministic.  A `SolveResult` carries either a verified coloring or an
`Obstruction`, plus a trace of case steps that replays to the coloring.
The pass records the order it colors the vertices in and each step's end
in that order, and the trace's `TraceStep`s are built from that record on
its first read, so a caller that never reads it pays only for the record.

`color_cycle`, `color_constrained_path` and `extend_ear` are the reusable
pieces of the induction and are exposed for direct use; each enforces its
own list-size preconditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import lt as _lt

from . import kernel  # kernel.unique_colors is looked up at call time, where the benchmark hooks it
from .graphs import Graph, cycle_graph, path_graph
from .kernel import Coloring, ListAssignment, verify
from .structure import KIND_CYCLE, KIND_EAR_CHAIN, KIND_GOOD_EAR, KIND_K2, KIND_LONG_EAR, cached, peel
# the screens' reasons, also re-exported so that solver.REASON_* names every obstruction
from .structure import REASON_DISCONNECTED, REASON_NOT_OUTERPLANAR  # noqa: F401
# not called here: imported so that the benchmark's hooks on solver.<name> resolve
from .structure import classify_end_block, is_outerplanar  # noqa: F401

REASON_C5_UNIFORM = "IsC5Uniform"
REASON_LIST_TOO_SMALL = "ListTooSmall"


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
        return _step_json(self.case, self.removed, self.colors, self.colors)


def _step_json(case: str, removed, vertices, colors) -> dict:
    """One trace step as a JSON object: the step colored `vertices`, with
    `colors[v]` for each.  The one serializer of both the `TraceStep`s and
    the flat step records."""
    return {
        "case": case,
        "removed": list(removed),
        "colors": {str(v): colors[v] for v in sorted(vertices)},
    }


def _steps(record):
    """(case, removed, vertices colored, colors) per closed step of a
    pass's `(steps, order, colors)` record."""
    steps, order, colors = record
    start = 0
    for case, removed, end in steps:
        yield case, removed, order[start:end], colors
        start = end


def _trace(record) -> "tuple[TraceStep, ...]":
    return tuple(TraceStep(case, removed, {v: colors[v] for v in vertices})
                 for case, removed, vertices, colors in _steps(record))


@dataclass(frozen=True)
class SolveResult:
    """A coloring or an obstruction, and the trace of the case steps: the
    pass's record, `_Pass.record`, built into `TraceStep`s on the first read
    of `trace` and kept.  `trace_json` writes the JSON objects straight from
    the record, with no `TraceStep` built; `pcfcolor color --trace` prints
    those.  The record holds its own copy of the colors, so a caller may
    change `coloring`.  An obstruction has no steps."""

    coloring: "Coloring | None"
    obstruction: "Obstruction | None"
    _record: tuple = ((), (), ())

    @property
    def ok(self) -> bool:
        return self.coloring is not None

    @cached_property
    def trace(self) -> tuple[TraceStep, ...]:
        return _trace(self._record)

    def trace_json(self) -> list[dict]:
        """`[step.to_json() for step in self.trace]`, without the steps."""
        return [_step_json(*step) for step in _steps(self._record)]


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
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
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
# per length instead of building it on every call, through
# `structure.cached`: a longer one is built per call and not kept
_cycle_graphs = lru_cache(maxsize=64)(cycle_graph)
_path_graphs = lru_cache(maxsize=64)(path_graph)


def color_cycle(lists) -> "list[int] | Obstruction":
    """Conflict-free coloring of a cycle, lists indexed along the cycle.

    Every list must have at least 4 colors.  Returns an Obstruction exactly
    when the cycle has length 5 and all five lists are the same 4-set; that
    single family admits no such coloring, and `solve` returns this
    Obstruction for it as it is.
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
                    "5-cycle whose lists are all the same 4-element set",
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
        pairs = ((i, step) for i in range(ell) for step in (1, -1) if ls[i] - ls[(i + step) % ell])
        found = next(pairs, None)
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

    verdict = verify(cached(_cycle_graphs, ell)(ell), phi, ls)
    if not verdict.ok:
        raise SolverInternalError("cycle coloring failed verification")
    return phi


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

    verdict = verify(cached(_path_graphs, s + 1)(s + 1), phi, ls)
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
    lists need at least 4 colors.  `colors` or `lists` not of `host.n`
    entries, an uncolored u_1 or u_r, a colored interior vertex, or a
    shorter interior list raises ValueError.
    """
    seq = list(ear_vertices)
    if len(seq) < 3:
        raise ValueError("an ear has at least 3 vertices")
    ls = lists.lists if isinstance(lists, ListAssignment) else tuple(frozenset(x) for x in lists)
    if len(colors) != host.n or len(ls) != host.n:
        raise ValueError(f"host has {host.n} vertices, {len(colors)} colors and {len(ls)} lists")
    for end in (seq[0], seq[-1]):
        if colors[end] is None:
            raise ValueError(f"ear end {end} must be colored before extension")
    for v in seq[1:-1]:
        if colors[v] is not None:
            raise ValueError(f"ear vertex {v} is already colored")
        if len(ls[v]) < 4:
            raise ValueError(f"ear vertex {v} needs 4 colors, has {len(ls[v])}")
    p = _Pass(host, ls, list(colors))
    _extend_ear(p, seq, ())
    return p.colors


class _Pass:
    """One coloring pass over the host graph: `put` is its only write into
    `colors` and appends the vertex to `order`, `close` records a step as
    `(case, removed, len(order))`, and `fail` builds every error with the
    steps closed so far, as `TraceStep`s.  `pick` and `unique` format their
    error text only when they raise."""

    __slots__ = ("g", "lists", "colors", "order", "steps")

    def __init__(self, g: Graph, lists, colors: Coloring):
        self.g = g
        self.lists = lists
        self.colors = colors
        self.order: list[int] = []
        self.steps: list[tuple] = []

    def put(self, v: int, c: int) -> None:
        if self.colors[v] is not None:
            raise self.fail(f"vertex {v} is already colored")
        self.colors[v] = c
        self.order.append(v)

    def close(self, tag: str, removed: tuple) -> None:
        self.steps.append((tag, removed, len(self.order)))

    def record(self) -> tuple:  # the steps and the put order as they are, the colors copied
        return self.steps, self.order, tuple(self.colors)

    def pick(self, pool: frozenset, forbidden, what: str, v: "int | None" = None) -> int:
        """The smallest color of `pool` not in `forbidden`, for `what`, or
        for `what` at vertex `v`."""
        avail = pool - forbidden
        if not avail:
            raise self.fail(f"no color available for {what}" + ("" if v is None else f" {v}"))
        return min(avail)

    def unique(self, v: int, what: str) -> int:
        """The smallest color seen exactly once around `v`, the `what`."""
        kept = kernel.unique_colors(self.g, self.colors, v)
        if not kept:
            raise self.fail(f"no unique neighborhood color at {what} {v}")
        return min(kept)

    def fail(self, message: str) -> SolverInternalError:
        return SolverInternalError(message, _trace(self.record()))


def _extend_ear(p: _Pass, seq, removed: tuple) -> None:
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
        p.put(v, p.pick(p.lists[v], forb, "ear vertex", v))
    p.close("GoodEar" if removed else "EarExtension", removed)  # only a good ear removes any


# -- the coloring pass ---------------------------------------------------------


def solve(g: Graph, lists) -> SolveResult:
    """Conflict-free list coloring of a connected outerplanar graph.

    Inputs that cannot be handled return an `Obstruction` (checked in this
    order): disconnected graph, non-outerplanar graph, some list smaller
    than degree+2, or the 5-cycle with five identical 4-element lists.
    Everything else returns a coloring, verified before it is returned.
    """
    la = lists if isinstance(lists, ListAssignment) else ListAssignment(lists)
    n, ls = g.n, la.lists
    if len(ls) != n:
        raise ValueError(f"graph has {n} vertices but {len(ls)} lists given")
    if n == 0:
        return SolveResult([], None)
    screened, need, reserve, rest, records = cached(_structure, n)(g)
    if screened is not None:
        return SolveResult(None, screened)
    if any(map(_lt, map(len, ls), need)):
        v = next(v for v, k in enumerate(need) if len(ls[v]) < k)
        return SolveResult(None, Obstruction(
            REASON_LIST_TOO_SMALL, f"vertex {v} has {len(ls[v])} colors for degree {need[v] - 2}"
        ))

    work = ls
    if reserve:
        # reserve a color of each s3H4 chain's first closing-ear interior so
        # the rest of the graph cannot hand it to either chain endpoint;
        # applied in peel order, as each step reads only the lists of the
        # vertices it removes and reservations never change the peel
        work = list(ls)
        for u2, u3, v1, vs in reserve:
            t2 = frozenset(sorted(work[u2])[:4])
            t3 = frozenset(sorted(work[u3])[:4])
            gamma = min(t2 - t3) if t2 - t3 else min(t2)
            work[v1] = work[v1] - {gamma}
            work[vs] = work[vs] - {gamma}
    p = _Pass(g, work, [None] * n)
    if len(rest) <= 3:
        _color_trivial(p, rest)
    else:
        # the rest is a whole cycle; only the uniform 5-cycle, which is the
        # whole graph, is refused
        res = color_cycle([work[v] for v in rest])
        if isinstance(res, Obstruction):
            return SolveResult(None, res)
        for v, c in zip(rest, res):
            p.put(v, c)
        p.close("CycleProp", rest)
    for kind, _, args in records:
        _STEP[kind](p, *args)
    verdict = verify(g, p.colors, la)
    if not verdict.ok:
        raise p.fail(
            "constructed coloring fails verification: "
            + "; ".join(v.describe() for v in verdict.violations[:5])
        )
    return SolveResult(p.colors, None, p.record())


def _structure_pass(g: Graph) -> "tuple[Obstruction | None, tuple[tuple, ...], tuple[int, ...]]":
    """The graph-only pass of `solve`: `structure.peel`, its step records
    and remaining vertices, with the screen that failed, if any, as an
    `Obstruction`.  Everything returned is immutable."""
    reason, records, rest = peel(g)
    if reason is None:
        return None, records, rest
    what = "disconnected" if reason == REASON_DISCONNECTED else "not outerplanar"
    return Obstruction(reason, f"input graph is {what}"), (), ()


def _compile(g: Graph) -> tuple:
    """The graph-only part of `solve`: the screen that failed, if any; each
    vertex's list-size need, degree+2; the `(u2, u3, v1, vs)` color
    reservations of the s3H4 chains, in peel order; the remaining vertices;
    and the peel's records, in coloring order.  Everything is immutable, so
    every solve of the graph shares it."""
    screened, records, rest = _structure_pass(g)
    if screened is not None:
        return screened, (), (), (), ()
    need = tuple(len(nb) + 2 for nb in g.adjacency)
    reserve = tuple((*args[2], args[0][0], args[0][-1]) for kind, _, args in records
                    if kind == KIND_EAR_CHAIN and len(args[0]) == 3 and len(args[2]) == 2)
    return None, need, reserve, rest, records[::-1]


# cached per graph (by value); sized above the 1,016 connected outerplanar
# graphs on 2..8 vertices, so a pass over that corpus finds every graph it
# has seen before
_structure = lru_cache(maxsize=4096)(_compile)


def _color_trivial(p: _Pass, rest) -> None:
    # a rainbow over the remaining vertices: trivially proper and
    # conflict-free.  They induce a connected graph of at most 3 vertices,
    # so any two are within distance 2 of each other, and they are colored
    # first, so no other vertex within distance 2 has a color yet
    used = set()
    for v in rest:
        c = p.pick(p.lists[v], used, "vertex", v)
        p.put(v, c)
        used.add(c)
    p.close("Trivial", tuple(rest))


def _step_pendant(p: _Pass, v: int, x: int) -> None:
    alpha = p.unique(x, "anchor")
    p.put(v, p.pick(p.lists[v], {p.colors[x], alpha}, "pendant", v))
    p.close("K2", (v,))


def _step_cycle(p: _Pass, x: int, ell: int, body: tuple) -> None:
    # the attached cycle x, body[0], ..., body[ell - 2]
    lists = p.lists
    c1 = p.colors[x]
    alpha = p.unique(x, "anchor")
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


def _step_long_ear(p: _Pass, seq: tuple, interior: tuple) -> None:
    r = len(seq)
    colors = p.colors
    c1, c2 = colors[seq[0]], colors[seq[-1]]
    if c1 == c2:
        raise p.fail("long ear root edge colored improperly")
    alpha = p.unique(seq[0], "root")
    beta = p.unique(seq[-1], "root")

    # positions are 1-based along the ear; interiors work in their 4
    # smallest colors so that the set-difference tests below are decisive
    l4 = {v: frozenset(sorted(p.lists[v])[:4]) for v in interior}

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
    p.close(tag, interior)


def _step_ear_chain(p: _Pass, spine: tuple, firsts: tuple, last: tuple, removed: tuple) -> None:
    # the ears before the closing one as vertex sequences, the closing
    # ear's interior, and the chain minus its two ends
    s = len(spine)
    v1, vs = spine[0], spine[-1]
    rlast = len(last) + 2
    lists, colors = p.lists, p.colors

    c1, c2 = colors[v1], colors[vs]
    if c1 == c2:
        raise p.fail("ear chain root edge colored improperly")
    alpha = p.unique(v1, "chain end")
    beta = p.unique(vs, "chain end")

    v2 = spine[1]
    if s >= 4:
        iv = last  # u_2..u_{r-1} of the closing ear, r = rlast

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
    elif rlast == 3:
        u2 = last[0]
        p.put(u2, p.pick(lists[u2], {c1, c2, beta}, "chain ear"))
        p.put(v2, p.pick(lists[v2], {c1, c2, alpha, beta, colors[u2]}, "chain junction"))
        p.close("EarChain(s3H3)", removed)
    elif rlast == 4:
        u2, u3 = last
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
    elif rlast == 5:
        u2, u3, u4 = last
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
    else:
        raise p.fail(f"closing ear of size {rlast} in chain case")
    for seq in firsts:
        _extend_ear(p, seq, ())
    if s == 3 and rlast == 5:
        # u2 and u3 wait for the first ear, whose colors fix v2's unique color
        gmid = p.unique(v2, "junction")
        cu2 = p.pick(lists[u2], {pv2, pu4, gmid}, "chain ear")
        p.put(u2, cu2)
        p.put(u3, p.pick(tu3, {pv2, cu2, pu4}, "chain ear"))
        p.close("EarChain(s3H5)", ())


# the step function of each kind of peel record
_STEP = {KIND_K2: _step_pendant, KIND_CYCLE: _step_cycle, KIND_GOOD_EAR: _extend_ear,
         KIND_LONG_EAR: _step_long_ear, KIND_EAR_CHAIN: _step_ear_chain}
