"""Constructive proper conflict-free coloring of outerplanar graphs.

Every connected outerplanar graph except one obstruction family admits a
proper coloring from lists of size degree+2 in which each non-isolated
vertex sees some color exactly once in its neighborhood.  `solve` builds
such a coloring the way the induction proves it exists: peel an end block,
color the rest, then extend the coloring over the block, by case: a
pendant edge, an attached cycle, a good ear, a long ear, or an ear chain.
It runs as two loops, not as recursion.  The peel pass records the case
of each end block in turn until at most 3 vertices or a whole cycle
remain; the coloring pass colors that base and then walks the recorded
cases backwards over the host graph, filling one coloring.  So `solve`
has no recursion-depth limit.  Which end block is peeled, and which case
fires, depend on the graph alone, so the graph-only pass (connectivity
and outerplanarity screens plus the peel) is cached per graph; a repeated
graph pays only for the list work: list-size screens, color reservations,
the coloring pass and the final verification.  A graph's first solve
takes time quadratic in the number of vertices: each peel step rebuilds
the remaining graph, its block structure and the end block's embedding,
each in time linear in that graph.  The only true
obstruction among connected outerplanar inputs is the 5-cycle whose five
lists are one identical 4-set.

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

from .graphs import Graph, cycle_graph, path_graph
from .kernel import Coloring, ListAssignment, unique_colors, verify
from .structure import (
    KIND_CYCLE,
    KIND_EAR_CHAIN,
    KIND_GOOD_EAR,
    KIND_K2,
    KIND_LONG_EAR,
    EndBlockCase,
    classify_end_block,
    is_outerplanar,
)

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


def _min_excluding(pool: frozenset, forbidden, what: str, trace=()) -> int:
    avail = pool - forbidden
    if not avail:
        raise SolverInternalError(f"no color available for {what}", trace)
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
    out = list(colors)
    ls = lists.lists if isinstance(lists, ListAssignment) else tuple(frozenset(x) for x in lists)
    _extend_ear(host, out, ls, seq, None, "EarExtension", ())
    return out


def _extend_ear(g, colors, lists, seq, trace, tag, removed) -> None:
    r = len(seq)
    u1, ur = seq[0], seq[-1]
    c1 = colors[u1]
    cr = colors[ur]
    if c1 is None or cr is None:
        raise SolverInternalError("ear root must be colored before extension")
    kept = unique_colors(g, colors, u1)
    if kept:
        c2 = min(kept)
    else:
        palette = {colors[w] for w in g.neighbors(u1) if colors[w] is not None}
        if len(palette) != 1:
            raise SolverInternalError(
                "ear extension needs a unique or unanimous color at the near root"
            )
        c2 = next(iter(palette))
    assigned: dict[int, int] = {}
    for i in range(2, r):  # cycle positions u_2 .. u_{r-1}
        v = seq[i - 1]
        if colors[v] is not None:
            raise SolverInternalError("ear interior already colored")
        if i == 2:
            forb = {c1, c2}
        else:
            forb = {colors[seq[i - 2]], colors[seq[i - 3]]}
        if i >= r - 2:
            forb.add(cr)
        c = _min_excluding(lists[v], forb, f"ear vertex {v}")
        colors[v] = c
        assigned[v] = c
    if trace is not None:
        trace.append(TraceStep(tag, removed, assigned))


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
    screened, plan, rest = _structure(g)
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
    colors: Coloring = [None] * g.n
    trace: list[TraceStep] = []
    if len(rest) <= 3:
        _color_trivial(g, work, rest, colors, trace)
    else:
        _color_whole_cycle(work, rest, colors, trace)
    for case in reversed(plan):
        _STEPS[case.kind](g, work, colors, trace, case)
    verdict = verify(g, colors, la)
    if not verdict.ok:
        raise SolverInternalError(
            "constructed coloring fails verification: "
            + "; ".join(v.describe() for v in verdict.violations[:5]),
            tuple(trace),
        )
    return SolveResult(colors, None, tuple(trace))


# sized above the 1,016 connected outerplanar graphs on 2..8 vertices, so a
# pass over that corpus finds every graph it has seen before
@lru_cache(maxsize=4096)
def _structure(g: Graph) -> "tuple[Obstruction | None, tuple[EndBlockCase, ...], tuple[int, ...]]":
    """The graph-only pass of `solve`, cached per graph (by value).

    Screens connectivity and outerplanarity, then cuts end blocks until at
    most 3 vertices or a whole cycle remain.  Returns the obstruction found
    by the screens (or None), the cases in peel order and the remaining
    vertices (sorted, or in cycle order), all in host ids.  Everything
    returned is immutable, so every solve of the graph can share it.
    """
    if not g.is_connected():
        return Obstruction(REASON_DISCONNECTED, "input graph is disconnected"), (), ()
    if not is_outerplanar(g):
        return Obstruction(REASON_NOT_OUTERPLANAR, "input graph is not outerplanar"), (), ()
    plan = []
    sub, ids = g, tuple(range(g.n))
    while sub.n > 3:
        case = classify_end_block(sub)
        if case.kind == KIND_CYCLE and len(case.cycle_order) == sub.n:
            return None, tuple(plan), tuple(ids[v] for v in case.cycle_order)
        if case.kind not in _STEPS:
            raise SolverInternalError(f"unknown end-block case {case.kind}")
        plan.append(case.relabel(ids))
        cut = set(case.removed())
        sub, kept = sub.subgraph(w for w in range(sub.n) if w not in cut)
        ids = tuple(ids[w] for w in kept)
    return None, tuple(plan), ids


def _color_trivial(g, lists, rest, colors, trace) -> None:
    # rainbow within radius 2 of the remaining vertices: trivially proper
    # and conflict-free; peeled vertices are not walked through
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
        colors[v] = _min_excluding(lists[v], forb, f"vertex {v}", trace)
    trace.append(TraceStep("Trivial", tuple(rest), {v: colors[v] for v in rest}))


def _color_whole_cycle(lists, order, colors, trace) -> None:
    res = color_cycle([lists[v] for v in order])
    if isinstance(res, Obstruction):
        # reachable only if the top-level uniform-C5 screen were skipped
        raise SolverInternalError("uniform 5-cycle reached the cycle case", tuple(trace))
    for v, c in zip(order, res):
        colors[v] = c
    trace.append(TraceStep("CycleProp", tuple(order), dict(zip(order, res))))


def _min_unique(g, colors, v, what, trace) -> int:
    kept = unique_colors(g, colors, v)
    if not kept:
        raise SolverInternalError(f"no unique neighborhood color at {what}", tuple(trace))
    return min(kept)


def _step_pendant(g, lists, colors, trace, case) -> None:
    v, x = case.pendant, case.anchor
    alpha = _min_unique(g, colors, x, f"anchor {x}", trace)
    c = _min_excluding(lists[v], {colors[x], alpha}, f"pendant {v}", trace)
    colors[v] = c
    trace.append(TraceStep("K2", (v,), {v: c}))


def _step_cycle(g, lists, colors, trace, case) -> None:
    x = case.anchor
    body = case.removed()
    c1 = colors[x]
    alpha = _min_unique(g, colors, x, f"anchor {x}", trace)
    ell = len(case.cycle_order)
    assigned = {}

    def put(v, c):
        colors[v] = c
        assigned[v] = c

    if ell == 3:
        p0 = _min_excluding(lists[body[0]], {c1, alpha}, "cycle block", trace)
        put(body[0], p0)
        put(body[1], _min_excluding(lists[body[1]], {c1, alpha, p0}, "cycle block", trace))
        tag = "CycleBlock"
    elif ell == 4:
        p0 = _min_excluding(lists[body[0]], {c1, alpha}, "cycle block", trace)
        p2 = _min_excluding(lists[body[2]], {c1, alpha, p0}, "cycle block", trace)
        p1 = _min_excluding(lists[body[1]], {c1, p0, p2}, "cycle block", trace)
        put(body[0], p0)
        put(body[1], p1)
        put(body[2], p2)
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
            put(v, c)
        tag = "PathLemma"
    trace.append(TraceStep(tag, body, assigned))


def _step_good_ear(g, lists, colors, trace, case) -> None:
    ear = case.ear
    _extend_ear(g, colors, lists, list(ear.vertices()), trace, "GoodEar", ear.interior)


def _step_long_ear(g, lists, colors, trace, case) -> None:
    ear = case.ear
    seq = list(ear.vertices())
    r = len(seq)
    u1, ur = seq[0], seq[-1]
    c1, c2 = colors[u1], colors[ur]
    if c1 == c2:
        raise SolverInternalError("long ear root edge colored improperly", tuple(trace))
    alpha = _min_unique(g, colors, u1, f"root {u1}", trace)
    beta = _min_unique(g, colors, ur, f"root {ur}", trace)

    # positions are 1-based along the ear; interiors work in their 4
    # smallest colors so that the set-difference tests below are decisive
    l4 = {v: frozenset(sorted(lists[v])[:4]) for v in ear.interior}
    assigned: dict[int, int] = {}

    def lof(i):
        return l4[seq[i - 1]]

    def phi(i):
        return colors[seq[i - 1]]

    def put(i, c):
        colors[seq[i - 1]] = c
        assigned[seq[i - 1]] = c

    near_end = lof(r - 1)
    if len(near_end & {c2, beta}) <= 1:
        tag = "LongEar(sub1)"
        put(2, _min_excluding(lof(2), {c1, alpha}, "long ear", trace))
        for i in range(3, r - 2):
            put(i, _min_excluding(lof(i), {phi(i - 2), phi(i - 1)}, "long ear", trace))
        put(r - 2, _min_excluding(lof(r - 2), {c2, phi(r - 4), phi(r - 3)}, "long ear", trace))
        put(r - 1, _min_excluding(near_end, {c2, beta, phi(r - 3), phi(r - 2)}, "long ear", trace))
    else:
        diff = lof(r - 2) - near_end
        if diff:
            tag = "LongEar(sub2)"
            pivot = min(diff)  # not c2: c2 sits in the last list
        else:
            tag = "LongEar(sub3)"
            if lof(r - 2) != near_end or beta not in lof(r - 2):
                raise SolverInternalError("long ear subcase split broke", tuple(trace))
            pivot = beta
        put(r - 2, pivot)
        # for r = 6 the second vertex is also two steps before the pivot
        # vertex, so it must dodge the pivot color to protect u_3
        u2_forb = {c1, alpha, pivot} if r == 6 else {c1, alpha}
        put(2, _min_excluding(lof(2), u2_forb, "long ear", trace))
        for i in range(3, r - 4):
            put(i, _min_excluding(lof(i), {phi(i - 2), phi(i - 1)}, "long ear", trace))
        for i in (r - 4, r - 3):
            if i < 3:
                continue
            put(i, _min_excluding(lof(i), {pivot, phi(i - 2), phi(i - 1)}, "long ear", trace))
        if tag == "LongEar(sub2)":
            put(r - 1, _min_excluding(near_end, {c2, beta, phi(r - 3), pivot}, "long ear", trace))
        else:
            put(r - 1, _min_excluding(near_end, {c2, beta, phi(r - 3)}, "long ear", trace))
    trace.append(TraceStep(tag, ear.interior, assigned))


def _step_ear_chain(g, lists, colors, trace, case) -> None:
    chain = case.chain
    spine = chain.spine
    s = len(spine)
    v1, vs = spine[0], spine[-1]
    last = chain.ears[-1]
    rlast = last.size()
    removed = case.removed()

    c1, c2 = colors[v1], colors[vs]
    if c1 == c2:
        raise SolverInternalError("ear chain root edge colored improperly", tuple(trace))
    alpha = _min_unique(g, colors, v1, f"chain end {v1}", trace)
    beta = _min_unique(g, colors, vs, f"chain end {vs}", trace)

    assigned: dict[int, int] = {}

    def put(v, c):
        colors[v] = c
        assigned[v] = c

    def extend(t):
        ear = chain.ears[t]
        seq = [spine[t], *ear.interior, spine[t + 1]]
        _extend_ear(g, colors, lists, seq, trace, "EarExtension", ())

    if s >= 4:
        tag = "EarChain(s>=4)"
        iv = last.interior  # u_2..u_{r-1} of the closing ear, r = rlast

        def uphi(j):
            if j == rlast:
                return c2
            return colors[iv[j - 2]]

        put(iv[rlast - 3], _min_excluding(lists[iv[rlast - 3]], {c2, beta}, "chain ear", trace))
        for j in range(rlast - 2, 1, -1):
            put(
                iv[j - 2],
                _min_excluding(lists[iv[j - 2]], {c2, uphi(j + 1), uphi(j + 2)}, "chain ear", trace),
            )
        u2c = uphi(2)
        u3c = uphi(3)
        put(
            spine[s - 2],
            _min_excluding(lists[spine[s - 2]], {c2, beta, u2c, u3c}, "chain junction", trace),
        )
        for i in range(2, s - 1):  # junctions v_2..v_{s-2} along the spine
            forb = {colors[spine[i - 2]]}
            if i == 2:
                forb |= {c1, alpha}
            if i == s - 2:
                forb |= {c2, colors[spine[s - 2]], u2c}
            put(spine[i - 1], _min_excluding(lists[spine[i - 1]], forb, "chain junction", trace))
        trace.append(TraceStep(tag, removed, assigned))
        for t in range(s - 2):
            extend(t)
        return

    v2 = spine[1]
    if rlast == 3:
        u2 = last.interior[0]
        put(u2, _min_excluding(lists[u2], {c1, c2, beta}, "chain ear", trace))
        put(v2, _min_excluding(lists[v2], {c1, c2, alpha, beta, colors[u2]}, "chain junction", trace))
        trace.append(TraceStep("EarChain(s3H3)", removed, assigned))
        extend(0)
    elif rlast == 4:
        u2, u3 = last.interior
        t2 = frozenset(sorted(lists[u2])[:4])
        t3 = frozenset(sorted(lists[u3])[:4])
        if beta == c1:
            p2 = _min_excluding(t2, {c1, c2}, "chain ear", trace)
            p3 = _min_excluding(t3, {c1, c2, p2}, "chain ear", trace)
            put(u2, p2)
            put(u3, p3)
            put(v2, _min_excluding(lists[v2], {c1, c2, alpha, p2, p3}, "chain junction", trace))
        else:
            chosen = None
            for cand in sorted(t2 - {c1, c2}):
                if len(t3 - {c2, beta, cand}) >= 2:
                    chosen = cand
                    break
            if chosen is None:
                raise SolverInternalError("no pivot for the 4-vertex closing ear", tuple(trace))
            put(u2, chosen)
            put(v2, _min_excluding(lists[v2], {c1, c2, alpha, beta, chosen}, "chain junction", trace))
            put(u3, _min_excluding(t3, {c2, beta, chosen, colors[v2]}, "chain ear", trace))
        trace.append(TraceStep("EarChain(s3H4)", removed, assigned))
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
            outside = _min_excluding(tv2 | tu4, tu3, "chain far pair", trace)
            if outside in tv2:
                pv2, pu4 = outside, min(tu4)
            else:
                pv2, pu4 = min(tv2), outside
        put(v2, pv2)
        put(u4, pu4)
        if len(tu3 - {pv2, pu4}) < 2:
            raise SolverInternalError("middle list lost too many colors", tuple(trace))
        trace.append(TraceStep("EarChain(s3H5)", removed, assigned))
        extend(0)
        late: dict[int, int] = {}
        gmid = _min_unique(g, colors, v2, f"junction {v2}", trace)
        cu2 = _min_excluding(lists[u2], {pv2, pu4, gmid}, "chain ear", trace)
        colors[u2] = cu2
        late[u2] = cu2
        cu3 = _min_excluding(tu3, {pv2, cu2, pu4}, "chain ear", trace)
        colors[u3] = cu3
        late[u3] = cu3
        trace.append(TraceStep("EarChain(s3H5)", (), late))
    else:
        raise SolverInternalError(f"closing ear of size {rlast} in chain case", tuple(trace))


_STEPS = {
    KIND_K2: _step_pendant,
    KIND_CYCLE: _step_cycle,
    KIND_GOOD_EAR: _step_good_ear,
    KIND_LONG_EAR: _step_long_ear,
    KIND_EAR_CHAIN: _step_ear_chain,
}
