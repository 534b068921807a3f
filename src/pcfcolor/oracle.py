"""Exhaustive search engines for proper conflict-free list coloring.

Everything here is brute force with sound pruning, intended for small
graphs and for cross-checking the constructive solver.  An exceeded node
budget always raises or reports inconclusive; it is never folded into an
unsatisfiable answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph
from .kernel import Coloring, ListAssignment, unique_colors, verify

DEFAULT_BUDGET = 10**8

SAT = "sat"
UNSAT = "unsat"


class BudgetExceededError(Exception):
    """The search used up its node budget before reaching an answer."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class OracleResult:
    status: str  # SAT or UNSAT
    coloring: "Coloring | None"
    nodes: int


def solve_exact(g: Graph, lists: ListAssignment, budget: int = DEFAULT_BUDGET) -> OracleResult:
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


def pcf_chromatic_number(g: Graph, max_k: int = 16, budget: int = DEFAULT_BUDGET) -> int | None:
    """Smallest k such that colors {1..k} admit a PCF coloring, or None past max_k."""
    if g.n == 0:
        return 0
    for k in range(1, max_k + 1):
        lists = ListAssignment([range(1, k + 1)] * g.n)
        if solve_exact(g, lists, budget).status == SAT:
            return k
    return None


NON_CHOOSABLE = "non_choosable"
CHOOSABLE_EXHAUSTED = "choosable_exhausted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RefuteResult:
    status: str
    witness: "ListAssignment | None"
    assignments_checked: int
    nodes: int


def _signature(n: int, lists: list[tuple[int, ...]]) -> tuple:
    incidence: dict[int, list[int]] = {}
    for v, lst in enumerate(lists):
        for c in lst:
            incidence.setdefault(c, []).append(v)
    return tuple(sorted(tuple(vs) for vs in incidence.values()))


def refute_choosability(
    g: Graph,
    k: int,
    universe_bound: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> RefuteResult:
    """Search for a (degree+k)-list assignment with no PCF coloring.

    Assignments are enumerated up to renaming of colors: scanning vertices
    in index order, each list takes some already-used colors plus a block
    of fresh ones, and structurally identical assignments are skipped.
    Assignments that reuse few colors come first, so tight uniform lists
    are tried early.
    """
    sizes = [g.degree(v) + k for v in range(g.n)]
    cap = sum(sizes)
    if universe_bound is not None:
        cap = min(cap, universe_bound)
    nodes = 0
    checked = 0
    seen: set[tuple] = set()

    def assignments(v: int, used: int, prefix: list[tuple[int, ...]]):
        if v == g.n:
            yield list(prefix)
            return
        s = sizes[v]
        for fresh in range(0, s + 1):
            if used + fresh > cap or s - fresh > used:
                continue
            new_block = tuple(range(used + 1, used + fresh + 1))
            for old in combinations(range(1, used + 1), s - fresh):
                prefix.append(old + new_block)
                yield from assignments(v + 1, used + fresh, prefix)
                prefix.pop()

    for lists in assignments(0, 0, []):
        sig = _signature(g.n, lists)
        if sig in seen:
            continue
        seen.add(sig)
        assignment = ListAssignment(lists)
        try:
            result = solve_exact(g, assignment, budget - nodes)
        except BudgetExceededError as exc:
            return RefuteResult(INCONCLUSIVE, None, checked, nodes + exc.nodes)
        nodes += result.nodes
        checked += 1
        if result.status == UNSAT:
            return RefuteResult(NON_CHOOSABLE, assignment, checked, nodes)
    return RefuteResult(CHOOSABLE_EXHAUSTED, None, checked, nodes)
