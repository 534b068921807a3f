"""Exhaustive search engines for proper conflict-free list coloring.

Everything here is brute force with sound pruning, intended for small
graphs and for cross-checking the constructive solver.  An exceeded node
budget always raises or reports inconclusive; it is never folded into an
unsatisfiable answer.

The backtracking search keeps, for every vertex, counts of the colors
around it and of its uncolored neighbors, updated as vertices are colored
and uncolored, so each search node costs O(deg v) for the vertex v it
colors rather than a rescan of every neighborhood around v.  A SAT answer
is re-checked by `verify` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph
# the search counts colors itself; `unique_colors` stays importable here
# because perfbench's per-layer counter looks it up on this module
from .kernel import Coloring, ListAssignment, unique_colors, verify  # noqa: F401

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

    Each vertex w keeps three counters over its neighbors: `left[w]`, how
    many are uncolored; `cnt[w]`, how many colored ones have each color;
    and `ones[w]`, how many colors appear exactly once.  Coloring or
    uncoloring v updates them in one walk of N(v), so a search node costs
    O(deg v): c clashes when `c in cnt[v]`, and the branch dies when some
    w in N[v] with a neighbor has `left[w]` and `ones[w]` both 0.

    `nodes` counts the colors tried; a call that would try more than
    `budget` raises `BudgetExceededError`.  A coloring found is checked by
    `verify`, and one it rejects raises `AssertionError`.
    """
    if len(lists) != g.n:
        raise ValueError(f"list assignment has {len(lists)} entries for a graph on {g.n} vertices")
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    palette = [sorted(lists[v]) for v in range(n)]
    colors: Coloring = [None] * n
    left = [len(nb) for nb in adj]
    cnt: list[dict[int, int]] = [{} for _ in range(n)]
    ones = [0] * n
    nodes = 0

    # Depth-first over positions without recursion, so any number of
    # vertices fits: nxt[pos] is the palette index to try next at pos, and
    # each pass of the loop takes one search node or one step back.
    nxt = [0] * n
    pos = 0
    while 0 <= pos < n:
        v = order[pos]
        nb = adj[v]
        c = colors[v]
        if c is not None:  # a dead end or a step back: take back v's color
            colors[v] = None
            for w in nb:
                left[w] += 1
                seen = cnt[w]
                k = seen[c]
                if k == 1:
                    del seen[c]
                    ones[w] -= 1
                else:
                    seen[c] = k - 1
                    if k == 2:
                        ones[w] += 1
        pal = palette[v]
        i = nxt[pos]
        if i == len(pal):
            nxt[pos] = 0
            pos -= 1
            continue
        c = pal[i]
        nxt[pos] = i + 1
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes)
        # a clash, or v's neighbors all colored and none of them uniquely
        if c in cnt[v] or (nb and not left[v] and not ones[v]):
            continue
        colors[v] = c
        dead = False
        for w in nb:
            left[w] -= 1
            seen = cnt[w]
            k = seen.get(c, 0)
            seen[c] = k + 1
            if k == 0:
                ones[w] += 1
            elif k == 1:
                ones[w] -= 1
            if not left[w] and not ones[w]:
                dead = True
        if not dead:
            pos += 1

    if pos == n:
        verdict = verify(g, colors, lists)
        if not verdict.ok:
            raise AssertionError(f"oracle produced an invalid coloring: {verdict.violations}")
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
    are tried early.  A negative k, or a `universe_bound` too small for
    the largest list, raises `ValueError`: no assignment would be checked.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    sizes = [g.degree(v) + k for v in range(g.n)]
    cap = sum(sizes)
    if universe_bound is not None:
        largest = max(sizes, default=0)
        if universe_bound < largest:
            raise ValueError(f"universe bound {universe_bound} is below the largest list size {largest}")
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
