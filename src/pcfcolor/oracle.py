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

Neither entry point that ranges over colors repeats work that only renames
them: the chromatic-number search on {1..k} lists tries colors in
first-use order, and the choosability refutation generates one list
assignment per renaming class directly.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_budget(budget: int) -> None:
    """A negative budget is an input error, not a budget already used up."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


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

    `nodes` counts the colors tried; a call that would try more than
    `budget` raises `BudgetExceededError`.  A coloring found is checked by
    `verify`, and one it rejects raises `AssertionError`.  A negative
    `budget` raises `ValueError`.
    """
    _check_budget(budget)
    if len(lists) != g.n:
        raise ValueError(f"list assignment has {len(lists)} entries for a graph on {g.n} vertices")
    colors, nodes = _search(g, [sorted(lists[v]) for v in range(g.n)], budget, first_use=False)
    if colors is None:
        return OracleResult(UNSAT, None, nodes)
    return OracleResult(SAT, _verified(g, colors, lists), nodes)


def _search(
    g: Graph, palette: list[list[int]], budget: int, first_use: bool
) -> tuple["Coloring | None", int]:
    """The backtracking search behind `solve_exact` and `pcf_chromatic_number`:
    the first coloring found from the ascending lists `palette`, or None,
    and the number of nodes searched.

    Each vertex w keeps three counters over its neighbors: `left[w]`, how
    many are uncolored; `cnt[w]`, how many colored ones have each color;
    and `ones[w]`, how many colors appear exactly once.  Coloring or
    uncoloring v updates them in one walk of N(v), so a search node costs
    O(deg v): c clashes when `c in cnt[v]`, and the branch dies when some
    w in N[v] with a neighbor has `left[w]` and `ones[w]` both 0.

    With `first_use`, which is sound only when every list is [1..k], the
    search skips colorings that merely rename colors: every orbit under
    permutations of {1..k} has one member whose colors first appear in
    increasing order along the vertex order, so a position tries only the
    colors up to one more than the largest used before it.  Neither a
    clash nor a dead end depends on the names of the colors, so the answer
    is unchanged, and so is the first coloring found: the least one in
    lexicographic order is already in first-use order.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    colors: Coloring = [None] * n
    left = [len(nb) for nb in adj]
    cnt: list[dict[int, int]] = [{} for _ in range(n)]
    ones = [0] * n
    nodes = 0

    # Depth-first over positions without recursion, so any number of
    # vertices fits: nxt[pos] is the palette index to try next at pos,
    # room[v] the number of v's colors to try, and each pass of the loop
    # takes one search node or one step back.  Under `first_use`, room[v]
    # is one more than the number of colors used before v's position, all
    # of them the smallest, and at most k.
    nxt = [0] * n
    room = list(map(len, palette))
    if first_use and n:
        room[order[0]] = min(room[order[0]], 1)
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
        i = nxt[pos]
        if i == room[v]:
            nxt[pos] = 0
            pos -= 1
            continue
        c = palette[v][i]
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
            if first_use and pos < n:
                u = order[pos]
                room[u] = min(len(palette[u]), max(room[v], i + 2))

    return (colors if pos == n else None), nodes


def _verified(g: Graph, colors: Coloring, lists: ListAssignment) -> Coloring:
    """`colors`, once `verify` accepts it; otherwise `AssertionError`,
    which `python -O` does not strip as it would an `assert`."""
    verdict = verify(g, colors, lists)
    if not verdict.ok:
        raise AssertionError(f"oracle produced an invalid coloring: {verdict.violations}")
    return colors


def pcf_chromatic_number(g: Graph, max_k: int = 16, budget: int = DEFAULT_BUDGET) -> int | None:
    """Smallest k such that colors {1..k} admit a PCF coloring, or None past max_k.

    Each k is decided by the search of `solve_exact` with the renamings of
    {1..k} skipped (first-use color order), so `budget` bounds the nodes of
    that symmetry-broken search, for each k on its own; a search that would
    exceed it raises `BudgetExceededError`, and a negative one `ValueError`.
    A coloring found is still checked by `verify`.
    """
    _check_budget(budget)
    if g.n == 0:
        return 0
    for k in range(1, max_k + 1):
        palette = [list(range(1, k + 1))] * g.n
        colors, _ = _search(g, palette, budget, first_use=True)
        if colors is not None:
            _verified(g, colors, ListAssignment(palette))
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


def _takes(runs: list[int], r: int):
    """Every way to take r colors from runs of runs[0], runs[1], ...
    colors, as the count taken from each run, in decreasing lexicographic
    order: taking the smallest colors of each run, that is increasing
    lexicographic order of the colors taken.  Each next way takes one
    color fewer from the last run that can, and refills the later runs."""
    take = [0] * len(runs)
    i, tail = -1, r  # refill the runs after run i with tail colors
    while True:
        for j in range(i + 1, len(runs)):
            take[j] = min(runs[j], tail)
            tail -= take[j]
        if tail:
            return
        yield tuple(take)
        tail = room = 0  # the colors taken from, and held by, the runs after run i
        for i in range(len(runs) - 1, -1, -1):
            if take[i] and tail < room:
                take[i] -= 1
                tail += 1
                break
            tail += take[i]
            room += runs[i]
        else:
            return


def refute_choosability(
    g: Graph,
    k: int,
    universe_bound: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> RefuteResult:
    """Search for a (degree+k)-list assignment with no PCF coloring.

    Assignments are generated one per class under renaming of colors:
    scanning vertices in index order, each list takes some already-used
    colors plus a block of fresh ones.  Colors held by the same vertices so
    far are interchangeable, and they form runs of consecutive colors, so
    a list takes only the smallest colors of each run; that yields the
    first member, in this order, of every renaming class exactly once, with
    no set of seen assignments.  Assignments that reuse few colors come
    first, so tight uniform lists are tried early.  A negative k or
    budget, or a `universe_bound` too small for the largest list, raises
    `ValueError`: no assignment would be checked.
    """
    _check_budget(budget)
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

    # runs: the lengths of the runs that split colors 1..used, in order,
    # each run the colors held by the same vertices before v
    def assignments(v: int, used: int, runs: list[int], prefix: list[tuple[int, ...]]):
        if v == g.n:
            yield list(prefix)
            return
        s = sizes[v]
        for fresh in range(max(0, s - used), min(s, cap - used) + 1):
            for take in _takes(runs, s - fresh):
                lst: list[int] = []
                split: list[int] = []
                start = 1
                for run, t in zip(runs, take):
                    if t:
                        lst.extend(range(start, start + t))
                        split.append(t)
                    if t < run:
                        split.append(run - t)
                    start += run
                lst.extend(range(used + 1, used + fresh + 1))
                if fresh:
                    split.append(fresh)
                prefix.append(tuple(lst))
                yield from assignments(v + 1, used + fresh, split, prefix)
                prefix.pop()

    for lists in assignments(0, 0, [], []):
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
