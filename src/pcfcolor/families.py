"""Generators: tight instance families and outerplanar graph corpora.

The named instances package a graph together with the color lists that
make it extremal:

- the 5-cycle with five identical 4-element lists (the unique connected
  outerplanar obstruction at list size degree+2),
- two-terminal graphs of three internally disjoint paths (lengths 1, l1,
  l2 with l1 = l2 = 1 mod 3) that defeat lists of size degree+1,
- a gadget showing degree+1 fails even when only one vertex is short: a
  host graph with d+1 four-cycles glued to one vertex.

The corpora back exhaustive testing: isomorphism-free enumerations of
connected and of 2-connected outerplanar graphs, plus seeded samplers for
larger sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Edge, Graph, cycle_graph
from .kernel import ListAssignment
from .structure import is_outerplanar

EXPECTED_SAT = "sat"
EXPECTED_UNSAT = "unsat"


@dataclass(frozen=True)
class NamedInstance:
    name: str
    graph: Graph
    lists: "ListAssignment | None"
    expected: str


def c5_uniform(palette=(1, 2, 3, 4)) -> NamedInstance:
    """The obstruction: a 5-cycle whose five lists are one 4-element set."""
    pal = frozenset(palette)
    if len(pal) != 4:
        raise ValueError("the obstruction needs exactly 4 distinct colors")
    return NamedInstance(
        "c5-uniform", cycle_graph(5), ListAssignment([pal] * 5), EXPECTED_UNSAT
    )


def theta(a: int, b: int, c: int) -> Graph:
    """Two degree-3 terminals joined by internally disjoint paths of the
    given lengths.  Terminals are vertices 0 and 1; each path longer than
    one edge contributes its interior vertices in order."""
    lengths = (a, b, c)
    if any(p < 1 for p in lengths):
        raise ValueError("path lengths must be positive")
    if sum(p == 1 for p in lengths) > 1:
        raise ValueError("two length-1 paths would be parallel edges")
    edges: list[Edge] = []
    nxt = 2
    for p in lengths:
        if p == 1:
            edges.append((0, 1))
            continue
        prev = 0
        for _ in range(p - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


def theta_hard_lists(l1: int, l2: int) -> NamedInstance:
    """A two-terminal instance with degree+1 lists and no valid coloring.

    Requires l1, l2 >= 4 and both = 1 mod 3.  The terminals (degree 3) get
    {1,2,3,4} and every path interior (degree 2) gets {1,2,3}.
    """
    for p in (l1, l2):
        if p < 4 or p % 3 != 1:
            raise ValueError("path lengths must be at least 4 and equal 1 mod 3")
    g = theta(1, l1, l2)
    lists = [
        frozenset({1, 2, 3, 4}) if v < 2 else frozenset({1, 2, 3}) for v in range(g.n)
    ]
    return NamedInstance(
        f"theta-1-{l1}-{l2}", g, ListAssignment(lists), EXPECTED_UNSAT
    )


def degree_plus_one_gadget(host: Graph, v0: int) -> NamedInstance:
    """Glue d+1 four-cycles to vertex v0 of the host (d = its host degree).

    Host vertices keep their ids; cycle i adds three vertices with the
    private list {3i-2, 3i-1, 3i}, v0 gets {1, ..., 3d+3}, and every other
    host vertex u gets {1, ..., deg(u)+1}.  All lists have size degree+1,
    only v0's neighborhood is overconstrained, and no coloring exists.
    """
    if not 0 <= v0 < host.n:
        raise ValueError("v0 must be a host vertex")
    if not host.is_connected():
        raise ValueError("host must be connected")
    if not is_outerplanar(host):
        raise ValueError("host must be outerplanar")
    d = host.degree(v0)
    edges = list(host.edges())
    lists: list[frozenset[int]] = [
        frozenset(range(1, host.degree(u) + 2)) for u in range(host.n)
    ]
    nxt = host.n
    for i in range(1, d + 2):
        a, b, c = nxt, nxt + 1, nxt + 2
        nxt += 3
        edges += [(v0, a), (a, b), (b, c), (v0, c)]
        private = frozenset({3 * i - 2, 3 * i - 1, 3 * i})
        lists += [private, private, private]
    lists[v0] = frozenset(range(1, 3 * d + 4))
    g = Graph(nxt, edges)
    if g.degree(v0) != 3 * d + 2:
        raise AssertionError("gadget degree bookkeeping broke")
    return NamedInstance(
        f"plus-one-gadget-{host.n}v-at-{v0}", g, ListAssignment(lists), EXPECTED_UNSAT
    )


# -- canonical forms and corpora -------------------------------------------


def canonical_form(g: Graph) -> tuple[int, tuple[Edge, ...]]:
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


@lru_cache(maxsize=None)
def enumerate_connected_outerplanar(n: int) -> tuple[Graph, ...]:
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
    for g in enumerate_connected_outerplanar(n - 1):
        base = list(g.edges())
        for mask in range(1, 1 << (n - 1)):
            extra = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
            h = Graph(n, base + extra)
            if not is_outerplanar(h):
                continue
            by_key.setdefault(canonical_form(h), h)
    return tuple(by_key[k] for k in sorted(by_key))


@lru_cache(maxsize=None)
def enumerate_two_connected_outerplanar(n: int) -> tuple[Graph, ...]:
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


def random_outerplanar(n: int, seed) -> Graph:
    """Seeded random connected outerplanar graph: either a tree, or a
    polygon with random non-crossing chords and pendant trees hung on it."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if n < 1:
        raise ValueError("need at least one vertex")
    if n <= 2:
        return Graph(n, [(0, 1)] if n == 2 else [])
    k = rng.choice([1] + list(range(3, n + 1)))
    edges: list[Edge] = []
    if k == 1:
        for t in range(1, n):
            edges.append((rng.randrange(t), t))
        return Graph(n, edges)
    edges += [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    chords: list[Edge] = []
    for _ in range(2 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        lo, hi = min(i, j), max(i, j)
        if hi - lo < 2 or (lo, hi) == (0, k - 1) or (lo, hi) in chords:
            continue
        if all(not (lo < p < hi < q or p < lo < q < hi) for p, q in chords):
            chords.append((lo, hi))
    edges += chords
    for t in range(k, n):
        edges.append((rng.randrange(t), t))
    return Graph(n, edges)


def random_cactus(n: int, seed) -> Graph:
    """Seeded random cactus: from vertex 0, hang bridges and cycles of 3 to
    6 vertices, each on a random earlier vertex, until n vertices exist.
    Every block is a bridge or a cycle."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if n < 1:
        raise ValueError("need at least one vertex")
    edges: list[Edge] = []
    t = 1
    while t < n:
        ring = [rng.randrange(t), *range(t, min(n, t + rng.randrange(1, 6)))]
        edges += zip(ring, ring[1:])
        if len(ring) >= 3:
            edges.append((ring[0], ring[-1]))
        t += len(ring) - 1
    return Graph(n, edges)
