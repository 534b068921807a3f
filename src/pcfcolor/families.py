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


def _refined_colors(g: Graph) -> list[int]:
    """Color refinement from the degrees: each vertex's color is the rank
    of (its color, its neighbors' sorted colors), repeated until a round
    splits no class.  Such a round would rank the colors onto themselves,
    so it ends the loop unapplied.  When every vertex has a color of its
    own, the loop ends at once: each signature then leads with a color
    no other has, so the next round could only be that round, and the
    colors returned are the ones it would have returned.  An automorphism
    maps every vertex to one of its own color."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    colors = [len(nb) for nb in nbrs]
    count = -1
    while True:
        get = colors.__getitem__
        sig = [(c, tuple(sorted(map(get, nb)))) for c, nb in zip(colors, nbrs)]
        distinct = set(sig)
        if len(distinct) == count:
            return colors
        rank = {s: i for i, s in enumerate(sorted(distinct))}
        colors = [rank[s] for s in sig]
        count = len(rank)
        if count == n:
            return colors


def canonical_form(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Isomorphism-invariant normal form: relabel within refinement classes
    to lexicographically minimize the adjacency rows, return the edges.

    Slots are filled class by class in color order; the row of a slot is
    the bit mask of the earlier slots its vertex is adjacent to.  The
    edges are those of a slot order with the least rows, relabeled by
    slot and sorted; two such orders give one edge set, since the rows
    are the adjacency.  When refinement leaves every vertex a color of
    its own, each class is one slot and there is one slot order, v at
    slot colors[v]: it is taken as it is, with no twin pass and no
    search, and gives the form the search would give, so every key and
    every order sorted by it stay the same."""
    n = g.n
    if n == 0:
        return (0, ())
    colors = _refined_colors(g)
    # colors are ranks from 0, so n of them means one vertex per color
    slot = colors if max(colors) == n - 1 else _least_slots(g, colors)
    at = slot.__getitem__
    edges = [(i, j) for i, nb in zip(slot, g.adjacency) for j in map(at, nb) if i < j]
    return (n, tuple(sorted(edges)))


def _least_slots(g: Graph, colors: list[int]) -> list[int]:
    """The slot of each vertex in a slot order with the least rows, for
    `canonical_form`, found by a depth-first search over the orders.

    The search tries one vertex per twin class at each slot.  Twins (two
    vertices with the same neighbors besides each other) have one color,
    and swapping two unplaced twins is an automorphism that fixes every
    placed vertex, so it maps the orderings that put one of them next onto
    those that put the other next, with the same rows: skipping the second
    leaves the minimum unchanged."""
    n = g.n
    adj = g.adjacency
    nbrs = [g.neighbor_set(v) for v in range(n)]
    classes: dict[int, list[int]] = {}
    twin = list(range(n))
    for v in range(n):
        members = classes.setdefault(colors[v], [])
        for u in members:
            if nbrs[u] ^ nbrs[v] <= {u, v}:
                twin[v] = twin[u]
                break
        members.append(v)
    slot_class = [classes[c] for c in sorted(classes) for _ in classes[c]]

    best: list[int] = []
    best_slot: list[int] = []
    slot_of = [-1] * n  # the slot of each placed vertex
    rows: list[int] = []

    def descend(i: int, tight: bool) -> bool:
        """Extend `rows` from slot i; `tight` says rows equals the prefix
        of `best` (false before the first leaf).  Returns whether `best`
        was replaced, after which rows is again its prefix."""
        nonlocal best, best_slot
        if i == n:
            if tight:
                return False
            best = rows.copy()
            best_slot = slot_of.copy()
            return True
        replaced = False
        tried = set()
        for v in slot_class[i]:
            if slot_of[v] >= 0 or twin[v] in tried:
                continue
            tried.add(twin[v])
            row = 0
            for w in adj[v]:
                j = slot_of[w]
                if j >= 0:
                    row |= 1 << j
            if tight and row > best[i]:
                continue
            rows.append(row)
            slot_of[v] = i
            if descend(i + 1, tight and row == best[i]):
                replaced = tight = True
            slot_of[v] = -1
            rows.pop()
        return replaced

    descend(0, False)
    return best_slot


def _automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of g as a tuple p with p[v] the image of v, the
    identity first: a search that maps 0, 1, ... in turn onto unused
    vertices of the same refined color, keeping adjacency to the vertices
    mapped so far."""
    n = g.n
    colors = _refined_colors(g)
    nbrs = [g.neighbor_set(v) for v in range(n)]
    image = list(range(n))
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def extend(v: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if used[w] or colors[w] != colors[v]:
                continue
            if any((u in nbrs[v]) != (image[u] in nbrs[w]) for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False

    extend(0)
    return tuple(found)


# the largest n each enumerator takes: both are exponential in n
CONNECTED_MAX_N = 9
TWO_CONNECTED_MAX_N = 12


@lru_cache(maxsize=None)
def enumerate_connected_outerplanar(n: int) -> tuple[Graph, ...]:
    """All connected outerplanar graphs on n vertices, one per isomorphism
    class.  Grows each (n-1)-vertex graph by one vertex attached to every
    nonempty subset; some deletion order reaches every class because every
    connected graph has a vertex whose removal keeps it connected.

    Candidates are taken parent by parent in tuple order, each parent's
    subsets as ascending bit masks; each class keeps the first outerplanar
    candidate reached, and the result is sorted by `canonical_form`.

    Outerplanarity is tested once per class, not once per candidate: each
    candidate's key comes first, a key already kept has passed and a key
    in the call's local set of failed keys has failed, since isomorphic
    graphs are both outerplanar or both not.  Only a new key is tested.
    So each candidate gets the verdict a test of its own would give, the
    same candidate is the first outerplanar one of its class, and the
    same keys sort the result.  A candidate is skipped, with no `Graph`
    built, when it provably cannot be the first of a new class:

    - its edges exceed 2n - 3, which no outerplanar graph on n >= 2
      vertices has;
    - dropping one of its new edges gives a candidate found not
      outerplanar: that candidate is a subgraph, outerplanarity is closed
      under subgraphs, and every submask is a smaller number, so it was
      judged first;
    - an automorphism of the parent maps its mask to a smaller one: the
      automorphism, extended by fixing the new vertex, is an isomorphism
      from this candidate to that earlier one, so both have the same
      outerplanarity and class, and the earlier one came first.

    A one-edge (pendant) extension of an outerplanar graph is outerplanar,
    so it is counted without a test."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > CONNECTED_MAX_N:
        raise ValueError(f"enumeration is exponential; capped at {CONNECTED_MAX_N} vertices")
    if n == 1:
        return (Graph(1, ()),)
    k = n - 1
    verts = [tuple(v for v in range(k) if mask >> v & 1) for mask in range(1 << k)]
    by_key: dict = {}
    failed = set()  # the keys of the classes found not outerplanar
    for g in enumerate_connected_outerplanar(k):
        adj = [g.neighbors(v) for v in range(k)]
        room = 2 * n - 3 - g.m
        others = _automorphisms(g)[1:]
        passed = bytearray(1 << k)  # the candidate of each mask is outerplanar
        passed[0] = 1
        first = [0] * (1 << k)  # the smaller mask in the same orbit, if any
        for mask in range(1, 1 << k):
            ends = verts[mask]
            if len(ends) > room:
                continue
            if first[mask]:
                passed[mask] = passed[first[mask]]
                continue
            if not all(passed[mask ^ 1 << v] for v in ends):
                continue
            for p in others:
                image = sum(1 << p[v] for v in ends)
                if image > mask:
                    first[image] = mask
            child = [nb + (k,) if mask >> v & 1 else nb for v, nb in enumerate(adj)]
            h = Graph._trusted(n, child + [ends])  # k tops every old list, so each stays sorted
            key = canonical_form(h)
            if key not in by_key:
                if key in failed:
                    continue
                if len(ends) > 1 and not is_outerplanar(h):
                    failed.add(key)
                    continue
                by_key[key] = h
            passed[mask] = 1
    return tuple(by_key[key] for key in sorted(by_key))


@lru_cache(maxsize=None)
def enumerate_two_connected_outerplanar(n: int) -> tuple[Graph, ...]:
    """All 2-connected outerplanar graphs on n vertices up to isomorphism:
    an n-gon plus each non-crossing chord set, deduplicated under the
    dihedral symmetries.  That exhausts the class because such a graph has
    a unique Hamiltonian cycle, which any isomorphism must respect.

    Chord sets are visited depth first with chords in lexicographic order,
    and each class keeps the first one visited.  Two chord sets are in one
    class exactly when they have the same smallest image, as a bit mask
    over the chords, under the 2n rotations and reflections; the images of
    a set grow one chord at a time from precomputed chord permutations.
    The sort key, the smallest image as a sorted edge list, is computed
    once per class."""
    if n < 3:
        raise ValueError("2-connected graphs need at least 3 vertices")
    if n > TWO_CONNECTED_MAX_N:
        raise ValueError(f"dissection enumeration capped at {TWO_CONNECTED_MAX_N} vertices")
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

    bit = {c: 1 << i for i, c in enumerate(chords)}
    # the bit of each chord's image under every map, the identity first
    images = [
        tuple(bit[tuple(sorted((f(a), f(b))))] for f in maps) for a, b in chords
    ]
    crossed = [
        sum(bit[d] for d in chords if a < d[0] < b < d[1] or d[0] < a < d[1] < b)
        for a, b in chords
    ]
    found: dict[int, tuple[tuple, Graph]] = {}
    chosen: list[Edge] = []

    def grow(start: int, masks: list[int]) -> None:
        least = min(masks)
        if least not in found:
            found[least] = (key_of(chosen), Graph(n, rim + chosen))
        for idx in range(start, len(chords)):
            if not crossed[idx] & masks[0]:
                chosen.append(chords[idx])
                grow(idx + 1, [m | b for m, b in zip(masks, images[idx])])
                chosen.pop()

    grow(0, [0] * len(maps))
    return tuple(g for _, g in sorted(found.values(), key=lambda kg: kg[0]))


def random_outerplanar(n: int, seed) -> Graph:
    """Seeded random connected outerplanar graph: either a tree, or a
    polygon with random non-crossing chords and pendant trees hung on it.

    It builds through `Graph._trusted`, unchecked, because every edge is
    valid by construction, as the enumerator's children are: a tree or
    pendant edge joins a new vertex t to one below it, and a chord joins two
    polygon vertices at least two apart and is kept only if it is new.  So
    no edge is a loop or a repeat, and once each polygon vertex's cycle and
    chord neighbors are sorted, every list stays sorted: a vertex's parent
    comes first and its children, all above it, come in the order they are
    made."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if n < 1:
        raise ValueError("need at least one vertex")
    if n <= 2:
        return Graph._trusted(n, [[1], [0]] if n == 2 else [[]])
    k = rng.choice([1] + list(range(3, n + 1)))
    adj: list[list[int]] = [[] for _ in range(n)]
    if k > 1:
        chords: list[Edge] = []  # in the order found: the first, long ones cross the most candidates
        seen: set[Edge] = set()
        for _ in range(2 * k):
            i, j = rng.randrange(k), rng.randrange(k)
            lo, hi = (i, j) if i < j else (j, i)
            if hi - lo < 2 or (lo, hi) == (0, k - 1) or (lo, hi) in seen:
                continue
            for p, q in chords:
                if lo < p < hi < q or p < lo < q < hi:
                    break
            else:
                chords.append((lo, hi))
                seen.add((lo, hi))
        for v in range(k):
            adj[v] += ((v - 1) % k, (v + 1) % k)
        for lo, hi in chords:
            adj[lo].append(hi)
            adj[hi].append(lo)
        for nb in adj[:k]:
            nb.sort()
    for t in range(k, n):
        u = rng.randrange(t)
        adj[u].append(t)
        adj[t].append(u)
    return Graph._trusted(n, adj)


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
