"""Core objects of list coloring: list assignments, colorings, verification.

A coloring is *proper conflict-free* (PCF) when it is proper and every
vertex with at least one neighbor has some color that appears exactly once
in its neighborhood.  `verify` checks that definition directly and reports
every violation; it is the single source of truth the rest of the package
(and its tests) are measured against.

`unique_colors` and `verify` walk each adjacency once and count colors
with two sets, the colors seen once and the colors seen more than once;
in `verify` that one walk also finds the clashing and the uncolored
neighbors, and a vertex of degree 1 or 2 needs no sets.  `unique_colors`
runs on coloring steps of the solver and `verify` on every coloring
either engine returns, so both keep to one walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph

# A partial coloring: colors[v] is None while v is uncolored.
Coloring = list["int | None"]


class ListAssignment:
    """One finite color list per vertex, immutable."""

    __slots__ = ("lists",)

    def __init__(self, lists: Iterable[Iterable[int]]):
        out = []
        for lst in lists:
            lst = tuple(lst)  # checked as given: a set would merge True and 1.0 into 1
            for c in lst:  # an exact int skips both isinstance tests
                if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)) or c < 1:
                    raise ValueError(f"colors must be positive integers, got {c!r}")
            out.append(frozenset(lst))
        self.lists = tuple(out)

    def __len__(self) -> int:
        return len(self.lists)

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]

    def __iter__(self):
        return iter(self.lists)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ListAssignment):
            return NotImplemented
        return self.lists == other.lists

    def __hash__(self) -> int:
        return hash(self.lists)

    def __repr__(self) -> str:
        return f"ListAssignment({[sorted(l) for l in self.lists]})"

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(l) for l in self.lists)

    def with_list(self, v: int, colors: Iterable[int]) -> "ListAssignment":
        new = list(self.lists)
        new[v] = frozenset(colors)
        return ListAssignment(new)

    def to_json(self) -> dict:
        return {"lists": [sorted(l) for l in self.lists]}

    @classmethod
    def from_json(cls, data: dict) -> "ListAssignment":
        if not isinstance(data, dict) or "lists" not in data:
            raise ValueError("expected an object with a 'lists' key")
        lists = data["lists"]
        if not isinstance(lists, list) or not all(isinstance(l, list) for l in lists):
            raise ValueError("'lists' must be a list of lists of integers")
        return cls(lists)


def coloring_to_json(colors: Sequence[int | None]) -> dict:
    return {"colors": list(colors)}


_COLOR_TYPES = frozenset({int, type(None)})  # what JSON decodes a valid color entry to


def coloring_from_json(data: dict) -> Coloring:
    if not isinstance(data, dict) or "colors" not in data:
        raise ValueError("expected an object with a 'colors' key")
    colors = data["colors"]
    if not isinstance(colors, list):
        raise ValueError("'colors' must be a list")
    if not set(map(type, colors)) <= _COLOR_TYPES:  # one pass in C; the loop names the first bad value
        for c in colors:
            if c is not None and (not isinstance(c, int) or isinstance(c, bool)):
                raise ValueError(f"colors must be integers or null, got {c!r}")
    return list(colors)


def unique_colors(g: Graph, colors: Sequence[int | None], v: int) -> set[int]:
    """Colors appearing exactly once among the already-colored neighbors of v."""
    once: set[int] = set()
    more: set[int] = set()
    for w in g.neighbors(v):
        c = colors[w]
        if c is None or c in more:
            continue
        if c in once:
            once.remove(c)
            more.add(c)
        else:
            once.add(c)
    return once


UNCOLORED = "uncolored"
COLOR_NOT_IN_LIST = "color_not_in_list"
NOT_PROPER = "not_proper"
NO_UNIQUE_NEIGHBOR_COLOR = "no_unique_neighbor_color"


@dataclass(frozen=True)
class Violation:
    vertex: int
    reason: str
    other: int | None = None  # for not_proper, the clashing neighbor

    def describe(self) -> str:
        if self.reason == NOT_PROPER:
            return f"vertex {self.vertex}: same color as neighbor {self.other}"
        if self.reason == NO_UNIQUE_NEIGHBOR_COLOR:
            return f"vertex {self.vertex}: no color appears exactly once in its neighborhood"
        if self.reason == COLOR_NOT_IN_LIST:
            return f"vertex {self.vertex}: color not in its list"
        return f"vertex {self.vertex}: uncolored"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify(
    g: Graph,
    colors: Sequence[int | None],
    lists: ListAssignment | None = None,
) -> Verdict:
    """Check a coloring against the proper conflict-free definition.

    Uncolored vertices are reported, and the unique-neighbor-color test for
    a vertex only fires once its whole neighborhood is colored, so partial
    colorings can be checked for the constraints they already pin down.
    """
    if len(colors) != g.n:
        raise ValueError(f"coloring has {len(colors)} entries for a graph on {g.n} vertices")
    if lists is not None and len(lists) != g.n:
        raise ValueError(f"list assignment has {len(lists)} entries for a graph on {g.n} vertices")
    ls = lists.lists if isinstance(lists, ListAssignment) else lists
    violations: list[Violation] = []
    for v, nb in enumerate(g.adjacency):
        c = colors[v]
        if c is None:
            violations.append(Violation(v, UNCOLORED))
            continue
        if ls is not None and c not in ls[v]:
            violations.append(Violation(v, COLOR_NOT_IN_LIST))
        if len(nb) <= 2:  # no sets: two neighbors lack a unique color only if they agree
            for w in nb:
                if colors[w] == c:
                    violations.append(Violation(v, NOT_PROPER, other=w))
            if len(nb) == 2 and colors[nb[0]] == colors[nb[1]] is not None:
                violations.append(Violation(v, NO_UNIQUE_NEIGHBOR_COLOR))
            continue
        # one walk: clashes, holes, and the colors seen once / more than once
        hole = False
        once: set[int] = set()
        more: set[int] = set()
        for w in nb:
            d = colors[w]
            if d is None:
                hole = True
                continue
            if d == c:
                violations.append(Violation(v, NOT_PROPER, other=w))
            if d in more:
                continue
            if d in once:
                once.remove(d)
                more.add(d)
            else:
                once.add(d)
        if nb and not hole and not once:
            violations.append(Violation(v, NO_UNIQUE_NEIGHBOR_COLOR))
    return Verdict(not violations, tuple(violations))


def degree_plus_k_lists(
    g: Graph,
    k: int,
    universe: Sequence[int],
    rng: random.Random | int,
) -> ListAssignment:
    """Random list assignment with |L(v)| = deg(v) + k, drawn from universe."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    pool = sorted(set(universe))
    need = (g.max_degree() if g.n else 0) + k
    if len(pool) < need:
        raise ValueError(f"universe of size {len(pool)} too small for lists of size {need}")
    return ListAssignment(rng.sample(pool, g.degree(v) + k) for v in range(g.n))
