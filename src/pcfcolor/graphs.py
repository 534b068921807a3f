"""Simple undirected graphs on dense integer vertices, plus graph6 and edge-list I/O.

Vertices are always 0..n-1.  Adjacency is stored sorted so that every
iteration order in the package is deterministic.  A build keeps n, m and
the adjacency; neighbor sets and the edge tuple are made on first use.
`Graph(n, edges)` checks its input; the one private builder, `_trusted`,
takes a valid sorted adjacency unchecked (graph6 input, enumerated graphs,
`random_outerplanar`).
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph.  Build once, then only query."""

    __slots__ = ("_n", "_m", "_adj", "_adj_sets", "_edges", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = normalize_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        for nb in adj:
            nb.sort()
        self._fill(n, adj)

    @classmethod
    def _trusted(cls, n: int, adj) -> "Graph":
        """The graph with adjacency `adj`, unchecked: for builders whose lists
        are sorted, symmetric, in range, loop-free and repeat-free by construction."""
        g = cls.__new__(cls)
        g._fill(n, adj)
        return g

    def _fill(self, n: int, adj) -> None:
        self._n = n
        self._adj = tuple(map(tuple, adj))
        self._m = sum(map(len, self._adj)) // 2
        self._adj_sets = self._edges = self._hash = None  # made on first use

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's sorted neighbor tuple, indexed by vertex."""
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        if self._adj_sets is None:
            self._adj_sets = tuple(map(frozenset, self._adj))
        return self._adj_sets[v]

    __getitem__ = neighbor_set  # g[v]: the ear search reads any vertex -> neighbor set mapping

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_set(u)

    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = tuple((u, v) for u, nb in enumerate(self._adj) for v in nb if u < v)
        return self._edges

    def vertices(self) -> range:
        return range(self.n)

    def max_degree(self) -> int:
        return max((len(nb) for nb in self._adj), default=0)

    # -- connectivity ----------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Components as sorted vertex lists, ordered by smallest member."""
        seen = [False] * self.n
        parts: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            queue = deque([start])
            part = [start]
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        part.append(w)
                        queue.append(w)
            part.sort()
            parts.append(part)
        return parts

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the map new index -> old index.

        All vertex renumbering in the package goes through here; the kept
        vertices are sorted, so new index order matches old index order.
        """
        kept = sorted(set(vertices))
        index_of = {old: new for new, old in enumerate(kept)}
        for old in kept:
            if not (0 <= old < self.n):
                raise ValueError(f"vertex {old} out of range")
        sub_edges = [
            (index_of[u], index_of[v])
            for u, v in self.edges()
            if u in index_of and v in index_of
        ]
        return Graph(len(kept), sub_edges), tuple(kept)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._adj))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- graph6 format ---------------------------------------------------------
#
# Standard 6-bit encoding: header char(s) for n, then the upper triangle of
# the adjacency matrix in column-major order (bit (u,v) for u<v ordered by
# v, then u), packed into 6-bit chunks, each chunk + 63 as a byte.  Bit k
# of the body is pair (u, v) with k = v(v-1)/2 + u; both directions work
# on whole chunks and touch single bits only for edges.  The parser visits
# only nonzero chunks; their bits come in increasing k, so its adjacency
# lists grow sorted and `Graph._trusted` builds the graph.

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
_G6_TO_CHAR = bytes((i + 63) & 0xFF for i in range(256))
_G6_FROM_CHAR = bytes((i - 63) & 0xFF for i in range(256))
_G6_INVALID = re.compile(r"[^?-~]")
_G6_NONZERO = re.compile(rb"[^\x00]")


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = chr(n + 63)
    elif n <= _G6_MAX_LONG:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError(f"graph6 writer supports n <= {_G6_MAX_LONG}, got {n}")
    chunks = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges():
        k = v * (v - 1) // 2 + u
        chunks[k // 6] |= 32 >> (k % 6)
    return head + chunks.translate(_G6_TO_CHAR).decode("ascii")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    bad = _G6_INVALID.search(s)
    if bad:
        raise ValueError(f"invalid graph6 character {bad.group()!r}")
    vals = s.encode("ascii").translate(_G6_FROM_CHAR)
    if vals[0] == 63:
        if len(vals) < 4:
            raise ValueError("truncated graph6 header")
        if vals[1] == 63:
            raise ValueError("graph6 strings for n > 258047 are not supported")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    if need and body[-1] & ((1 << (6 * need - nbits)) - 1):
        raise ValueError("nonzero padding bits in graph6 string")
    adj: list[list[int]] = [[] for _ in range(n)]
    v, first = 1, 0  # bits first .. first + v - 1 hold column v
    for chunk in _G6_NONZERO.finditer(body):
        j = chunk.start()
        x = body[j]
        while x:  # one turn per set bit, the highest (lowest k) first
            top = x.bit_length()
            x ^= 1 << (top - 1)
            k = 6 * j + 6 - top
            while k >= first + v:
                first += v
                v += 1
            adj[k - first].append(v)
            adj[v].append(k - first)
    return Graph._trusted(n, adj)


# -- plain edge-list format --------------------------------------------------
#
# First line "n m", then one "u v" line per edge.


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty edge list")
    if len(rows[0]) != 2:
        raise ValueError("first line must be 'n m'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
    except ValueError as exc:
        raise ValueError("first line must be 'n m'") from exc
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for row in body:
        if len(row) != 2:
            raise ValueError(f"malformed edge line {' '.join(row)!r}")
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError as exc:
            raise ValueError(f"malformed edge line {' '.join(row)!r}") from exc
        edges.append((u, v))
    return Graph(n, edges)


def cycle_graph(length: int) -> Graph:
    """Cycle 0-1-...-(length-1)-0."""
    if length < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
