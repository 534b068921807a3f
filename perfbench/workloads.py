"""The three workloads: inputs made from the seed, the call each input
drives through the public API, and the check of that call's output.

Every workload is a closed loop with one client.  A workload is a fixed
list of operations made from the seed, which the benchmark runs in passes.

Checks run outside the timed interval and use the package's own `verify`
(captured here before any tracing hook is installed) or a small exhaustive
search written from the definition.  An operation that raises gives a wrong
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from pcfcolor import cli, families, kernel, oracle, solver
from pcfcolor.graphs import Graph, cycle_graph, path_graph, write_graph6

verify = kernel.verify


@dataclass
class Op:
    kind: str  # names the input family in failure reports
    n: int  # vertices of the input graph
    group: Any  # key for the size-scaling medians, or None
    call: Callable[[], Any]  # the timed call
    check: Callable[[Any], bool]  # True when the output is correct
    output_bytes: "Callable[[Any], int] | None" = None  # bytes the call printed


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed, *salt)))


def _lists(g: Graph, k: int, rng: random.Random):
    """degree+k lists from 1..2*maxdeg+4, the universe criterion 2 uses."""
    return kernel.degree_plus_k_lists(g, k, range(1, 2 * g.max_degree() + 5), rng)


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _solve_op(kind: str, g: Graph, lists, reason: "str | None", group=None) -> Op:
    def check(res) -> bool:
        if reason is None:
            return res.ok and verify(g, res.coloring, lists).ok
        return not res.ok and res.obstruction.reason == reason

    return Op(kind, g.n, group, lambda: solver.solve(g, lists), check)


def _is_uniform_c5(g: Graph, lists) -> bool:
    return (
        g.n == 5
        and all(g.degree(v) == 2 for v in range(5))
        and len(lists[0]) == 4
        and all(lists[v] == lists[0] for v in range(5))
    )


def pcf_colorable(g: Graph, lists) -> "list[int] | None":
    """Exhaustive search written from the definition: proper colorings in
    vertex order, pruned once a vertex's whole neighborhood is colored and
    no color appears there exactly once."""
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    colors: list = [None] * n

    def sees_unique(w: int) -> bool:
        counts = Counter(colors[x] for x in adj[w])
        return 1 in counts.values()

    def extend(v: int) -> bool:
        if v == n:
            return True
        for c in sorted(lists[v]):
            if any(colors[w] == c for w in adj[v]):
                continue
            colors[v] = c
            settled = (
                w for w in (v, *adj[v])
                if adj[w] and all(colors[x] is not None for x in adj[w])
            )
            if all(sees_unique(w) for w in settled) and extend(v + 1):
                return True
        colors[v] = None
        return False

    return list(colors) if extend(0) else None


# -- corpus -------------------------------------------------------------------

CORPUS_DRAWS = 3  # degree+2 list draws per corpus graph
CORPUS_REJECTS = 24  # inputs per rejection reason, per pass


def _not_outerplanar(rng: random.Random) -> Graph:
    # K4 or K2,3 with a random tree hung on it; any supergraph keeps the
    # forbidden subgraph, so the input is non-outerplanar by construction
    if rng.random() < 0.5:
        base, edges = 4, [(a, b) for a in range(4) for b in range(a + 1, 4)]
    else:
        base, edges = 5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    n = rng.randint(base, 8)
    edges += [(rng.randrange(v), v) for v in range(base, n)]
    return _relabel(Graph(n, edges), rng)


def _disconnected(by_n: dict, rng: random.Random) -> Graph:
    n1 = rng.randint(1, 7)
    n2 = rng.randint(1, 8 - n1)
    a, b = rng.choice(by_n[n1]), rng.choice(by_n[n2])
    edges = list(a.edges()) + [(u + n1, v + n1) for u, v in b.edges()]
    return _relabel(Graph(n1 + n2, edges), rng)


class Corpus:
    """Criterion-2 traffic: every connected outerplanar graph on 2..8
    vertices, several degree+2 draws each in criterion-2 order (n, graph,
    draw), with about 3% rejected inputs spread evenly through the pass."""

    def __init__(self, seed: int, workdir: Path):
        by_n = {n: families.enumerate_connected_outerplanar(n) for n in range(1, 9)}
        accepted = []
        for n in range(2, 9):
            for gi, g in enumerate(by_n[n]):
                for t in range(CORPUS_DRAWS):
                    lists = _lists(g, 2, _rng(seed, "corpus", n, gi, t))
                    reason = solver.REASON_C5_UNIFORM if _is_uniform_c5(g, lists) else None
                    accepted.append(_solve_op("corpus", g, lists, reason, group=n))
        rejected = []
        rng = _rng(seed, "corpus-rejects")
        pool = [g for n in range(2, 9) for g in by_n[n]]
        for _ in range(CORPUS_REJECTS):
            g = rng.choice(pool)
            rejected.append(_solve_op("degree+1", g, _lists(g, 1, rng), solver.REASON_LIST_TOO_SMALL))
            g = _not_outerplanar(rng)
            rejected.append(_solve_op("non-outerplanar", g, _lists(g, 2, rng), solver.REASON_NOT_OUTERPLANAR))
            g = _disconnected(by_n, rng)
            rejected.append(_solve_op("disconnected", g, _lists(g, 2, rng), solver.REASON_DISCONNECTED))
            c5 = cycle_graph(5)
            uniform = [rng.sample(range(1, 9), 4)] * 5
            rejected.append(_solve_op("uniform-c5", c5, kernel.ListAssignment(uniform), solver.REASON_C5_UNIFORM))
        ops = []
        step = len(accepted) / (len(rejected) + 1)
        r = 0
        for i, op in enumerate(accepted):
            ops.append(op)
            while r < len(rejected) and i + 1 >= (r + 1) * step:
                ops.append(rejected[r])
                r += 1
        self.ops = ops

    doubling = [(8, 4, 1)]


# -- oracle -------------------------------------------------------------------

ORACLE_SAT_PER_N = 16  # corpus graphs per size 6, 7, 8 with degree+2 lists
ORACLE_CHI_AT_8 = 12  # evenly spaced 8-vertex graphs for the PCF chromatic number


class Oracle:
    """The exact engines only: SAT and UNSAT `solve_exact`, PCF chromatic
    numbers, and choosability refutation, never entering the solver."""

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, "oracle")
        by_n = {n: families.enumerate_connected_outerplanar(n) for n in (4, 6, 7, 8)}
        ops = []
        for n in (6, 7, 8):
            for g in rng.sample(by_n[n], ORACLE_SAT_PER_N):
                ops.append(self._exact("sat", g, _lists(g, 2, rng), oracle.SAT))
        unsat = [
            families.c5_uniform(),
            *(families.theta_hard_lists(a, b) for a, b in ((4, 4), (4, 7), (7, 7))),
            families.degree_plus_one_gadget(Graph(2, [(0, 1)]), 0),
            families.degree_plus_one_gadget(path_graph(3), 1),
        ]
        for inst in unsat:
            ops.append(self._exact(inst.name, inst.graph, inst.lists, inst.expected))
        # a fixed set: which graphs are drawn would move the n=8 median
        # (chromatic numbers 3 to 5) more than any code change
        at_8 = by_n[8][:: len(by_n[8]) // ORACLE_CHI_AT_8][:ORACLE_CHI_AT_8]
        for g in (*by_n[4], *at_8):
            ops.append(self._chi(g))
        ops.append(self._refute(cycle_graph(4), 1, None, oracle.NON_CHOOSABLE))
        for g, bound in ((path_graph(3), 5), (cycle_graph(3), 5), (path_graph(4), 5)):
            ops.append(self._refute(g, 2, bound, oracle.CHOOSABLE_EXHAUSTED))
        self.ops = ops

    @staticmethod
    def _exact(kind: str, g: Graph, lists, status: str) -> Op:
        def check(res) -> bool:
            if res.status != status:
                return False
            return status != oracle.SAT or verify(g, res.coloring, lists).ok

        return Op(kind, g.n, None, lambda: oracle.solve_exact(g, lists), check)

    @staticmethod
    def _chi(g: Graph) -> Op:
        expected = []  # filled by the first check; the search is slow

        def check(k) -> bool:
            if not expected:
                k0 = 1
                while pcf_colorable(g, [range(1, k0 + 1)] * g.n) is None:
                    k0 += 1
                expected.append(k0)
            return k == expected[0]

        return Op("chi", g.n, ("chi", g.n), lambda: oracle.pcf_chromatic_number(g), check)

    @staticmethod
    def _refute(g: Graph, k: int, bound, status: str) -> Op:
        def check(res) -> bool:
            if res.status != status or res.assignments_checked < 1:
                return False
            if status != oracle.NON_CHOOSABLE:
                return True
            w = res.witness
            sizes_ok = all(len(w[v]) == g.degree(v) + k for v in range(g.n))
            return sizes_ok and pcf_colorable(g, w) is None

        call = lambda: oracle.refute_choosability(g, k, universe_bound=bound)  # noqa: E731
        return Op(f"refute-k{k}", g.n, None, call, check)

    doubling = [(("chi", 8), ("chi", 4), 1)]


# -- cli ----------------------------------------------------------------------

CLI_SIZES = (8, 32, 128)
CLI_GRAPHS_PER_SIZE = 4


def _random_outerplanar(n: int, rng: random.Random) -> Graph:
    while True:
        g = families.random_outerplanar(n, rng.randrange(2**31))
        if g.m >= g.n:
            return g


def _printed(res) -> int:
    return len(res[1])


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _one_document(out: str) -> "dict | None":
    if not out.endswith("\n") or out.count("\n") != 1:
        return None
    try:
        doc = json.loads(out)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


class Cli:
    """`pcfcolor.cli.main` in-process on files written at set-up: `color
    --trace`, `verify` of a valid and of a broken certificate, and `gen
    random`, on random outerplanar graphs of 8, 32 and 128 vertices.  Set-up
    solves each graph once to write its certificate, so `color` finds the
    classification cache warm from the first pass on."""

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, "cli")
        ops = []
        for n in CLI_SIZES:
            for j in range(CLI_GRAPHS_PER_SIZE):
                # one fixed set of graphs: at n = 128 a solve costs 14 to 46 ms
                # depending on the graph, which would swamp the CLI's own cost;
                # lists, certificates and `gen` seeds come from the seed
                g = _random_outerplanar(n, _rng(0, "cli-graph", n, j))
                lists = _lists(g, 2, rng)
                good = solver.solve(g, lists).coloring
                bad = list(good)
                v = rng.randrange(n)
                bad[v] = good[g.neighbors(v)[0]]
                stem = workdir / f"g{n}-{j}"
                files = {}
                for ext, text in (
                    ("g6", write_graph6(g) + "\n"),
                    ("lists.json", json.dumps(lists.to_json())),
                    ("good.json", json.dumps({"colors": good})),
                    ("bad.json", json.dumps({"colors": bad})),
                ):
                    files[ext] = str(stem.with_suffix("." + ext))
                    Path(files[ext]).write_text(text, encoding="utf-8")
                gen_seed = rng.randrange(10**6)
                gen_g6 = write_graph6(families.random_outerplanar(n, gen_seed))
                ops += [
                    self._color(g, lists, files),
                    self._verify(g, files, "good.json", None),
                    self._verify(g, files, "bad.json", v),
                    self._gen(n, gen_seed, gen_g6),
                ]
        self.ops = ops

    @staticmethod
    def _color(g: Graph, lists, files) -> Op:
        argv = ["color", files["g6"], "--lists", files["lists.json"], "--trace"]

        def check(res) -> bool:
            code, doc = res[0], _one_document(res[1])
            if code != cli.EXIT_SAT or doc is None or doc.get("status") != "sat":
                return False
            colors = doc.get("coloring")
            if not isinstance(colors, list) or len(colors) != g.n:
                return False
            replayed = [None] * g.n
            for step in doc.get("trace", ()):
                for v, c in step["colors"].items():
                    replayed[int(v)] = c
            return replayed == colors and verify(g, colors, lists).ok

        return Op("cli-color", g.n, ("color", g.n), lambda: run_cli(argv), check, _printed)

    @staticmethod
    def _verify(g: Graph, files, cert: str, broken: "int | None") -> Op:
        argv = ["verify", files["g6"], "--coloring", files[cert], "--lists", files["lists.json"]]

        def check(res) -> bool:
            code, doc = res[0], _one_document(res[1])
            if doc is None:
                return False
            if broken is None:
                return code == cli.EXIT_SAT and doc.get("status") == "ok" and doc.get("n") == g.n
            return (
                code == cli.EXIT_UNSAT
                and doc.get("status") == "violations"
                and any(
                    v.get("vertex") == broken and v.get("reason") == "not_proper"
                    for v in doc.get("violations", ())
                )
            )

        return Op("cli-verify", g.n, None, lambda: run_cli(argv), check, _printed)

    @staticmethod
    def _gen(n: int, seed: int, graph6: str) -> Op:
        argv = ["gen", "random", str(n), "--seed", str(seed)]

        def check(res) -> bool:
            code, doc = res[0], _one_document(res[1])
            return (
                code == cli.EXIT_SAT
                and doc is not None
                and doc.get("status") == "ok"
                and doc.get("n") == n
                and doc.get("seed") == seed
                and doc.get("graph6") == graph6
            )

        return Op("cli-gen", n, None, lambda: run_cli(argv), check, _printed)

    doubling = [(("color", 128), ("color", 32), 2)]


WORKLOADS = {"corpus": Corpus, "oracle": Oracle, "cli": Cli}
