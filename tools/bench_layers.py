"""Per-layer timings of pcfcolor, written as JSON to the file named by --out.

Times, in this process, the layers a repeated solve and the command line
spend their time in, and the enumeration of the graph corpora:

- warm `solve` on every connected outerplanar graph of 4 and of 8
  vertices (the per-graph structure cache filled first), with degree+2
  list draws from the criterion-2 universe 1..2*maxdeg+4: 40 per graph at
  n = 4 (5 graphs), one per graph at n = 8 (777 graphs);
- `verify` on those colorings with their lists, and `unique_colors` at
  every vertex of them;
- the input path, on `random_outerplanar(n, 1)`: `parse_graph6` for
  n = 128, 1,000 and 3,000 and `write_graph6` for n = 128 and 1,000;
  `Graph(n, edges)` on its edge list and `ListAssignment` on its
  degree+2 lists {1, ..., deg(v)+2}, given as lists of ints, for
  n = 10^3, 10^4 and 10^5;
- a cold solve at n = 10^5 (the graph built from its edge list, the
  degree+2 lists built, then `solve`, above the structure cache's size
  limit) of the path and of `random_cactus(10**5, 1)`, with the garbage
  collector on and, as `.gc_off`, off, each with the `tracemalloc` size
  of the graph just built (`graph_kb`) and the `tracemalloc` peak of one
  more solve, its graph and lists built beforehand (`tracemalloc_peak_kb`);
- the exact oracle: `solve_exact` on the corpus graphs of 6, 7 and 8
  vertices with one degree+2 list draw each, `pcf_chromatic_number` on
  the five 4-vertex corpus graphs and on the twelve evenly spaced
  8-vertex ones, the two sizes the benchmark's `oracle` workload
  doubles between, and `refute_choosability` on that workload's four
  instances, each its own batch: C4 with k = 1, and P3, C3 and P4 with
  k = 2 and a universe of 5 colors;
- `is_outerplanar` on the 25,238 raw candidates of the enumeration up
  to 8 vertices (each connected outerplanar graph of up to 7 vertices
  plus one new vertex joined to a nonempty subset; the enumerator itself
  tests about 4,900 of them), and on fans (vertex 0 joined to the path
  1..n-1) of 1,000 and 4,000 vertices;
- the graph-only pass of a first solve (`solver._structure_pass`, which
  the structure cache wraps) on paths, cactus graphs
  (`families.random_cactus`) and diamonds (4-cycles with one chord, each
  hung on a random earlier vertex) of 1,000, 2,000, 4,000 and 8,000
  vertices, and on `random_outerplanar` graphs (re-seeded until m >= n),
  fans and strip triangulations (edges i,i+1 and i,i+2) of 200, 400 and
  800 vertices; each with the garbage collector on and, as `.gc_off`,
  off, and each but those in UNTRACED with the `tracemalloc` peak of one
  more run (`tracemalloc_peak_kb`, the graph built beforehand);
- warm `solve` (the structure cached, so only the list work and the
  coloring pass run) on paths, fans and strips of 200, 400 and 800
  vertices, with the lists {1, ..., deg(v)+2};
- a reader of the trace: warm `solve` plus `trace_to_json_lines` of its
  trace, on TRACED_GRAPHS `random_outerplanar` graphs of 128 vertices
  with the lists {1, ..., deg(v)+2}, which pays for building the trace's
  steps when the trace is built only on its first read;
- the command line, `cli.main` in this process with its stdout captured:
  `pcfcolor color --trace` on a `random_outerplanar` graph of 128
  vertices (re-seeded until m >= n) saved as graph6, with the lists
  {1, ..., deg(v)+2}, and `pcfcolor gen random 128`; and the generator
  alone, `random_outerplanar` at 32,000 vertices; each generator run with
  the first seed from SEED on that draws a polygon of at least 0.9 n;
- the ear search (`find_good_ear_or_chain`, embeddings built first): the
  14,296 searches of the ear-search digest in `tests/test_structure.py`
  (every 2-connected non-cycle outerplanar graph of 4 to 10 vertices at
  every anchor) as one batch, a fan and a strip of 1,000 vertices, and a
  sun (the 1,000-gon with a triangle on every other side, 1,500
  vertices, whose every ear search takes an ear at a free endpoint), each
  at every 50th anchor;
- cold enumeration: `enumerate_connected_outerplanar(7)`, `(8)` and
  `enumerate_two_connected_outerplanar(10)`, their caches cleared before
  each run, so each run also enumerates every smaller size it builds on:
  the connected ones run n = 1..7 and n = 1..8, the sizes below and at
  the corpus of criterion 2.

Every series is a batch of `ops` operations, run by a package on graphs
and lists it built, and every batch is timed one way, by
`measure_series`.  The batches of one group take turns, in reverse order
every other round, so a slow spell on the host falls on all of them.
Each run follows the group's untimed setup (the enumerations clear their
caches) and `gc.collect()`, and a batch whose name ends in `.gc_off`
runs with the garbage collector disabled.  The heap the batches were
built in is frozen (`gc.freeze`) while they run, so a collection walks
only what the batches allocate, not the tool's own data, and every run
meets the collector in the same state: left to run over that data, full
collections fell in step with the turns and read `Graph.n10000` 0.55 on
identical trees.  One untimed first run of each batch, its setup
included, sets its number of `rounds`: as many as fit ROUND_BUDGET_S,
but at least MIN_ROUNDS and at most MAX_ROUNDS.  An entry reports its
fastest round, the one least disturbed by other work on the host, as
`batch_ms` and `per_op_us`.

With `--baseline SRC` every series also runs on the package under SRC
(another checkout's `src/`), loaded beside this one in the same process.
Its batches, named `baseline.*`, take turns with their partners of this
tree, and each pair runs the same rounds, sized by the faster of its two
first runs.  On identical trees the side whose batches were built second
ran `verify` and `unique_colors` at n = 8 7-10% faster (the build order,
not the code, decided it), so each side builds its batches twice: half
the rounds, rounded up, run on batches built baseline first, the other
half on batches built this tree first.  Each entry of this tree then
also gets the median and the quartiles, over the rounds i of one half,
of the geometric mean of its time divided by its partner's in round i of
each half: a slow spell on the host moves that less than a ratio of two
fastest times, and batches of a few microseconds per operation move by
about 10% from one process to the next.

`ratios` divides the time per operation on a fan by that on a fan a
quarter its size (for `is_outerplanar`: 4 means linear time, 16
quadratic), each first or warm solve by the one of half its size (2
linear, 4 quadratic), and the time per graph of `pcf_chromatic_number`
at 8 vertices by that at 4 (the `oracle` workload's doubling ratio, also
for the baseline); for each series compared with a baseline, `/baseline`
gives that median.

Nothing is asserted about the numbers.  Run from the repository root (it
imports the package from the `src/` beside this file):

    python tools/bench_layers.py --out BENCH.json [--baseline SRC]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pcfcolor  # noqa: E402
import pcfcolor.cli  # noqa: E402,F401 (read as pkg.cli, as the baseline's)
from pcfcolor.families import (  # noqa: E402
    enumerate_connected_outerplanar,
    enumerate_two_connected_outerplanar,
    random_cactus,
    random_outerplanar,
)
from pcfcolor.graphs import Graph, cycle_graph, path_graph, write_graph6  # noqa: E402
from pcfcolor.kernel import degree_plus_k_lists  # noqa: E402

ROUND_BUDGET_S = 0.5  # wall time, setup included, that sets a batch's rounds
MIN_ROUNDS = 10
MAX_ROUNDS = 400
SEED = 1
CHI_AT_8 = 12  # evenly spaced 8-vertex graphs, as in the `oracle` workload
TRACED_GRAPHS = 8  # random_outerplanar(128, seed) for seeds SEED, SEED + 1, ...
CLI_N = 128
GEN_N = 32000


def instances(ns, draws=1):
    rng = random.Random(SEED)
    out = []
    for n in ns:
        for g in enumerate_connected_outerplanar(n):
            universe = range(1, 2 * g.max_degree() + 5)
            out.extend((g, degree_plus_k_lists(g, 2, universe, rng)) for _ in range(draws))
    return out


def fan(n):
    return Graph(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


def strip(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)])


def sun(k):
    """The k-gon 0..k-1 with a triangle on every other side: vertex k + i // 2
    is joined to i and i + 1 for each even i < k - 1."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(v, k + i // 2) for i in range(0, k - 1, 2) for v in (i, i + 1)]
    return Graph(k + k // 2, edges)


def diamonds(n):
    """Diamonds hung on random earlier vertices (seeded): each takes three
    new vertices b, c, d and an earlier vertex a, with the 4-cycle a-b-c-d
    and the chord a-c; the n - 1 mod 3 vertices left over form a path.
    Each block has chords, so the peel builds its neighbor sets."""
    rng = random.Random(SEED)
    edges, v = [], 1
    while v + 3 <= n:
        a = rng.randrange(v)
        edges += [(a, v), (v, v + 1), (v + 1, v + 2), (a, v + 2), (a, v + 1)]
        v += 3
    return Graph(n, edges + [(w - 1, w) for w in range(v, n)])


def random_dense(n):
    """`random_outerplanar(n, seed)` for the first seed from SEED on that
    gives at least n edges: a polygon with chords, not a tree."""
    seed = SEED
    while (g := random_outerplanar(n, seed)).m < n:
        seed += 1
    return g


FIRST_SOLVES = {
    "path": (path_graph, (1000, 2000, 4000, 8000)),
    "cactus": (lambda n: random_cactus(n, SEED), (1000, 2000, 4000, 8000)),
    "random": (random_dense, (200, 400, 800)),
    "fan": (fan, (200, 400, 800)),
    "strip": (strip, (200, 400, 800)),
    "diamonds": (diamonds, (1000, 2000, 4000, 8000)),
}
# first solves that get no `tracemalloc_peak_kb`: their quadratic pass makes
# so many allocations that one traced run takes about 30 times the pass
UNTRACED = {"structure.cold.fan800", "structure.cold.strip800"}

WARM_SOLVES = {
    "path": (path_graph, (200, 400, 800)),
    "fan": (fan, (200, 400, 800)),
    "strip": (strip, (200, 400, 800)),
}


PARSE_SIZES = (128, 1000, 3000)
WRITE_SIZES = (128, 1000)
BUILD_SIZES = (10**3, 10**4, 10**5)
BIG = 10**5
BIG_SOLVES = {"path": lambda: path_graph(BIG), "cactus": lambda: random_cactus(BIG, SEED)}


def plus2_lists(g):
    """The lists {1, ..., deg(v)+2} of g, as lists of ints."""
    return [list(range(1, g.degree(v) + 3)) for v in range(g.n)]


def input_data():
    """The inputs of the input path, made by this tree: per size n, the
    edge list of `random_outerplanar(n, 1)`, its graph6 text if n is a
    parse size (graph6 takes n(n-1)/12 bytes, 833 MB at n = 10^5) and its
    degree+2 lists if n is a build size."""
    data = {}
    for n in sorted({*PARSE_SIZES, *WRITE_SIZES, *BUILD_SIZES}):
        g = random_outerplanar(n, 1)
        data[n] = (list(g.edges()),
                   write_graph6(g) if n in PARSE_SIZES else None,
                   plus2_lists(g) if n in BUILD_SIZES else None)
    return data


def input_batches(data, pkg):
    """`parse_graph6`, `write_graph6`, `Graph(n, edges)` and
    `ListAssignment` run by the package `pkg` on the inputs `data`."""
    G, gr = pkg.graphs.Graph, pkg.graphs
    batches = {}
    for n, (edges, text, lists) in data.items():
        if n in PARSE_SIZES:
            batches[f"parse_graph6.n{n}"] = (lambda t=text: gr.parse_graph6(t), 1)
        if n in WRITE_SIZES:
            batches[f"write_graph6.n{n}"] = (lambda h=G(n, edges): gr.write_graph6(h), 1)
        if n in BUILD_SIZES:
            batches[f"Graph.n{n}"] = (lambda n=n, e=edges: G(n, e), 1)
            batches[f"ListAssignment.n{n}"] = (lambda lists=lists: pkg.kernel.ListAssignment(lists), 1)
    return batches


def big_solve_batches(big_edges, pkg):
    """A cold solve at n = 10^5 run by the package `pkg`: build the graph
    from its edge list, build its degree+2 lists, solve; each also as
    `.gc_off`."""
    G, L, solve_ = pkg.graphs.Graph, pkg.kernel.ListAssignment, pkg.solver.solve
    batches = {}
    for family, edges in big_edges.items():
        def batch(edges=edges):
            g = G(BIG, edges)
            solve_(g, L(plus2_lists(g)))

        batches[f"solve.cold.{family}{BIG}"] = (batch, 1)
        batches[f"solve.cold.{family}{BIG}.gc_off"] = (batch, 1)
    return batches


def graph_kb(pkg, edges):
    """The `tracemalloc` size of the package `pkg`'s `Graph` on `edges`,
    just built, in kB."""
    gc.collect()
    tracemalloc.start()
    try:
        g = pkg.graphs.Graph(BIG, edges)  # noqa: F841 (kept alive while measured)
        return round(tracemalloc.get_traced_memory()[0] / 1e3, 1)
    finally:
        tracemalloc.stop()


def solve_peak_kb(pkg, edges):
    """The `tracemalloc` peak of the package `pkg`'s cold solve on `edges`,
    the graph and its degree+2 lists built beforehand, in kB."""
    g = pkg.graphs.Graph(BIG, edges)
    return traced_peak_kb(partial(pkg.solver.solve, g, pkg.kernel.ListAssignment(plus2_lists(g))))


def outerplanar_batches(pkg):
    """`is_outerplanar` run by the package `pkg` on the raw candidates of
    the enumeration up to 8 vertices (each connected outerplanar graph of
    fewer vertices plus one new vertex joined to a nonempty subset, every
    one of them, although `enumerate_connected_outerplanar` skips most
    without a test) and on two fans."""
    G, test = pkg.graphs.Graph, pkg.structure.is_outerplanar
    cands = []
    for n in range(2, 9):
        for g in enumerate_connected_outerplanar(n - 1):
            base = list(g.edges())
            for mask in range(1, 1 << (n - 1)):
                cands.append(G(n, base + [(v, n - 1) for v in range(n - 1) if mask >> v & 1]))
    batches = {"is_outerplanar.candidates.n2-8": (lambda: [test(g) for g in cands], len(cands))}
    for n in (1000, 4000):
        batches[f"is_outerplanar.fan{n}"] = (lambda g=G(n, fan(n).edges()): test(g), 1)
    return batches


def load_package(src):
    """The pcfcolor package under `src`, imported as `pcfcolor_baseline`
    beside this tree's own, with its `families` and `cli` modules loaded."""
    pkg = Path(src).resolve() / "pcfcolor"
    spec = importlib.util.spec_from_file_location(
        "pcfcolor_baseline", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    importlib.import_module(f"{spec.name}.families")
    importlib.import_module(f"{spec.name}.cli")
    return mod


def small_batches(n, draws, pkg):
    """Warm `solve`, `verify` and `unique_colors` on the corpus graphs of n
    vertices, `draws` list draws each, run by the package `pkg`."""
    inst = [(pkg.graphs.Graph(g.n, g.edges()), pkg.kernel.ListAssignment(lists))
            for g, lists in instances([n], draws)]
    colored = []
    for g, lists in inst:
        res = pkg.solver.solve(g, lists)  # fills the structure cache: the timed solves are warm
        if res.ok:
            colored.append((g, res.coloring, lists))

    def solve_all(solve=pkg.solver.solve):
        for g, lists in inst:
            solve(g, lists)

    def verify_all(verify=pkg.kernel.verify):
        for g, colors, lists in colored:
            verify(g, colors, lists)

    def unique_all(unique_colors=pkg.kernel.unique_colors):
        for g, colors, _ in colored:
            for v in range(g.n):
                unique_colors(g, colors, v)

    return {
        f"solve.warm.n{n}": (solve_all, len(inst)),
        f"verify.n{n}": (verify_all, len(colored)),
        f"unique_colors.n{n}": (unique_all, sum(g.n for g, _, _ in colored)),
    }


def warm_batches(pkg):
    """Warm `solve` by the package `pkg` on the graphs of WARM_SOLVES, with
    the lists {1, ..., deg(v)+2}, the structure cache filled first."""
    batches = {}
    for family, (make, sizes) in WARM_SOLVES.items():
        for n in sizes:
            g = pkg.graphs.Graph(n, make(n).edges())
            lists = pkg.kernel.ListAssignment(plus2_lists(g))
            pkg.solver.solve(g, lists)  # fills the structure cache
            batches[f"solve.warm.{family}{n}"] = (lambda g=g, lists=lists, s=pkg.solver.solve: s(g, lists), 1)
    return batches


def traced_batches(pkg):
    """Warm `solve` by the package `pkg`, its trace read through
    `trace_to_json_lines`, on the graphs `random_outerplanar(128, seed)`
    with the lists {1, ..., deg(v)+2}, the structure cache filled first."""
    inst = []
    for seed in range(SEED, SEED + TRACED_GRAPHS):
        g = pkg.graphs.Graph(128, random_outerplanar(128, seed).edges())
        lists = pkg.kernel.ListAssignment(plus2_lists(g))
        pkg.solver.solve(g, lists)  # fills the structure cache
        inst.append((g, lists))

    def batch(solve=pkg.solver.solve, lines=pkg.solver.trace_to_json_lines):
        for g, lists in inst:
            lines(solve(g, lists).trace)

    return {"solve.warm.traced.random128": (batch, len(inst))}


def polygon_seed(n):
    """The first seed from SEED on for which `random_outerplanar(n, seed)`
    draws a polygon of at least 0.9 n vertices (its first draw)."""
    seed = SEED
    while random.Random(seed).choice([1] + list(range(3, n + 1))) < 0.9 * n:
        seed += 1
    return seed


def cli_files(tmp):
    """The graph6 file of `random_dense(CLI_N)` and its lists {1, ...,
    deg(v)+2} as JSON, written under `tmp`: (graph path, lists path)."""
    g = random_dense(CLI_N)
    graph, lists = Path(tmp, "graph.g6"), Path(tmp, "lists.json")
    graph.write_text(write_graph6(g))
    lists.write_text(json.dumps({"lists": plus2_lists(g)}))
    return str(graph), str(lists)


def cli_batches(files, pkg):
    """`cli.main` of the package `pkg`, its stdout captured, on `color
    --trace` of the files `files` and on `gen random CLI_N`, and the
    generator `random_outerplanar` at GEN_N vertices."""
    graph, lists = files

    def run(argv, main=pkg.cli.main):
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)

    gen = ["gen", "random", str(CLI_N), "--seed", str(polygon_seed(CLI_N))]
    return {
        f"cli.color_trace.n{CLI_N}": (partial(run, ["color", graph, "--lists", lists, "--trace"]), 1),
        f"cli.gen_random.n{CLI_N}": (partial(run, gen), 1),
        f"random_outerplanar.n{GEN_N}": (partial(pkg.families.random_outerplanar, GEN_N, polygon_seed(GEN_N)), 1),
    }


def ear_batches(pkg):
    """The ear-search batches, with graphs and embeddings built by the
    package `pkg`."""
    digest = []
    for n in range(4, 11):
        for g in enumerate_two_connected_outerplanar(n):
            if g.m > g.n:
                h = pkg.graphs.Graph(n, g.edges())
                emb = pkg.structure.outer_embedding(h)
                digest.extend((h, emb, x) for x in range(n))
    searches = {"digest": digest}
    for name, make in (("fan", fan), ("strip", strip), ("sun", sun)):
        g = make(1000)
        h = pkg.graphs.Graph(g.n, g.edges())
        emb = pkg.structure.outer_embedding(h)
        searches[f"{name}1000"] = [(h, emb, x) for x in range(0, g.n, 50)]

    def batch(todo, find=pkg.structure.find_good_ear_or_chain):
        for h, emb, x in todo:
            find(h, emb, x)

    return {
        f"ear_search.{name}": (lambda todo=todo: batch(todo), len(todo))
        for name, todo in searches.items()
    }


def oracle_batches(pkg):
    """`solve_exact`, `pcf_chromatic_number` and `refute_choosability` run
    by the package `pkg`, on graphs and lists it built."""
    G, L, orc = pkg.graphs.Graph, pkg.kernel.ListAssignment, pkg.oracle
    exact = [(G(g.n, g.edges()), L(lists)) for g, lists in instances([6, 7, 8])]
    by_8 = enumerate_connected_outerplanar(8)
    chi = {
        "n4": [G(4, g.edges()) for g in enumerate_connected_outerplanar(4)],
        "n8": [G(8, g.edges()) for g in by_8[:: len(by_8) // CHI_AT_8][:CHI_AT_8]],
    }
    refute = {
        "c4k1": (cycle_graph(4), 1, None),
        "p3k2u5": (path_graph(3), 2, 5),
        "c3k2u5": (cycle_graph(3), 2, 5),
        "p4k2u5": (path_graph(4), 2, 5),
    }

    def exact_all(solve_exact=orc.solve_exact):
        for g, lists in exact:
            solve_exact(g, lists)

    def chi_all(graphs, chromatic=orc.pcf_chromatic_number):
        for g in graphs:
            chromatic(g)

    batches = {"solve_exact.n6-8": (exact_all, len(exact))}
    for name, graphs in chi.items():
        batches[f"pcf_chromatic_number.{name}"] = (lambda graphs=graphs: chi_all(graphs), len(graphs))
    for name, (g, k, bound) in refute.items():
        h = G(g.n, g.edges())
        batches[f"refute_choosability.{name}"] = (
            lambda h=h, k=k, bound=bound: orc.refute_choosability(h, k, universe_bound=bound), 1)
    return batches


def cold_batches(pkg):
    """The graph-only pass of a first solve (`solver._structure_pass`,
    which no cache sits in front of) by the package `pkg` on the graphs of
    FIRST_SOLVES, each also as `.gc_off`."""
    batches = {}
    for family, (make, sizes) in FIRST_SOLVES.items():
        for n in sizes:
            batch = partial(pkg.solver._structure_pass, pkg.graphs.Graph(n, make(n).edges()))
            batches[f"structure.cold.{family}{n}"] = (batch, 1)
            batches[f"structure.cold.{family}{n}.gc_off"] = (batch, 1)
    return batches


def traced_peak_kb(batch):
    """The `tracemalloc` peak of one run of `batch`, in kB."""
    gc.collect()
    tracemalloc.start()
    try:
        batch()
        return round(tracemalloc.get_traced_memory()[1] / 1e3, 1)
    finally:
        tracemalloc.stop()


def enumeration_batches(pkg):
    """Cold enumerations by the package `pkg`; each run needs its caches
    cleared first (`clear_enumerations`)."""
    fam = pkg.families
    return {
        "enumerate.connected.n7": (lambda: fam.enumerate_connected_outerplanar(7), 1),
        "enumerate.connected.n8": (lambda: fam.enumerate_connected_outerplanar(8), 1),
        "enumerate.two_connected.n10": (lambda: fam.enumerate_two_connected_outerplanar(10), 1),
    }


def clear_enumerations(*pkgs):
    for pkg in pkgs:
        pkg.families.enumerate_connected_outerplanar.cache_clear()
        pkg.families.enumerate_two_connected_outerplanar.cache_clear()


def measure_series(make, baseline=None, setup=None):
    """Time the batches make(package) of this tree and, against a baseline
    package, the baseline's, named `baseline.*`, each beside its partner:
    a dict of per-op figures per name.  make returns a dict mapping a name
    to (batch, ops).  Each run of a batch follows an untimed setup() and
    `gc.collect()`; the rounds are sized, and against a baseline the two
    build orders and the ratios are taken, as the module docstring says."""
    sides = {"": pcfcolor} if baseline is None else {"baseline.": baseline, "": pcfcolor}
    orders = [list(sides)] if baseline is None else [list(sides), list(sides)[::-1]]
    rounds, times = {}, {}
    for order in orders:
        made = {prefix: make(sides[prefix]) for prefix in order}
        batches = {prefix + name: made[prefix][name] for name in made[""] for prefix in sides}

        def timed(key):
            if setup is not None:
                setup()
            gc.collect()
            if key.endswith(".gc_off"):
                gc.disable()
            try:
                start = time.perf_counter()
                batches[key][0]()
                return time.perf_counter() - start
            finally:
                gc.enable()

        gc.collect()
        gc.freeze()  # a collection in a round walks only what the batches allocate
        if not rounds:  # an untimed first run of each batch sizes the rounds
            first = {}
            for key in batches:
                start = time.perf_counter()
                timed(key)
                first[key] = time.perf_counter() - start
            for name in made[""]:
                fit = int(ROUND_BUDGET_S / min(first[prefix + name] for prefix in sides))
                rounds[name] = -(-min(MAX_ROUNDS, max(MIN_ROUNDS, fit)) // len(orders))
        for r in range(max(rounds.values(), default=0)):
            for key in list(batches)[:: -1 if r % 2 else 1]:
                if r < rounds[key.removeprefix("baseline.")]:
                    times.setdefault(key, []).append(timed(key))
        gc.unfreeze()
        ops = {key: n for key, (_, n) in batches.items()}
        made = batches = None  # the next build order starts without them

    out = {}
    for key, runs in times.items():
        out[key] = {"ops": ops[key], "rounds": len(runs), "batch_ms": round(min(runs) * 1e3, 4),
                    "per_op_us": round(min(runs) * 1e6 / ops[key], 3)}
    if baseline is not None:
        for name, k in rounds.items():
            ours, theirs = times[name], times[f"baseline.{name}"]
            ratios = [math.sqrt(ours[i] / theirs[i] * ours[k + i] / theirs[k + i]) for i in range(k)]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            out[name]["baseline_ratio_median"] = round(statistics.median(ratios), 3)
            out[name]["baseline_ratio_quartiles"] = [round(q1, 3), round(q3, 3)]
    return out


def measure(baseline=None):
    pkgs = (pcfcolor,) if baseline is None else (pcfcolor, baseline)
    results = measure_series(ear_batches, baseline)
    results |= measure_series(enumeration_batches, baseline, setup=lambda: clear_enumerations(*pkgs))
    for n, draws in ((4, 40), (8, 1)):
        results |= measure_series(partial(small_batches, n, draws), baseline)
    results |= measure_series(partial(input_batches, input_data()), baseline)
    big_edges = {family: list(make().edges()) for family, make in BIG_SOLVES.items()}
    results |= measure_series(partial(big_solve_batches, big_edges), baseline)
    for pkg, prefix in zip(pkgs, ("", "baseline.")):
        for family, edges in big_edges.items():
            entry = results[f"{prefix}solve.cold.{family}{BIG}"]
            entry["graph_kb"] = graph_kb(pkg, edges)
            entry["tracemalloc_peak_kb"] = solve_peak_kb(pkg, edges)
    del big_edges
    results |= measure_series(oracle_batches, baseline)
    results |= measure_series(outerplanar_batches, baseline)
    results |= measure_series(cold_batches, baseline)
    for pkg, prefix in zip(pkgs, ("", "baseline.")):
        for name, (batch, _) in cold_batches(pkg).items():
            if not name.endswith(".gc_off") and name not in UNTRACED:
                results[prefix + name]["tracemalloc_peak_kb"] = traced_peak_kb(batch)
    results |= measure_series(warm_batches, baseline)
    results |= measure_series(traced_batches, baseline)
    with tempfile.TemporaryDirectory() as tmp:
        results |= measure_series(partial(cli_batches, cli_files(tmp)), baseline)
    return results


def ratios(results):
    def per_op(key):
        return results[key]["per_op_us"]

    out = {"is_outerplanar.fan4000/fan1000": round(per_op("is_outerplanar.fan4000") / per_op("is_outerplanar.fan1000"), 2)}
    for family, (_, sizes) in FIRST_SOLVES.items():
        for suffix in ("", ".gc_off"):
            for small, big in zip(sizes, sizes[1:]):
                key = f"structure.cold.{family}{big}{suffix}/{family}{small}"
                out[key] = round(per_op(f"structure.cold.{family}{big}{suffix}") / per_op(f"structure.cold.{family}{small}{suffix}"), 2)
    for family, (_, sizes) in WARM_SOLVES.items():
        for small, big in zip(sizes, sizes[1:]):
            out[f"solve.warm.{family}{big}/{family}{small}"] = round(
                per_op(f"solve.warm.{family}{big}") / per_op(f"solve.warm.{family}{small}"), 2)
    for prefix in ("", "baseline."):
        chi = prefix + "pcf_chromatic_number"
        if f"{chi}.n4" in results:
            out[f"{chi}.n8/n4"] = round(
                results[f"{chi}.n8"]["per_op_us"] / results[f"{chi}.n4"]["per_op_us"], 2)
    for key, entry in results.items():
        if "baseline_ratio_median" in entry:
            out[f"{key}/baseline"] = entry["baseline_ratio_median"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--baseline", metavar="SRC", help="src/ of a checkout to compare every series with")
    args = ap.parse_args(argv)
    timings = measure(None if args.baseline is None else load_package(args.baseline))
    doc = {
        "script": "tools/bench_layers.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "round_budget_s": ROUND_BUDGET_S,
        "rounds_min_max": [MIN_ROUNDS, MAX_ROUNDS],
        "seed": SEED,
        "timings": timings,
        "ratios": ratios(timings),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({k: doc[k] for k in ("timings", "ratios")}, indent=2))


if __name__ == "__main__":
    main()
