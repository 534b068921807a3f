"""Per-layer timings of pcfcolor, written to BENCH_15.json.

Times, in this process, the layers a repeated solve and the command line
spend their time in, and the enumeration of the graph corpora:

- warm `solve` on every connected outerplanar graph of 4 and of 8
  vertices (the per-graph structure cache filled first), with degree+2
  list draws from the criterion-2 universe 1..2*maxdeg+4: 40 per graph at
  n = 4 (5 graphs), one per graph at n = 8 (777 graphs);
- `verify` on those colorings with their lists, and `unique_colors` at
  every vertex of them;
- `parse_graph6` and `write_graph6` on `random_outerplanar(n, 1)` for
  n = 128 and 1,000;
- the exact oracle: `solve_exact` on the corpus graphs of 6, 7 and 8
  vertices with one degree+2 list draw each, `pcf_chromatic_number` on
  the twelve evenly spaced 8-vertex corpus graphs the benchmark's
  `oracle` workload uses, and `refute_choosability` on C4 with k = 1 and
  on P4 with k = 2 and a universe of 5 colors;
- `is_outerplanar` on the 25,238 raw candidates of the enumeration up
  to 8 vertices (each connected outerplanar graph of up to 7 vertices
  plus one new vertex joined to a nonempty subset; the enumerator itself
  tests about 4,900 of them), and on fans (vertex 0 joined to the path
  1..n-1) of 1,000 and 4,000 vertices;
- the graph-only pass of a first solve (`solver._structure`, its cache
  cleared before each run) on paths and cactus graphs
  (`families.random_cactus`) of 1,000, 2,000, 4,000 and 8,000 vertices,
  and on `random_outerplanar` graphs (re-seeded until m >= n), fans and
  strip triangulations (edges i,i+1 and i,i+2) of 200, 400 and 800
  vertices; each with the garbage collector on and, as `.gc_off`, off;
- warm `solve` (the structure cached, so only the list work and the
  coloring pass run) on paths, fans and strips of 200, 400 and 800
  vertices, with the lists {1, ..., deg(v)+2};
- the ear search (`find_good_ear_or_chain`, embeddings built first): the
  14,296 searches of the ear-search digest in `tests/test_structure.py`
  (every 2-connected non-cycle outerplanar graph of 4 to 10 vertices at
  every anchor) as one batch, and a fan and a strip of 1,000 vertices at
  every 50th anchor;
- cold enumeration: `enumerate_connected_outerplanar(8)` and
  `enumerate_two_connected_outerplanar(10)`, their caches cleared before
  each run, so each run also enumerates every smaller size it builds on.

With `--baseline SRC` the warm solves at n = 4 and 8 with their `verify`
and `unique_colors` batches, the ear search, the enumerations and the
three oracle batches also run on the package under SRC (another
checkout's `src/`), loaded beside this one in the same process.  Its
batches, named `baseline.*`, take turns with this tree's, so the two are
compared in one run rather than across two files: batches of a few
microseconds per operation move by about 10% from one process to the
next.

Each entry is the fastest of 20 timings of one whole batch (5 for the
first solves, 10 for the enumerations), reported per operation; the
fastest run is the one least disturbed by other work on the host, and
entries measured together take turns.  `ratios` divides the time on a fan
by the time on a fan a quarter its size (for `is_outerplanar`: 4 means
linear time, 16 quadratic), and each first or warm solve by the one of
half its size (2 linear, 4 quadratic); for each batch compared with a
baseline it gives the median, over the rounds, of its time divided by its
baseline's in the same round (the entry also has the quartiles).

Nothing is asserted about the numbers.  Run from the repository root (it
imports the package from the `src/` beside this file):

    python tools/bench_layers.py [--out BENCH_15.json] [--baseline SRC]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pcfcolor  # noqa: E402
from pcfcolor import solver  # noqa: E402
from pcfcolor.families import (  # noqa: E402
    enumerate_connected_outerplanar,
    enumerate_two_connected_outerplanar,
    random_cactus,
    random_outerplanar,
)
from pcfcolor.graphs import Graph, cycle_graph, parse_graph6, path_graph, write_graph6  # noqa: E402
from pcfcolor.kernel import ListAssignment, degree_plus_k_lists  # noqa: E402
from pcfcolor.solver import solve  # noqa: E402
from pcfcolor.structure import is_outerplanar  # noqa: E402

REPEAT = 20
ENUMERATION_REPEAT = 10
SEED = 1
CHI_AT_8 = 12  # evenly spaced 8-vertex graphs, as in the `oracle` workload


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
}

WARM_SOLVES = {
    "path": (path_graph, (200, 400, 800)),
    "fan": (fan, (200, 400, 800)),
    "strip": (strip, (200, 400, 800)),
}


def enumeration_candidates(max_n):
    """The raw candidates of the enumeration up to max_n vertices: each
    connected outerplanar graph of fewer vertices plus one new vertex
    joined to a nonempty subset, every one of them, although
    `enumerate_connected_outerplanar` skips most without a test."""
    out = []
    for n in range(2, max_n + 1):
        for g in enumerate_connected_outerplanar(n - 1):
            base = list(g.edges())
            for mask in range(1, 1 << (n - 1)):
                out.append(Graph(n, base + [(v, n - 1) for v in range(n - 1) if mask >> v & 1]))
    return out


def load_package(src):
    """The pcfcolor package under `src`, imported as `pcfcolor_baseline`
    beside this tree's own, with its `families` module loaded."""
    pkg = Path(src).resolve() / "pcfcolor"
    spec = importlib.util.spec_from_file_location(
        "pcfcolor_baseline", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    importlib.import_module(f"{spec.name}.families")
    return mod


def small_batches(pkg, n, draws):
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
    for name, make in (("fan", fan), ("strip", strip)):
        h = pkg.graphs.Graph(1000, make(1000).edges())
        emb = pkg.structure.outer_embedding(h)
        searches[f"{name}1000"] = [(h, emb, x) for x in range(0, 1000, 50)]

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
    chi = [G(8, g.edges()) for g in by_8[:: len(by_8) // CHI_AT_8][:CHI_AT_8]]
    refute = [(G(4, cycle_graph(4).edges()), 1, None), (G(4, path_graph(4).edges()), 2, 5)]

    def exact_all(solve_exact=orc.solve_exact):
        for g, lists in exact:
            solve_exact(g, lists)

    def chi_all(chromatic=orc.pcf_chromatic_number):
        for g in chi:
            chromatic(g)

    def refute_all(refute_choosability=orc.refute_choosability):
        for g, k, bound in refute:
            refute_choosability(g, k, universe_bound=bound)

    return {
        "solve_exact.n6-8": (exact_all, len(exact)),
        "pcf_chromatic_number.n8": (chi_all, len(chi)),
        "refute_choosability.c4k1-p4k2": (refute_all, len(refute)),
    }


def enumeration_batches(pkg):
    """Cold enumerations by the package `pkg`; each run needs its caches
    cleared first (`clear_enumerations`)."""
    fam = pkg.families
    return {
        "enumerate.connected.n8": (lambda: fam.enumerate_connected_outerplanar(8), 1),
        "enumerate.two_connected.n10": (lambda: fam.enumerate_two_connected_outerplanar(10), 1),
    }


def clear_enumerations(*pkgs):
    for pkg in pkgs:
        pkg.families.enumerate_connected_outerplanar.cache_clear()
        pkg.families.enumerate_two_connected_outerplanar.cache_clear()
    gc.collect()


def measure_series(make, baseline=None, **kw):
    """`fastest` over the batches make(package) of this tree; against a
    baseline package, over the baseline's too, named `baseline.*`, each
    beside its partner.  Each of ours then also gets the median and the
    quartiles, over the rounds, of its time divided by the baseline's in
    the same round, which a slow spell on the host moves less than a
    ratio of two fastest times."""
    ours = make(pcfcolor)
    if baseline is None:
        return fastest(ours, **kw)
    theirs = {f"baseline.{name}": batch for name, batch in make(baseline).items()}
    rounds = {}
    out = fastest({k: v for pair in zip(theirs.items(), ours.items()) for k, v in pair},
                  rounds=rounds, **kw)
    for name in ours:
        ratios = [a / b for a, b in zip(rounds[name], rounds[f"baseline.{name}"])]
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        out[name]["baseline_ratio_median"] = round(statistics.median(ratios), 3)
        out[name]["baseline_ratio_quartiles"] = [round(q1, 3), round(q3, 3)]
    return out


def fastest(batches, repeat=REPEAT, setup=None, gc_off=(), rounds=None):
    """Fastest of `repeat` timings of each batch, as a dict of per-op
    figures per name.  `batches` maps a name to (batch, ops); the batches
    take turns, in reverse order every other round, so a slow spell on the
    host falls on all of them, and each run follows an untimed setup().
    The batches named in `gc_off` run with the garbage collector disabled.
    A `rounds` dict receives every timing of each batch, in seconds."""
    best = dict.fromkeys(batches, float("inf"))
    for r in range(repeat):
        for name, (batch, _) in list(batches.items())[:: -1 if r % 2 else 1]:
            if setup is not None:
                setup()
            if name in gc_off:
                gc.disable()
            try:
                start = time.perf_counter()
                batch()
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            best[name] = min(best[name], elapsed)
            if rounds is not None:
                rounds.setdefault(name, []).append(elapsed)
    return {
        name: {"ops": ops, "batch_ms": round(best[name] * 1e3, 4),
               "per_op_us": round(best[name] * 1e6 / ops, 3)}
        for name, (_, ops) in batches.items()
    }


def measure(baseline=None):
    results = measure_series(ear_batches, baseline)
    pkgs = (pcfcolor,) if baseline is None else (pcfcolor, baseline)
    results |= measure_series(enumeration_batches, baseline, repeat=ENUMERATION_REPEAT,
                              setup=lambda: clear_enumerations(*pkgs))
    for n, draws in ((4, 40), (8, 1)):
        results |= measure_series(lambda pkg: small_batches(pkg, n, draws), baseline)
    for n in (128, 1000):
        g = random_outerplanar(n, 1)
        text = write_graph6(g)
        results.update(fastest({
            f"write_graph6.n{n}": (lambda g=g: write_graph6(g), 1),
            f"parse_graph6.n{n}": (lambda t=text: parse_graph6(t), 1),
        }))
    results |= measure_series(oracle_batches, baseline)

    cands = enumeration_candidates(8)
    results.update(fastest({
        "is_outerplanar.candidates.n2-8": (lambda: [is_outerplanar(g) for g in cands], len(cands)),
    }))
    results.update(fastest({
        f"is_outerplanar.fan{n}": (lambda g=fan(n): is_outerplanar(g), 1) for n in (1000, 4000)
    }))

    def clear():
        solver._structure.cache_clear()
        gc.collect()

    for family, (make, sizes) in FIRST_SOLVES.items():
        batches = {}
        for n in sizes:
            batch = (lambda g=make(n): solver._structure(g), 1)
            batches[f"structure.cold.{family}{n}"] = batch
            batches[f"structure.cold.{family}{n}.gc_off"] = batch
        results.update(fastest(batches, repeat=5, setup=clear,
                               gc_off={name for name in batches if name.endswith(".gc_off")}))
    clear()

    warm = {}
    for family, (make, sizes) in WARM_SOLVES.items():
        for n in sizes:
            g = make(n)
            lists = ListAssignment([range(1, g.degree(v) + 3) for v in range(n)])
            solve(g, lists)  # fills the structure cache
            warm[f"solve.warm.{family}{n}"] = (lambda g=g, lists=lists: solve(g, lists), 1)
    results.update(fastest(warm))
    return results


def ratios(results):
    def ms(key):
        return results[key]["batch_ms"]

    out = {"is_outerplanar.fan4000/fan1000": round(ms("is_outerplanar.fan4000") / ms("is_outerplanar.fan1000"), 2)}
    for family, (_, sizes) in FIRST_SOLVES.items():
        for suffix in ("", ".gc_off"):
            for small, big in zip(sizes, sizes[1:]):
                key = f"structure.cold.{family}{big}{suffix}/{family}{small}"
                out[key] = round(ms(f"structure.cold.{family}{big}{suffix}") / ms(f"structure.cold.{family}{small}{suffix}"), 2)
    for family, (_, sizes) in WARM_SOLVES.items():
        for small, big in zip(sizes, sizes[1:]):
            out[f"solve.warm.{family}{big}/{family}{small}"] = round(
                ms(f"solve.warm.{family}{big}") / ms(f"solve.warm.{family}{small}"), 2)
    for key, entry in results.items():
        if "baseline_ratio_median" in entry:
            out[f"{key}/baseline"] = entry["baseline_ratio_median"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_15.json"))
    ap.add_argument("--baseline", metavar="SRC",
                    help="src/ of a checkout to compare the warm solves, ear search, enumerations and oracle with")
    args = ap.parse_args(argv)
    timings = measure(None if args.baseline is None else load_package(args.baseline))
    doc = {
        "script": "tools/bench_layers.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": REPEAT,
        "seed": SEED,
        "timings": timings,
        "ratios": ratios(timings),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({k: doc[k] for k in ("timings", "ratios")}, indent=2))


if __name__ == "__main__":
    main()
