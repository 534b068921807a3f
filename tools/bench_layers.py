"""Per-layer timings of pcfcolor, written to BENCH_12.json.

Times, in this process, the layers a repeated solve and the command line
spend their time in:

- warm `solve` on every connected outerplanar graph of 4 and of 8
  vertices (the per-graph structure cache filled first), with degree+2
  list draws from the criterion-2 universe 1..2*maxdeg+4: 40 per graph at
  n = 4 (5 graphs), one per graph at n = 8 (777 graphs);
- `verify` on those colorings with their lists, and `unique_colors` at
  every vertex of them;
- `parse_graph6` and `write_graph6` on `random_outerplanar(n, 1)` for
  n = 128 and 1,000;
- `solve_exact` on the corpus graphs of 6, 7 and 8 vertices with one
  degree+2 list draw each;
- `is_outerplanar` on the 25,238 candidate graphs that enumerating the
  connected outerplanar graphs of up to 8 vertices tests, and on fans
  (vertex 0 joined to the path 1..n-1) of 1,000 and 4,000 vertices;
- the graph-only pass of a first solve (`solver._structure`, its cache
  cleared before each run) on paths and cactus graphs
  (`families.random_cactus`) of 1,000, 2,000, 4,000 and 8,000 vertices,
  and on `random_outerplanar` graphs (re-seeded until m >= n), fans and
  strip triangulations (edges i,i+1 and i,i+2) of 200, 400 and 800
  vertices; each with the garbage collector on and, as `.gc_off`, off;
- warm `solve` (the structure cached, so only the list work and the
  coloring pass run) on paths, fans and strips of 200, 400 and 800
  vertices, with the lists {1, ..., deg(v)+2}.

Each entry is the fastest of 20 timings of one whole batch (5 for the
first solves), reported per operation; the fastest run is the one least
disturbed by other work on the host, and entries measured together take
turns.  `ratios` divides the time on a fan by the time on a fan a quarter
its size (for `is_outerplanar`: 4 means linear time, 16 quadratic), and
each first or warm solve by the one of half its size (2 linear, 4
quadratic).

Nothing is asserted about the numbers.  Run from the repository root (it
imports the package from the `src/` beside this file):

    python tools/bench_layers.py [--out BENCH_12.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pcfcolor import solver  # noqa: E402
from pcfcolor.families import (  # noqa: E402
    enumerate_connected_outerplanar,
    random_cactus,
    random_outerplanar,
)
from pcfcolor.graphs import Graph, parse_graph6, path_graph, write_graph6  # noqa: E402
from pcfcolor.kernel import ListAssignment, degree_plus_k_lists, unique_colors, verify  # noqa: E402
from pcfcolor.oracle import solve_exact  # noqa: E402
from pcfcolor.solver import solve  # noqa: E402
from pcfcolor.structure import is_outerplanar  # noqa: E402

REPEAT = 20
SEED = 1


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
    """Every graph `enumerate_connected_outerplanar` tests for outerplanarity
    on its way to max_n vertices: each smaller graph plus one new vertex
    joined to a nonempty subset."""
    out = []
    for n in range(2, max_n + 1):
        for g in enumerate_connected_outerplanar(n - 1):
            base = list(g.edges())
            for mask in range(1, 1 << (n - 1)):
                out.append(Graph(n, base + [(v, n - 1) for v in range(n - 1) if mask >> v & 1]))
    return out


def fastest(batches, repeat=REPEAT, setup=None, gc_off=()):
    """Fastest of `repeat` timings of each batch, as a dict of per-op
    figures per name.  `batches` maps a name to (batch, ops); the batches
    take turns, so a slow spell on the host falls on all of them, and each
    run follows an untimed setup().  The batches named in `gc_off` run
    with the garbage collector disabled."""
    best = dict.fromkeys(batches, float("inf"))
    for _ in range(repeat):
        for name, (batch, _) in batches.items():
            if setup is not None:
                setup()
            if name in gc_off:
                gc.disable()
            try:
                start = time.perf_counter()
                batch()
                best[name] = min(best[name], time.perf_counter() - start)
            finally:
                gc.enable()
    return {
        name: {"ops": ops, "batch_ms": round(best[name] * 1e3, 4),
               "per_op_us": round(best[name] * 1e6 / ops, 3)}
        for name, (_, ops) in batches.items()
    }


def measure():
    results = {}
    for n, draws in ((4, 40), (8, 1)):
        inst = instances([n], draws)
        colored = []
        for g, lists in inst:
            res = solve(g, lists)  # fills the structure cache: the timed solves are warm
            if res.ok:
                colored.append((g, res.coloring, lists))

        def solve_all(inst=inst):
            for g, lists in inst:
                solve(g, lists)

        def verify_all(colored=colored):
            for g, colors, lists in colored:
                verify(g, colors, lists)

        def unique_all(colored=colored):
            for g, colors, _ in colored:
                for v in range(g.n):
                    unique_colors(g, colors, v)

        results.update(fastest({
            f"solve.warm.n{n}": (solve_all, len(inst)),
            f"verify.n{n}": (verify_all, len(colored)),
            f"unique_colors.n{n}": (unique_all, sum(g.n for g, _, _ in colored)),
        }))
    for n in (128, 1000):
        g = random_outerplanar(n, 1)
        text = write_graph6(g)
        results.update(fastest({
            f"write_graph6.n{n}": (lambda g=g: write_graph6(g), 1),
            f"parse_graph6.n{n}": (lambda t=text: parse_graph6(t), 1),
        }))
    inst = instances([6, 7, 8])

    def exact_all():
        for g, lists in inst:
            solve_exact(g, lists)

    results.update(fastest({"solve_exact.n6-8": (exact_all, len(inst))}))

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
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_12.json"))
    args = ap.parse_args(argv)
    timings = measure()
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
