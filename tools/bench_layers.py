"""Per-layer timings of pcfcolor, written to BENCH_9.json.

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
  degree+2 list draw each.

Each entry is the fastest of 20 timings of one whole batch, reported per
operation; the fastest run is the one least disturbed by other work on
the host.  Nothing is asserted about the numbers.  Run from the repository
root (it imports the package from the `src/` beside this file):

    python tools/bench_layers.py [--out BENCH_9.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pcfcolor.families import enumerate_connected_outerplanar, random_outerplanar  # noqa: E402
from pcfcolor.graphs import parse_graph6, write_graph6  # noqa: E402
from pcfcolor.kernel import degree_plus_k_lists, unique_colors, verify  # noqa: E402
from pcfcolor.oracle import solve_exact  # noqa: E402
from pcfcolor.solver import solve  # noqa: E402

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


def fastest(batch, ops):
    """Fastest of REPEAT timings of batch(), as a dict of per-op figures."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        batch()
        best = min(best, time.perf_counter() - start)
    return {"ops": ops, "batch_ms": round(best * 1e3, 4), "per_op_us": round(best * 1e6 / ops, 3)}


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

        results[f"solve.warm.n{n}"] = fastest(solve_all, len(inst))
        results[f"verify.n{n}"] = fastest(verify_all, len(colored))
        results[f"unique_colors.n{n}"] = fastest(unique_all, sum(g.n for g, _, _ in colored))
    for n in (128, 1000):
        g = random_outerplanar(n, 1)
        text = write_graph6(g)
        results[f"write_graph6.n{n}"] = fastest(lambda g=g: write_graph6(g), 1)
        results[f"parse_graph6.n{n}"] = fastest(lambda t=text: parse_graph6(t), 1)
    inst = instances([6, 7, 8])

    def exact_all():
        for g, lists in inst:
            solve_exact(g, lists)

    results["solve_exact.n6-8"] = fastest(exact_all, len(inst))
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_9.json"))
    args = ap.parse_args(argv)
    doc = {
        "script": "tools/bench_layers.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": REPEAT,
        "seed": SEED,
        "timings": measure(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["timings"], indent=2))


if __name__ == "__main__":
    main()
