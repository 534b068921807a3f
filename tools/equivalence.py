"""Per-instance equivalence of pcfcolor's outputs, against a second tree.

Runs, instance by instance, and hashes what the package returns:

- `solve` on every criterion-2 instance: each connected outerplanar graph
  of 2 to 8 vertices with 200 degree+2 list draws from the universe
  1..2*maxdeg+4, seeded as in `tests/test_acceptance.py` (203,200
  instances); each hashes `repr((coloring, obstruction))` followed by
  `trace_to_json_lines(trace)`;
- the graph-only pass, `solver._structure_pass(g)`, hashed as the `repr`
  of its plan of `EndBlockCase`s: a package whose peel emits flat step
  records (one with `structure.end_block_case`) has each record converted
  by that function, and a package whose pass returns the cases (an
  earlier tree) is hashed as it is, so both trees hash the same plan; on
  `random_outerplanar(n, seed)` and `random_cactus(n, seed)` for
  n = 10, 20, ..., 160 and seeds 0..39, on fans (vertex 0 joined to the
  path 1..n-1) and strips (edges i,i+1 and i,i+2) for every n from 5 to
  150, on suns (a k-gon with a triangle on every other side, the one
  large-block shape whose every step takes the ear at a free endpoint)
  for every k from 4 to 100, and, for every n from 4 to 200, on the star
  K1,n-1 (center 0) and a bouquet of at least n vertices (triangles and
  4- to 6-cycles through vertex 0, the other labels shuffled, seeded by
  n): shapes whose end blocks tie on smallest vertex and size, so that
  the second smallest vertex decides the peel order;
- the command line, `cli.main` run in this process: the exit code and
  stdout of `pcfcolor gen random n --seed s`, and of `pcfcolor color
  --trace` on that graph (as graph6) with degree+2 lists drawn with seed s
  from 1..2*maxdeg+4, for n = 1, 2, 3, 8, 32, 128 and 500 and seeds 0..24.

Each package builds its own instances, with its own enumerator, list
generator and `Graph`.  The tool prints one combined sha256 over all
instances for this tree and, with `--baseline SRC`, for the package under
SRC (another checkout's `src/`, loaded beside this one in the same
process), then the first instance whose hashes differ, if any, and exits
with status 1 when the two trees differ.  Nothing is timed.  Run from the
repository root:

    python tools/equivalence.py [--baseline SRC]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from bench_layers import fan, load_package, strip  # also puts this tree's src/ on the path

import pcfcolor  # noqa: E402

SEED = 20260814  # the acceptance suite's seed
TRIALS = 200
RANDOM_SIZES = range(10, 161, 10)
RANDOM_SEEDS = range(40)
SHAPE_SIZES = range(5, 151)
SUN_SIZES = range(4, 101)
HUB_SIZES = range(4, 201)
CLI_SIZES = (1, 2, 3, 8, 32, 128, 500)
CLI_SEEDS = range(25)


def sun(k):
    """The k-gon 0..k-1 with a triangle on every other side: vertex k + i // 2
    is joined to i and i + 1 for each even i < k - 1."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(v, k + i // 2) for i in range(0, k - 1, 2) for v in (i, i + 1)]
    return k + k // 2, edges


def star(n):
    """K1,n-1: vertex 0 joined to 1..n-1."""
    return n, [(0, i) for i in range(1, n)]


def bouquet(n):
    """Triangles and 4- to 6-cycles through vertex 0, drawn with seed n until
    there are at least n vertices, the labels 1, 2, ... shuffled."""
    rng = random.Random(n)
    cycles, size = [], 1
    while size < n:
        k = rng.randint(3, 6)
        cycles.append([0, *range(size, size + k - 1)])
        size += k - 1
    label = [0, *rng.sample(range(1, size), size - 1)]
    return size, [(label[c[i - 1]], label[v]) for c in cycles for i, v in enumerate(c)]


def records(pkg):
    """(label, text) for every instance, in a fixed order, as the package
    `pkg` computes them."""
    solver, kernel, families = pkg.solver, pkg.kernel, pkg.families
    for n in range(2, 9):
        for gi, g in enumerate(families.enumerate_connected_outerplanar(n)):
            universe = range(1, 2 * g.max_degree() + 5)
            for t in range(TRIALS):
                rng = random.Random(((SEED + n) * 1_000_003 + gi) * 1_000_003 + t)
                res = solver.solve(g, kernel.degree_plus_k_lists(g, 2, universe, rng))
                text = repr((res.coloring, res.obstruction)) + solver.trace_to_json_lines(res.trace)
                yield f"criterion 2: n={n} graph {gi} trial {t}", text
    yield from structure_records(pkg)
    yield from cli_records(pkg)


def structure_records(pkg):
    """(label, text) for each graph-only pass: the `repr` of
    `(obstruction, plan, rest)` from `solver._structure_pass`, its plan as
    `EndBlockCase`s (converted by `structure.end_block_case` where the
    package has it)."""
    G, convert = pkg.graphs.Graph, getattr(pkg.structure, "end_block_case", None)

    def text(g):
        screened, plan, rest = pkg.solver._structure_pass(g)
        return repr((screened, plan if convert is None else tuple(map(convert, plan)), rest))

    for name in ("random_outerplanar", "random_cactus"):
        make = getattr(pkg.families, name)
        for n, seed in itertools.product(RANDOM_SIZES, RANDOM_SEEDS):
            yield f"structure: {name}({n}, {seed})", text(make(n, seed))
    for name, make in (("fan", fan), ("strip", strip)):
        for n in SHAPE_SIZES:
            yield f"structure: {name}({n})", text(G(n, make(n).edges()))
    for k in SUN_SIZES:
        yield f"structure: sun({k})", text(G(*sun(k)))
    for name, make in (("star", star), ("bouquet", bouquet)):
        for n in HUB_SIZES:
            yield f"structure: {name}({n})", text(G(*make(n)))


def cli_records(pkg):
    """(label, text) for each command line run: its exit code and stdout."""
    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pkg.cli.main(list(argv))
        return f"{code}\n{out.getvalue()}"

    with tempfile.TemporaryDirectory() as tmp:
        graph, lists = Path(tmp, "graph.g6"), Path(tmp, "lists.json")
        for n, seed in itertools.product(CLI_SIZES, CLI_SEEDS):
            yield f"cli: gen random {n} --seed {seed}", run("gen", "random", str(n), "--seed", str(seed))
            g = pkg.families.random_outerplanar(n, seed)
            la = pkg.kernel.degree_plus_k_lists(g, 2, range(1, 2 * g.max_degree() + 5), seed)
            graph.write_text(pkg.graphs.write_graph6(g))
            lists.write_text(json.dumps(la.to_json()))
            yield f"cli: color --trace random({n}, {seed})", run("color", str(graph), "--lists", str(lists), "--trace")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", metavar="SRC", help="src/ of a checkout to compare with")
    args = ap.parse_args(argv)
    pkgs = {"this": pcfcolor}
    if args.baseline is not None:
        pkgs["baseline"] = load_package(args.baseline)
    digests = {name: hashlib.sha256() for name in pkgs}
    count, first = 0, None
    for row in itertools.zip_longest(*(records(pkg) for pkg in pkgs.values())):
        hashes = []
        for (name, digest), record in zip(digests.items(), row):
            label, text = record or ("(none)", "")
            h = hashlib.sha256(text.encode()).digest()
            digest.update(h)
            hashes.append((label, h))
        count += 1
        if first is None and len(set(hashes)) > 1:
            first = " / ".join(dict.fromkeys(label for label, _ in hashes))
    print(f"{count} instances")
    for name, digest in digests.items():
        print(f"{name:8} {digest.hexdigest()}")
    if len(pkgs) > 1:
        print("identical" if first is None else f"first difference: {first}")
    return 0 if first is None else 1


if __name__ == "__main__":
    sys.exit(main())
