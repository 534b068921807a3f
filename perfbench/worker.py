"""One measurement in a fresh interpreter: set up a workload, then run its
operations in whole passes, as many as come nearest to the time budget (at
least one) or exactly --passes of them, keeping each operation's fastest
execution.  Prints one JSON report as its last line of output; with
--setup-only the report holds only the set-up time.

Run by run.py with PYTHONPATH pointing at the package sources; the
interpreter keeps Python's default recursion limit and thread stack.
"""

from __future__ import annotations

import time

# set-up time starts before any other import
_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

VERIFIED, WRONG = 0, 1


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0, help="this worker's index in the run")
    p.add_argument("--parts", type=int, default=1, help="measuring workers in the run")
    p.add_argument("--budget", type=float, required=True, help="seconds of timed operations")
    p.add_argument("--passes", type=int, default=0, help="run exactly this many passes instead")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="report set-up time only")
    args = p.parse_args()

    import workloads  # imports pcfcolor: part of set-up time

    tracer = Tracer() if args.trace else None
    absent = sorted(tracer.install()) if tracer else []
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.part}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer:
            tracer.active = True
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = wl.ops
        if tracer:
            tracer.active = False
        setup_s = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # worker k starts its passes k/parts of the way into the list, so
        # the executions of one operation are spread over the whole run
        start = len(ops) * args.part // args.parts
        order = list(range(start, len(ops))) + list(range(start))
        report = measure(ops, order, args.budget, args.passes, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = setup_s
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["doubling"] = [[json.dumps(a), json.dumps(b), d] for a, b, d in wl.doubling]
    if tracer:
        report["trace"] = tracer.summary()
        report["trace"]["absent"] = absent
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        report["trace"]["spans"] = tracer.write_spans(path)
        report["trace"]["spans_file"] = str(path.relative_to(HERE.parent))
    print(json.dumps(report))
    return 0


def measure(ops, order, budget_s: float, passes: int, tracer) -> dict:
    """Run whole passes over `ops`, in `order`; keep each operation's
    fastest execution and its worst outcome."""
    clock = time.perf_counter_ns
    cache = _classify_cache_info()
    before = cache() if cache else None
    best: list = [None] * len(ops)
    status = [VERIFIED] * len(ops)
    failures: Counter = Counter()
    wrong: list[str] = []
    counts: Counter = Counter()
    execs = failed = spent = 0
    budget = budget_s * 1e9
    r = 0
    while True:
        pass_start = spent
        for i in order:
            op = ops[i]
            if tracer:
                tracer.begin_op(execs)
            t0 = clock()
            try:
                result, exc = op.call(), None
            except Exception as e:  # a raising operation does not end the run
                result, exc = None, e
            dt = clock() - t0
            if tracer:
                tracer.end_op()
            if exc is None:
                outcome = VERIFIED if _checked(op, result, wrong) else WRONG
                if op.output_bytes:
                    counts["cli.stdout_bytes"] += op.output_bytes(result)
            else:
                # an exception is a wrong output: SolverInternalError, say,
                # is the solver's own verify rejecting its coloring
                failures[f"{op.kind} n={op.n}: {type(exc).__name__}"] += 1
                outcome = WRONG
                _note(wrong, op, f"raised {type(exc).__name__}: {exc}")
                # the traceback holds every frame of the failed call alive,
                # which would slow the next operation's garbage collection
                exc = None
            spent += dt
            execs += 1
            failed += outcome != VERIFIED
            if best[i] is None or dt < best[i]:
                best[i] = dt
            status[i] = max(status[i], outcome)
        r += 1
        # stop at the pass count that lands nearest the budget, so a pass
        # slightly longer than the budget does not double the work
        if (r >= passes) if passes else (spent + (spent - pass_start) / 2 >= budget):
            break
    group_ids: dict = {}
    report = {
        "passes": r,
        "execs": execs,
        "failed": failed,
        "best_ns": best,
        "status": status,
        "n": [op.n for op in ops],
        "group": [
            -1 if op.group is None else group_ids.setdefault(json.dumps(op.group), len(group_ids))
            for op in ops
        ],
        "groups": list(group_ids),
        "failures": dict(failures),
        "wrong": wrong,
        "counts": dict(counts),
    }
    if cache:
        after = cache()
        report["classify_cache"] = {
            "hits": after.hits - before.hits,
            "misses": after.misses - before.misses,
        }
    return report


def _checked(op, result, wrong: list) -> bool:
    try:
        ok = op.check(result)
    except Exception as exc:  # a malformed output fails its check
        ok, result = False, f"{type(exc).__name__}: {exc}"
    if not ok:
        _note(wrong, op, str(result))
    return ok


def _note(wrong: list, op, what: str) -> None:
    if len(wrong) < 5:
        wrong.append(f"{op.kind} n={op.n}: {what[:300]}")


def _classify_cache_info():
    from pcfcolor import structure

    fn = getattr(structure, "classify_end_block", None)
    return getattr(fn, "cache_info", None)


if __name__ == "__main__":
    sys.exit(main())
