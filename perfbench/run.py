"""pcfcolor benchmark: one command, one workload, one result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Each measurement runs in a fresh interpreter (worker.py) against the
package sources in ../src, so the package's lru_caches start empty and the
recursion limit is Python's default on every run.

--trace 0 runs three workers, each measuring a third of --seconds, and
prints the end-to-end metrics.  The workers run the same operations, and
each operation's time is its fastest execution over all of them: on a
shared host an operation of a few milliseconds or less can dodge a burst
of contention that would slow its median.  Set-up time is the median over
the three workers and, where set-up is cheap, over more set-up-only
workers run between them.  --trace 1 runs an untraced worker and then a
traced worker on the same fixed number of passes, and prints the
per-layer metrics of the traced one with its overhead against the
untraced one.

The last line of standard output is the JSON result; the line before it
echoes the seed and the details behind the numbers.  Exit code 1 means some
output was wrong (or a worker failed), 2 that the package sources are
missing.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "oracle", "cli")
WORKERS = 3
DEADLINE_S = 170
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
# extra set-up-only workers after each measuring worker, while their
# summed set-up time stays within EXTRA_SETUP_S: a short set-up is noisy
EXTRA_SETUPS = 5
EXTRA_SETUP_S = 1.0
# passes of the traced run (and its untraced partner) per second of
# --seconds, about half of it each on a 2-vCPU machine.  The count is fixed
# rather than fitted to the time, so per-operation figures that mix cold and
# warm passes (cache hit ratios, work done on cache misses) do not depend on
# host or code speed.
TRACE_PASSES_PER_S = {"corpus": 0.2, "oracle": 8.0, "cli": 1.2}
VERIFIED, WRONG = 0, 1  # worker.py's operation statuses


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "pcfcolor" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    reports = []
    setups = []
    if args.trace:
        passes = max(1, round(args.seconds * TRACE_PASSES_PER_S[args.workload]))
        for traced in (0, 1):
            report = run_worker(args, 0, traced, 0, passes, deadline)
            if report is None:
                return 1
            reports.append(report)
    else:
        for part in range(WORKERS):
            report = run_worker(args, part, 0, args.seconds / WORKERS, 0, deadline)
            if report is None:
                return 1
            reports.append(report)
            setups.append(report["setup_s"])
            left = EXTRA_SETUP_S
            for _ in range(EXTRA_SETUPS):
                if setups[-1] > left:
                    break
                extra = run_worker(args, part, 0, 0, 0, deadline, setup_only=True)
                if extra is None:
                    return 1
                setups.append(extra["setup_s"])
                left -= extra["setup_s"]

    wrong = [w for r in reports for w in r["wrong"]]
    attempted = sum(r["execs"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if any(r["n"] != reports[0]["n"] for r in reports):
        print("error: the workers made different operations from one seed", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": [
            {k: r[k] for k in ("setup_s", "passes", "execs", "rss_mb")}
            for r in reports
        ],
        "failures": dict(sum((Counter(r["failures"]) for r in reports), Counter())),
        "wrong_outputs": wrong,
    }
    if args.trace:
        metrics = per_layer(reports[0], reports[1], info)
    else:
        info["setups"] = len(setups)
        metrics = end_to_end(reports, setups, info)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    if wrong:
        count = sum(s == WRONG for s in worst(reports, "status"))
        print(f"error: {count} operations gave wrong outputs, first: {wrong[0]}", file=sys.stderr)
        return 1
    return 0


def run_worker(
    args, part: int, traced: int, budget: float, passes: int, deadline: float,
    setup_only: bool = False,
) -> "dict | None":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--part", str(part), "--parts", str(WORKERS),
        "--budget", repr(budget), "--passes", str(passes), "--trace", str(traced),
    ] + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker {part} ran past the {DEADLINE_S}s deadline", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker {part} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


# -- end-to-end metrics -------------------------------------------------------


def tail(sorted_ns: list[int]) -> tuple[float, float]:
    """The highest ladder percentile with at least 10 samples beyond it."""
    n = len(sorted_ns)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, sorted_ns[rank - 1]
    return 50.0, sorted_ns[math.ceil(n / 2) - 1]


def worst(reports: list[dict], key: str) -> list:
    """Per operation, the largest value over the workers: the worst outcome."""
    return [max(col) for col in zip(*(r[key] for r in reports))]


def doubling_ratio(best: list[int], status: list[int], reports: list[dict]) -> "float | None":
    """Per-doubling growth of the median verified-operation time with n,
    geometric mean over the workload's (bigger, smaller, doublings) pairs."""
    by_group: dict[str, list[int]] = {}
    groups = reports[0]["groups"]
    for dt, s, g in zip(best, status, reports[0]["group"]):
        if s == VERIFIED and g >= 0:
            by_group.setdefault(groups[g], []).append(dt)
    logs = []
    for big, small, doublings in reports[0]["doubling"]:
        if big in by_group and small in by_group:
            ratio = statistics.median(by_group[big]) / statistics.median(by_group[small])
            logs.append(math.log(ratio) / doublings)
    return math.exp(statistics.fmean(logs)) if logs else None


def end_to_end(reports: list[dict], setups: list[float], info: dict) -> dict:
    """Operation times are each operation's fastest execution over all
    workers; an operation counts as verified if every execution was."""
    best = [min(col) for col in zip(*(r["best_ns"] for r in reports))]
    status = worst(reports, "status")
    lat = sorted(best)
    total_s = sum(best) / 1e9
    verified_n = sum(n for n, s in zip(reports[0]["n"], status) if s == VERIFIED)
    execs = sum(r["execs"] for r in reports)
    pct, tail_ns = tail(lat)
    info["op_tail_percentile"] = pct
    info["samples"] = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / total_s, "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "vertices_per_s": (verified_n / total_s, "1/s"),
        "doubling_ratio": (doubling_ratio(best, status, reports), "ratio"),
        "verified_ratio": ((execs - sum(r["failed"] for r in reports)) / execs, "ratio"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports), "MB"),
    }
    if metrics["doubling_ratio"][0] is None:
        info["absent_metrics"] = ["doubling_ratio"]
        print("note: no size pair had verified operations; doubling_ratio absent", file=sys.stderr)
        del metrics["doubling_ratio"]
    return metrics


# -- per-layer metrics (traced run) ---------------------------------------------

# hooks whose work happens while the inputs are made: reported per set-up
SETUP_LAYERS = (
    "families.enumerate_connected_outerplanar",
    "families.random_outerplanar",
    "kernel.degree_plus_k_lists",
)
SELF_MS = (
    "graphs.subgraph", "graphs.is_connected", "graphs.parse_graph6", "graphs.write_graph6",
    "kernel.verify", "structure.block_decomposition", "structure.outer_embedding",
    "structure.find_good_ear_or_chain", "structure.is_outerplanar",
    "structure.classify_end_block", "solver.solve", "solver.color_cycle",
    "solver.color_constrained_path", "oracle.solve_exact", "cli.main",
)
CALLS = (
    "graphs.subgraph", "kernel.verify", "kernel.unique_colors",
    "structure.block_decomposition", "structure.outer_embedding",
    "structure.is_outerplanar", "structure.classify_end_block",
    "solver.color_constrained_path", "oracle.solve_exact",
)
CASES = (
    "Trivial", "K2", "CycleProp", "CycleBlock", "PathLemma", "GoodEar",
    "LongEar.sub1", "LongEar.sub2", "LongEar.sub3", "EarChain.s_ge4",
    "EarChain.s3H3", "EarChain.s3H4", "EarChain.s3H5", "EarExtension",
)
OBSTRUCTIONS = ("IsC5Uniform", "NotOuterplanar", "ListTooSmall", "Disconnected")


def per_layer(plain: dict, traced: dict, info: dict) -> dict:
    tr = traced["trace"]
    ops = traced["execs"]
    self_ns = {(p, n): v for p, n, v in tr["self_ns"]}
    calls = {(p, n): v for p, n, v in tr["calls"]}
    counts = Counter(tr["counts"]) + Counter(traced["counts"])
    absent = set(tr["absent"])
    out: dict = {}

    def put(name: str, hook: str, value: float, unit: str) -> None:
        if hook not in absent:
            out[name] = (value, unit)

    for h in SELF_MS:
        put(f"{h}.self_ms", h, self_ns.get(("op", h), 0) / 1e6 / ops, "ms")
    for h in CALLS:
        put(f"{h}.calls", h, calls.get(("op", h), 0) / ops, "count")
    for h in SETUP_LAYERS:
        put(f"{h}.self_ms", h, self_ns.get(("setup", h), 0) / 1e6, "ms")
    put("graphs.Graph.built_per_op", "graphs.Graph.built",
        calls.get(("op", "graphs.Graph.built"), 0) / ops, "count")
    cache = traced.get("classify_cache")
    if cache is not None:
        looked = cache["hits"] + cache["misses"]
        put("structure.classify_end_block.hit_ratio", "structure.classify_end_block",
            cache["hits"] / looked if looked else 0.0, "ratio")
    else:
        absent.add("structure.classify_end_block.cache_info")
    put("solver.trace_steps_per_op", "solver.solve", counts["solver.trace_steps"] / ops, "count")
    for case in CASES:
        put(f"solver.case.{case}", "solver.solve", counts[f"solver.case.{case}"] / ops, "count")
    for reason in OBSTRUCTIONS:
        put(f"solver.obstruction.{reason}", "solver.solve",
            counts[f"solver.obstruction.{reason}"] / ops, "count")
    exact_s = self_ns.get(("op", "oracle.solve_exact"), 0) / 1e9
    put("oracle.nodes_per_op", "oracle.solve_exact", counts["oracle.nodes"] / ops, "count")
    put("oracle.nodes_per_s", "oracle.solve_exact",
        counts["oracle.nodes"] / exact_s if exact_s else 0.0, "1/s")
    refutes = calls.get(("op", "oracle.refute_choosability"), 0)
    put("oracle.refute.assignments_checked", "oracle.refute_choosability",
        counts["oracle.refute.assignments_checked"] / refutes if refutes else 0.0, "count")
    put("cli.stdout_bytes_per_op", "cli.main", counts["cli.stdout_bytes"] / ops, "bytes")
    out["trace.overhead_ratio"] = (sum(traced["best_ns"]) / sum(plain["best_ns"]), "ratio")

    known = {f"solver.case.{c}" for c in CASES} | {f"solver.obstruction.{r}" for r in OBSTRUCTIONS}
    info["unlisted_counts"] = {
        k: v for k, v in counts.items()
        if k.startswith(("solver.case.", "solver.obstruction.")) and k not in known
    }
    info["absent_hooks"] = sorted(absent)
    info["missing_hook_targets"] = tr["missing"]
    info["spans"] = tr["spans"]
    info["spans_file"] = tr["spans_file"]
    info["traced_ops"] = ops
    return out


if __name__ == "__main__":
    sys.exit(main())
