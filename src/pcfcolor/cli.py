"""Command line front end.

Subcommands: color, verify, gen, check, refute.  Exactly one JSON document
goes to stdout, whatever the input; progress notes go to stderr.  Exit
codes: 0 for a satisfiable result or a passing suite, 1 for
unsat/obstruction/violations or a failing suite, 2 for input errors
(including a bad command line and JSON nested too deeply to decode),
reported as {"status": "error", "message": ...}, 3 when a search budget
ran out, 4 for any other exception: a failed solver or structure
invariant, or a crash such as MemoryError, reported as
{"status": "internal_error", "message": ...}.  `-h` prints help instead.

Graphs are read from a file path or "-" (stdin), in either of two formats,
detected from the first line: an edge list ("n m" header then one "u v"
pair per line) or graph6.  Lists and colorings are JSON documents of the
shape {"lists": [[...], ...]} and {"colors": [..., null, ...]}.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import families, oracle, solver
from .graphs import Graph, cycle_graph, parse_edge_list, parse_graph6, path_graph, write_graph6
from .kernel import ListAssignment, coloring_from_json, degree_plus_k_lists, verify
from .structure import (
    chain_is_good,
    ear_is_good,
    Ear,
    StructureError,
    find_good_ear_or_chain,
    outer_embedding,
)

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_graph(path: str) -> Graph:
    text = _read_text(path)
    first = next((line for line in text.splitlines() if line.strip()), "")
    tokens = first.split()
    if len(tokens) == 2:
        try:
            int(tokens[0]), int(tokens[1])
        except ValueError:
            pass
        else:
            return parse_edge_list(text)
    return parse_graph6(first.strip())


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_lists(path: str) -> ListAssignment:
    return ListAssignment.from_json(_load_json(path))


def _graph_doc(g: Graph) -> dict:
    return {"n": g.n, "graph6": write_graph6(g), "edges": [list(e) for e in g.edges()]}


# -- color / verify -----------------------------------------------------------


def cmd_color(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    lists = load_lists(args.lists)
    if args.trim:
        lists = solver.trim_lists(g, lists)
    if args.oracle:
        try:
            res = oracle.solve_exact(g, lists, budget=args.budget)
        except oracle.BudgetExceededError as exc:
            return EXIT_BUDGET, {"status": "budget_exceeded", "nodes": exc.nodes}
        if res.status == oracle.SAT:
            return EXIT_SAT, {
                "status": "sat",
                "engine": "oracle",
                "coloring": res.coloring,
                "nodes": res.nodes,
            }
        return EXIT_UNSAT, {"status": "unsat", "engine": "oracle", "nodes": res.nodes}
    res = solver.solve(g, lists)
    if res.ok:
        doc = {"status": "sat", "engine": "constructive", "coloring": res.coloring}
        if args.trace:
            doc["trace"] = res.trace_json()
        return EXIT_SAT, doc
    return EXIT_UNSAT, {
        "status": "obstruction",
        "reason": res.obstruction.reason,
        "detail": res.obstruction.detail,
    }


def cmd_verify(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    lists = load_lists(args.lists) if args.lists else None
    colors = coloring_from_json(_load_json(args.coloring))
    verdict = verify(g, colors, lists)
    if verdict.ok:
        return EXIT_SAT, {"status": "ok", "n": g.n}
    return EXIT_UNSAT, {
        "status": "violations",
        "violations": [
            {"vertex": v.vertex, "reason": v.reason, "other": v.other}
            for v in verdict.violations
        ],
    }


# -- gen ----------------------------------------------------------------------


def _instance_doc(inst: families.NamedInstance) -> dict:
    doc = {"status": "ok", "name": inst.name, "expected": inst.expected}
    doc.update(_graph_doc(inst.graph))
    doc["lists"] = inst.lists.to_json()["lists"] if inst.lists else None
    return doc


def cmd_gen(args) -> tuple[int, dict]:
    if args.family == "cycle":
        if args.hard_lists:
            if args.length != 5:
                raise ValueError("hard lists require length 5")
            return EXIT_SAT, _instance_doc(families.c5_uniform())
        doc = {"status": "ok", "name": f"cycle-{args.length}"}
        doc.update(_graph_doc(cycle_graph(args.length)))
        return EXIT_SAT, doc
    if args.family == "theta":
        a, b, c = args.lengths
        if args.hard_lists:
            if a != 1:
                raise ValueError("hard lists require the length-1 path first")
            return EXIT_SAT, _instance_doc(families.theta_hard_lists(b, c))
        doc = {"status": "ok", "name": f"theta-{a}-{b}-{c}"}
        doc.update(_graph_doc(families.theta(a, b, c)))
        return EXIT_SAT, doc
    if args.family == "gadget":
        host, v0 = _gadget_host(args.host, args.v0)
        return EXIT_SAT, _instance_doc(families.degree_plus_one_gadget(host, v0))
    if args.family == "corpus":
        graphs = families.enumerate_connected_outerplanar(args.n)
        return EXIT_SAT, {
            "status": "ok",
            "n": args.n,
            "count": len(graphs),
            "graphs": [write_graph6(g) for g in graphs],
        }
    if args.family == "random":
        g = families.random_outerplanar(args.n, args.seed)
        doc = {"status": "ok", "name": f"random-{args.n}", "seed": args.seed}
        doc.update(_graph_doc(g))
        return EXIT_SAT, doc
    raise ValueError(f"unknown family {args.family}")


def _gadget_host(name: str, v0: "int | None") -> tuple[Graph, int]:
    if name == "k2":
        return Graph(2, [(0, 1)]), 0 if v0 is None else v0
    if name == "p3":
        return path_graph(3), 1 if v0 is None else v0
    raise ValueError(f"unknown gadget host {name}")


# -- check --------------------------------------------------------------------
#
# One driver per acceptance suite, shared with tests/test_acceptance.py.  Each
# returns (counts, failures); a randomized one draws from rng_for(*salt).


def _trial_rng(seed: int, *salt: int) -> random.Random:
    mixed = seed
    for s in salt:
        mixed = mixed * 1_000_003 + s + 1
    return random.Random(mixed)


def check_c5(*, trials: int, rng_for, budget: int = oracle.DEFAULT_BUDGET):
    """Criterion 1: uniform C5 is refuted, non-uniform 4-lists (salt t) colored."""
    failures = []
    inst = families.c5_uniform()
    g = inst.graph
    res = solver.solve(g, inst.lists)
    if res.ok or res.obstruction.reason != solver.REASON_C5_UNIFORM:
        failures.append("uniform 5-cycle was not reported as the obstruction")
    if oracle.solve_exact(g, inst.lists, budget=budget).status != oracle.UNSAT:
        failures.append("oracle found a coloring of the uniform 5-cycle")
    done = 0
    for t in range(trials):
        rng = rng_for(t)
        while True:
            lists = [frozenset(rng.sample(range(1, 7), 4)) for _ in range(5)]
            if any(l != lists[0] for l in lists):
                break
        la = ListAssignment(lists)
        res = solver.solve(g, la)
        if not (res.ok and verify(g, res.coloring, la).ok):
            failures.append(f"trial {t}: no verified coloring of non-uniform lists {la}")
            continue
        if oracle.solve_exact(g, la, budget=budget).status != oracle.SAT:
            failures.append(f"trial {t}: oracle disagrees on non-uniform lists")
        done += 1
    return {"uniform": 1, "non_uniform_trials": done}, failures


def check_theta(*, budget: int = oracle.DEFAULT_BUDGET):
    """Criterion 4: theta graphs with degree+1 lists are uncolorable and flagged."""
    failures, counts = [], {}
    for l1, l2 in ((4, 4), (4, 7), (7, 7)):
        inst = families.theta_hard_lists(l1, l2)
        _log(f"check theta: {inst.name} ({inst.graph.n} vertices)")
        res = oracle.solve_exact(inst.graph, inst.lists, budget=budget)
        if res.status != oracle.UNSAT:
            failures.append(f"{inst.name}: oracle found a coloring, expected none")
        con = solver.solve(inst.graph, inst.lists)
        if con.ok or con.obstruction.reason != solver.REASON_LIST_TOO_SMALL:
            failures.append(f"{inst.name}: degree+1 lists not flagged as too small")
        counts[inst.name] = res.nodes
    return counts, failures


def check_gadget(*, budget: int = oracle.DEFAULT_BUDGET):
    """Criterion 3: the degree+1 gadgets on K2 and P3 are uncolorable."""
    failures, counts = [], {}
    for host_name, size in (("k2", 8), ("p3", 12)):
        host, v0 = _gadget_host(host_name, None)
        inst = families.degree_plus_one_gadget(host, v0)
        _log(f"check gadget: {inst.name} ({inst.graph.n} vertices)")
        if inst.graph.n != size:
            failures.append(f"{inst.name}: {inst.graph.n} vertices, expected {size}")
        res = oracle.solve_exact(inst.graph, inst.lists, budget=budget)
        if res.status != oracle.UNSAT:
            failures.append(f"{inst.name}: oracle found a coloring, expected none")
        counts[inst.name] = res.nodes
    return counts, failures


def check_corpus(
    *, max_n: int, trials: int, rng_for, oracle_max_n: int, budget: int = oracle.DEFAULT_BUDGET
):
    """Criterion 2: the corpus to max_n with degree+2 lists (salt n, gi, t)."""
    failures = []
    solved = 0
    oracle_checked = 0
    for n in range(2, max_n + 1):
        graphs = families.enumerate_connected_outerplanar(n)
        _log(f"check corpus: n={n}, {len(graphs)} graphs x {trials} list samples")
        for gi, g in enumerate(graphs):
            universe = range(1, 2 * g.max_degree() + 5)
            for t in range(trials):
                where = f"n={n} graph {gi} trial {t}"
                lists = degree_plus_k_lists(g, 2, universe, rng_for(n, gi, t))
                res = solver.solve(g, lists)
                if res.ok:
                    if verify(g, res.coloring, lists).ok:
                        solved += 1
                    else:
                        failures.append(f"{where}: invalid coloring")
                elif res.obstruction.reason == solver.REASON_C5_UNIFORM:
                    if not (g.n == 5 and all(lists[v] == lists[0] for v in range(5))):
                        failures.append(f"{where}: bogus obstruction")
                else:
                    failures.append(f"{where}: unexpected {res.obstruction.reason}")
                if n <= oracle_max_n:
                    exact = oracle.solve_exact(g, lists, budget=budget)
                    want = oracle.SAT if res.ok else oracle.UNSAT
                    if exact.status != want:
                        failures.append(f"{where}: engines disagree")
                    oracle_checked += 1
    return {"solved": solved, "oracle_checked": oracle_checked}, failures


def check_paths(*, trials: int, rng_for, coloring_ok):
    """Criterion 6: the path lemma (salt s, t), judged by coloring_ok(g, colors, lists)."""
    failures = []
    done = 0
    for s in range(3, 8):
        sizes = [2, 3] + [4] * (s - 3) + [3, 2]
        for t in range(trials):
            rng = rng_for(s, t)
            lists = [frozenset(rng.sample(range(1, 9), k)) for k in sizes]
            try:
                got = solver.color_constrained_path(lists)
            except Exception as exc:
                failures.append(f"s={s} trial {t}: {exc}")
            else:
                if not coloring_ok(path_graph(s + 1), got, lists):
                    failures.append(f"s={s} trial {t}: bad coloring {got}")
            done += 1
    return {"trials": done}, failures


def check_ears(*, max_n: int, ear_ok, chain_ok):
    """Criterion 7: a good ear or chain, judged by ear_ok / chain_ok(g, found, x)."""
    failures = []
    checked = 0
    for n in range(4, max_n + 1):
        graphs = [
            g
            for g in families.enumerate_two_connected_outerplanar(n)
            if g.m > g.n
        ]
        _log(f"check ears: n={n}, {len(graphs)} non-cycle blocks")
        for gi, g in enumerate(graphs):
            emb = outer_embedding(g)
            if emb is None:
                failures.append(f"n={n} graph {gi}: embedding failed")
                continue
            for x in range(n):
                try:
                    found = find_good_ear_or_chain(g, emb, x)
                except Exception as exc:
                    failures.append(f"n={n} graph {gi} x={x}: {exc}")
                    continue
                good = ear_ok if isinstance(found, Ear) else chain_ok
                if not good(g, found, x):
                    failures.append(f"n={n} graph {gi} x={x}: structure not good")
                checked += 1
    return {"checked": checked}, failures


def cmd_check(args) -> tuple[int, dict]:
    needs_seed = args.suite in ("c5", "corpus", "paths")
    if needs_seed and args.seed is None:
        raise ValueError(f"suite {args.suite} is randomized; pass --seed")
    if args.trials < 0:
        raise ValueError(f"trials must be nonnegative, got {args.trials}")
    # the sizes the suite checks: from its first size up to its enumerator's cap
    sizes = {"corpus": (2, families.CONNECTED_MAX_N), "ears": (4, families.TWO_CONNECTED_MAX_N)}
    first, last = sizes.get(args.suite, (None, None))
    if first is not None and args.bound < first:
        raise ValueError(
            f"suite {args.suite} starts at n = {first}; bound {args.bound} checks nothing")
    if last is not None and args.bound > last:
        raise ValueError(f"suite {args.suite} stops at n = {last}; bound {args.bound} is above it")
    rng_for = functools.partial(_trial_rng, args.seed)
    suites = {
        "c5": lambda: check_c5(trials=args.trials, rng_for=rng_for, budget=args.budget),
        "theta": lambda: check_theta(budget=args.budget),
        "gadget": lambda: check_gadget(budget=args.budget),
        "corpus": lambda: check_corpus(
            max_n=args.bound, trials=args.trials, rng_for=rng_for,
            oracle_max_n=args.oracle_max_n, budget=args.budget,
        ),
        "paths": lambda: check_paths(trials=args.trials, rng_for=rng_for, coloring_ok=verify),
        "ears": lambda: check_ears(max_n=args.bound, ear_ok=ear_is_good, chain_ok=chain_is_good),
    }
    try:
        counts, failures = suites[args.suite]()
    except oracle.BudgetExceededError as exc:
        return EXIT_BUDGET, {
            "status": "budget_exceeded",
            "suite": args.suite,
            "nodes": exc.nodes,
        }
    doc = {
        "status": "pass" if not failures else "fail",
        "suite": args.suite,
        "counts": counts,
        "failures": failures[:50],
    }
    if args.seed is not None:
        doc["seed"] = args.seed
    return (EXIT_SAT if not failures else EXIT_UNSAT), doc


# -- refute -------------------------------------------------------------------


def cmd_refute(args) -> tuple[int, dict]:
    g = load_graph(args.graph)
    res = oracle.refute_choosability(
        g, args.k, universe_bound=args.universe, budget=args.budget
    )
    doc = {
        "status": res.status,
        "k": args.k,
        "assignments_checked": res.assignments_checked,
        "nodes": res.nodes,
        "witness": res.witness.to_json() if res.witness else None,
    }
    code = EXIT_BUDGET if res.status == oracle.INCONCLUSIVE else EXIT_SAT
    return code, doc


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a bad command line as ValueError, so
    that `main` answers it with one JSON document instead of usage text;
    `-h` still prints help and exits 0."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="pcfcolor",
        description="Proper conflict-free list coloring of outerplanar graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("color", help="color a graph from lists")
    c.add_argument("graph", help="graph file (edge list or graph6), or - for stdin")
    c.add_argument("--lists", required=True, help='JSON file {"lists": [[...], ...]}')
    c.add_argument("--trim", action="store_true", help="cut lists to degree+2 smallest first")
    c.add_argument("--trace", action="store_true", help="include the case trace")
    c.add_argument("--oracle", action="store_true", help="use the exhaustive oracle")
    c.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    c.set_defaults(func=cmd_color)

    v = sub.add_parser("verify", help="verify a coloring certificate")
    v.add_argument("graph")
    v.add_argument("--lists", help="optional JSON lists to check membership")
    v.add_argument("--coloring", required=True, help='JSON file {"colors": [...]}')
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gen", help="generate graphs and instances")
    gsub = g.add_subparsers(dest="family", required=True)
    gc = gsub.add_parser("cycle")
    gc.add_argument("length", type=int)
    gc.add_argument("--hard-lists", action="store_true", help="uniform 4-lists (length 5)")
    gt = gsub.add_parser("theta")
    gt.add_argument("lengths", type=int, nargs=3, metavar="LEN")
    gt.add_argument("--hard-lists", action="store_true", help="degree+1 lists, unsat")
    gg = gsub.add_parser("gadget")
    gg.add_argument("--host", choices=("k2", "p3"), default="k2")
    gg.add_argument("--v0", type=int, default=None)
    gk = gsub.add_parser("corpus")
    gk.add_argument("n", type=int)
    gr = gsub.add_parser("random")
    gr.add_argument("n", type=int)
    gr.add_argument("--seed", type=int, required=True)
    g.set_defaults(func=cmd_gen)

    k = sub.add_parser("check", help="run a self-check suite")
    k.add_argument("suite", choices=("c5", "theta", "gadget", "corpus", "paths", "ears"))
    k.add_argument("bound", type=int, nargs="?", default=7, help="max n (corpus, ears; default 7)")
    k.add_argument("--trials", type=int, default=50)
    k.add_argument("--seed", type=int, default=None)
    k.add_argument("--oracle-max-n", type=int, default=6)
    k.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    k.set_defaults(func=cmd_check)

    r = sub.add_parser("refute", help="search for a non-colorable degree+k assignment")
    r.add_argument("graph")
    r.add_argument("--k", type=int, required=True, choices=(0, 1, 2))
    r.add_argument("--universe", type=int, default=None, help="cap on distinct colors")
    r.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    r.set_defaults(func=cmd_refute)
    return p


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: building costs about 20 parses
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code, doc = args.func(args)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(json.dumps({"status": "error", "message": str(exc)}))
        return EXIT_INPUT
    except Exception as exc:  # a failed invariant, or a crash such as MemoryError
        known = isinstance(exc, (solver.SolverInternalError, StructureError))
        message = str(exc) if known else f"{type(exc).__name__}: {exc}"
        print(json.dumps({"status": "internal_error", "message": message}))
        return EXIT_INTERNAL
    print(json.dumps(doc, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
