import io
import json

import pytest

from pcfcolor import cli, oracle, solver
from pcfcolor.cli import main
from pcfcolor.graphs import Graph, cycle_graph, parse_graph6, path_graph, write_edge_list, write_graph6
from pcfcolor.families import random_outerplanar
from pcfcolor.kernel import Verdict, degree_plus_k_lists, verify
from pcfcolor.structure import StructureError


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        docs = out.strip().splitlines()
        assert len(docs) == 1, f"expected exactly one JSON line, got: {out!r}"
        return code, json.loads(docs[0])

    return go


@pytest.fixture
def c5_path(tmp_path):
    p = tmp_path / "c5.g6"
    p.write_text(write_graph6(cycle_graph(5)))
    return str(p)


@pytest.fixture
def write_json(tmp_path):
    def go(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return go


def test_color_obstruction_exit_1(run, c5_path, write_json):
    lists = write_json("u.json", {"lists": [[1, 2, 3, 4]] * 5})
    code, doc = run("color", c5_path, "--lists", lists)
    assert code == 1
    assert doc["status"] == "obstruction" and doc["reason"] == "IsC5Uniform"


def test_color_sat_exit_0_with_trace(run, c5_path, write_json):
    lists = write_json(
        "n.json", {"lists": [[1, 2, 3, 4]] * 4 + [[1, 2, 3, 5]]}
    )
    code, doc = run("color", c5_path, "--lists", lists, "--trace")
    assert code == 0 and doc["status"] == "sat"
    got = doc["coloring"]
    assert verify(cycle_graph(5), got).ok
    assert doc["trace"] and all("case" in step for step in doc["trace"])


def test_color_trace_uses_the_solver_serializer(run, tmp_path, write_json):
    g = random_outerplanar(20, 5)
    p = tmp_path / "r20.g6"
    p.write_text(write_graph6(g))
    la = degree_plus_k_lists(g, 2, range(1, 2 * g.max_degree() + 5), 5)
    code, doc = run("color", str(p), "--lists", write_json("l.json", la.to_json()), "--trace")
    res = solver.solve(g, la)
    expected = [json.loads(line) for line in solver.trace_to_json_lines(res.trace).splitlines()]
    assert code == 0 and doc["trace"] == expected


def test_color_trace_builds_no_trace_step(run, tmp_path, write_json, monkeypatch):
    built = []

    def counted(*args):
        built.append(args[0])
        return solver.TraceStep(*args)

    monkeypatch.setattr(solver, "TraceStep", counted)
    g = random_outerplanar(128, 7)
    p = tmp_path / "r128.g6"
    p.write_text(write_graph6(g))
    la = degree_plus_k_lists(g, 2, range(1, 2 * g.max_degree() + 5), 7)
    code, doc = run("color", str(p), "--lists", write_json("l.json", la.to_json()), "--trace")
    assert code == 0 and len(doc["trace"]) > 1 and built == []


@pytest.mark.parametrize("error", [solver.SolverInternalError, StructureError])
def test_internal_error_exit_4(run, c5_path, write_json, monkeypatch, error):
    def broken(g, lists):
        raise error("invariant failed")

    monkeypatch.setattr(solver, "solve", broken)
    lists = write_json("l.json", {"lists": [[1, 2, 3, 4]] * 5})
    code, doc = run("color", c5_path, "--lists", lists)
    assert code == 4
    assert doc == {"status": "internal_error", "message": "invariant failed"}


def test_color_large_random_graph(run, tmp_path, write_json):
    code, gen = run("gen", "random", "500", "--seed", "3")
    assert code == 0
    g = parse_graph6(gen["graph6"])
    p = tmp_path / "r500.g6"
    p.write_text(gen["graph6"])
    la = degree_plus_k_lists(g, 2, range(1, 2 * g.max_degree() + 5), 3)
    code, doc = run("color", str(p), "--lists", write_json("l.json", la.to_json()))
    assert code == 0 and doc["status"] == "sat"
    assert verify(g, doc["coloring"], la).ok


def test_color_oracle_engine(run, c5_path, write_json):
    lists = write_json("u.json", {"lists": [[1, 2, 3, 4]] * 5})
    code, doc = run("color", c5_path, "--lists", lists, "--oracle")
    assert code == 1 and doc["status"] == "unsat" and doc["nodes"] > 0


def test_color_trim_flag(run, c5_path, write_json):
    lists = write_json("big.json", {"lists": [[1, 2, 3, 4, 5]] * 5})
    code, doc = run("color", c5_path, "--lists", lists)
    assert code == 0
    code, doc = run("color", c5_path, "--lists", lists, "--trim")
    assert code == 1 and doc["reason"] == "IsC5Uniform"


def test_color_edge_list_input(run, tmp_path, write_json):
    p = tmp_path / "g.edges"
    p.write_text(write_edge_list(cycle_graph(4)))
    lists = write_json("l.json", {"lists": [[1, 2, 3, 4]] * 4})
    code, doc = run("color", str(p), "--lists", lists)
    assert code == 0 and doc["status"] == "sat"


def test_trace_option_does_not_leak_into_the_next_call(run, c5_path, write_json):
    # the parser is built once per process; each call still parses afresh
    lists = write_json("n.json", {"lists": [[1, 2, 3, 4]] * 4 + [[1, 2, 3, 5]]})
    code, traced = run("color", c5_path, "--lists", lists, "--trace")
    assert code == 0 and "trace" in traced
    code, plain = run("color", c5_path, "--lists", lists)
    assert code == 0 and "trace" not in plain
    assert plain["coloring"] == traced["coloring"]


def test_color_stdin_input(run, write_json, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(cycle_graph(4))))
    lists = write_json("l.json", {"lists": [[1, 2, 3, 4]] * 4})
    code, doc = run("color", "-", "--lists", lists)
    assert code == 0


def test_malformed_graph_exit_2(run, tmp_path, write_json):
    p = tmp_path / "bad.g6"
    p.write_text("@@@nonsense")
    lists = write_json("l.json", {"lists": [[1, 2]] * 3})
    code, doc = run("color", str(p), "--lists", lists)
    assert code == 2 and doc["status"] == "error"


def test_missing_file_exit_2(run, write_json):
    lists = write_json("l.json", {"lists": [[1, 2]] * 3})
    code, doc = run("color", "/nonexistent/graph", "--lists", lists)
    assert code == 2 and doc["status"] == "error"


def test_malformed_lists_exit_2(run, c5_path, tmp_path):
    p = tmp_path / "l.json"
    p.write_text("{not json")
    code, doc = run("color", c5_path, "--lists", str(p))
    assert code == 2


def test_boolean_color_in_lists_exit_2(run, write_json, tmp_path):
    # `true` equals 1 in a set; it is still not a color
    p = tmp_path / "c3.g6"
    p.write_text(write_graph6(cycle_graph(3)))
    lists = write_json("l.json", {"lists": [[1, 2, 3], [1, 2, True], [1, 2, 3]]})
    code, doc = run("color", str(p), "--lists", lists)
    assert code == 2 and doc["status"] == "error"


def test_deeply_nested_lists_exit_2(run, c5_path, tmp_path):
    p = tmp_path / "nested.json"
    p.write_text('{"lists": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, doc = run("color", c5_path, "--lists", str(p))
    assert code == 2 and doc["status"] == "error"


def test_oracle_on_a_long_path(run, tmp_path, write_json):
    # the oracle's search is a loop, so its depth is not bounded by the recursion limit
    g = path_graph(3000)
    p = tmp_path / "p3000.edges"
    p.write_text(write_edge_list(g))
    la = degree_plus_k_lists(g, 2, range(1, 9), 1)
    lists = write_json("l.json", la.to_json())
    code, doc = run("color", str(p), "--lists", lists, "--oracle")
    assert code == 0 and doc["status"] == "sat"
    assert verify(g, doc["coloring"], la).ok
    coloring = write_json("c.json", {"colors": doc["coloring"]})
    code, doc = run("verify", str(p), "--coloring", coloring, "--lists", lists)
    assert code == 0 and doc["status"] == "ok"


def test_oracle_recursion_error_exit_4(run, c5_path, write_json, monkeypatch):
    def broken(g, lists, budget):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(oracle, "solve_exact", broken)
    lists = write_json("l.json", {"lists": [[1, 2, 3, 4]] * 5})
    code, doc = run("color", c5_path, "--lists", lists, "--oracle")
    assert code == 4 and doc["status"] == "internal_error"
    assert doc["message"] == "RecursionError: maximum recursion depth exceeded"


def test_dense_graph6_reaches_the_solver(run, tmp_path, write_json):
    # no edge-count bound on input: K_40 parses and gets its obstruction
    g = Graph(40, [(u, v) for v in range(40) for u in range(v)])
    p = tmp_path / "k40.g6"
    p.write_text(write_graph6(g))
    lists = write_json("l.json", {"lists": [list(range(1, 42))] * 40})
    code, doc = run("color", str(p), "--lists", lists)
    assert code == 1 and doc["reason"] == "NotOuterplanar"


def test_budget_exit_3(run, write_json, tmp_path):
    p = tmp_path / "c8.g6"
    p.write_text(write_graph6(cycle_graph(8)))
    lists = write_json("l.json", {"lists": [[1, 2, 3, 4]] * 8})
    code, doc = run("color", str(p), "--lists", lists, "--oracle", "--budget", "3")
    assert code == 3 and doc["status"] == "budget_exceeded"


def test_negative_budget_and_trials_exit_2(run, write_json, c5_path):
    lists = write_json("l.json", {"lists": [[1, 2, 3, 4]] * 5})
    for argv, message in (
        (("color", c5_path, "--lists", lists, "--oracle", "--budget", "-1"), "budget must be nonnegative, got -1"),
        (("refute", c5_path, "--k", "1", "--budget", "-5"), "budget must be nonnegative, got -5"),
        (("check", "c5", "--seed", "1", "--trials", "-3"), "trials must be nonnegative, got -3"),
    ):
        code, doc = run(*argv)
        assert (code, doc) == (2, {"status": "error", "message": message})


def test_verify_roundtrip(run, tmp_path, write_json):
    p = tmp_path / "c6.g6"
    p.write_text(write_graph6(cycle_graph(6)))
    coloring = write_json("phi.json", {"colors": [1, 2, 3, 1, 2, 3]})
    lists = write_json("l.json", {"lists": [[1, 2, 3, 4]] * 6})
    code, doc = run("verify", str(p), "--lists", lists, "--coloring", coloring)
    assert code == 0 and doc["status"] == "ok"


def test_verify_reports_violations(run, c5_path, write_json):
    coloring = write_json("phi.json", {"colors": [1, 2, 3, 1, 2]})
    code, doc = run("verify", c5_path, "--coloring", coloring)
    assert code == 1
    flagged = {v["vertex"] for v in doc["violations"]}
    assert flagged == {0, 4}
    assert all(v["reason"] == "no_unique_neighbor_color" for v in doc["violations"])


def test_verify_list_violation(run, c5_path, write_json):
    coloring = write_json("phi.json", {"colors": [1, 2, 1, 3, 4]})
    lists = write_json("l.json", {"lists": [[2, 3, 4, 5]] + [[1, 2, 3, 4]] * 4})
    code, doc = run("verify", c5_path, "--lists", lists, "--coloring", coloring)
    assert code == 1
    assert any(v["reason"] == "color_not_in_list" for v in doc["violations"])


def test_gen_cycle_and_theta(run):
    code, doc = run("gen", "cycle", "6")
    assert code == 0 and doc["n"] == 6 and len(doc["edges"]) == 6
    code, doc = run("gen", "theta", "1", "4", "4", "--hard-lists")
    assert code == 0 and doc["expected"] == "unsat"
    assert doc["n"] == 8 and len(doc["lists"]) == 8


def test_gen_rejects_bad_params(run):
    code, doc = run("gen", "theta", "2", "4", "4", "--hard-lists")
    assert code == 2
    code, doc = run("gen", "theta", "1", "5", "4", "--hard-lists")
    assert code == 2
    code, doc = run("gen", "cycle", "2")
    assert code == 2
    code, doc = run("gen", "cycle", "6", "--hard-lists")
    assert code == 2 and doc["status"] == "error"


def test_gen_gadget(run):
    code, doc = run("gen", "gadget", "--host", "p3")
    assert code == 0 and doc["n"] == 12 and doc["expected"] == "unsat"


def test_gen_corpus(run):
    code, doc = run("gen", "corpus", "5")
    assert code == 0 and doc["count"] == 13 and len(doc["graphs"]) == 13


def test_gen_random_echoes_seed(run):
    code, a = run("gen", "random", "7", "--seed", "11")
    _, b = run("gen", "random", "7", "--seed", "11")
    assert code == 0 and a["seed"] == 11 and a["graph6"] == b["graph6"]


def test_check_requires_seed_for_randomized_suites(run):
    code, doc = run("check", "c5")
    assert code == 2 and "--seed" in doc["message"]


def test_check_c5_passes(run):
    code, doc = run("check", "c5", "--trials", "5", "--seed", "1")
    assert code == 0 and doc["status"] == "pass" and doc["seed"] == 1


def test_check_paths_passes(run):
    code, doc = run("check", "paths", "--trials", "10", "--seed", "2")
    assert code == 0 and doc["counts"]["trials"] == 50


def test_check_corpus_positional_bound(run):
    code, doc = run("check", "corpus", "4", "--trials", "2", "--seed", "5")
    assert code == 0 and doc["status"] == "pass"


def test_check_corpus_counts_only_verified_colorings(run, monkeypatch):
    monkeypatch.setattr(cli, "verify", lambda *args: Verdict(False, ()))
    code, doc = run("check", "corpus", "3", "--trials", "1", "--seed", "1")
    assert code == 1 and doc["status"] == "fail"
    assert doc["counts"]["solved"] == 0


def test_check_theta_counts(run):
    code, doc = run("check", "theta")
    assert code == 0 and doc["status"] == "pass"
    assert doc["counts"] == {"theta-1-4-4": 425, "theta-1-4-7": 803, "theta-1-7-7": 1127}


def test_check_gadget_counts(run):
    code, doc = run("check", "gadget")
    assert code == 0 and doc["status"] == "pass"
    assert doc["counts"] == {"plus-one-gadget-2v-at-0": 411, "plus-one-gadget-3v-at-1": 2664}


def test_check_ears_counts(run):
    code, doc = run("check", "ears", "6")
    assert code == 0 and doc["status"] == "pass" and doc["counts"] == {"checked": 62}


def test_check_rejects_a_bound_below_the_first_size(run):
    # a bound below the suite's first size would check nothing and pass
    for argv, first in (
        (("check", "corpus", "1", "--seed", "1"), 2),
        (("check", "ears", "3"), 4),
    ):
        code, doc = run(*argv)
        message = f"suite {argv[1]} starts at n = {first}; bound {first - 1} checks nothing"
        assert (code, doc) == (2, {"status": "error", "message": message})
    code, doc = run("check", "corpus", "2", "--trials", "1", "--seed", "1")
    assert code == 0 and doc["counts"] == {"oracle_checked": 1, "solved": 1}
    code, doc = run("check", "ears", "4")
    assert code == 0 and doc["counts"]["checked"] > 0


def test_check_bound_defaults_to_seven(run):
    assert run("check", "ears") == run("check", "ears", "7")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "corpus", "--bogus"),
        ("color",),
        ("check", "ears", "six"),
        ("check", "ears", "--max-n", "6"),
        ("bogus",),
    ],
)
def test_a_bad_command_line_prints_one_json_error(run, argv):
    code, doc = run(*argv)
    assert code == 2 and doc["status"] == "error" and doc["message"].startswith("pcfcolor")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: pcfcolor check")


def test_refute_conclusive(run, tmp_path):
    p = tmp_path / "c4.g6"
    p.write_text(write_graph6(cycle_graph(4)))
    code, doc = run("refute", str(p), "--k", "1")
    assert code == 0 and doc["status"] == "non_choosable"
    assert doc["witness"]["lists"] == [[1, 2, 3]] * 4


def test_refute_prints_the_same_documents_as_the_signature_generator(tmp_path, capsys):
    # the JSON the generator that skipped seen signatures printed, byte for byte
    cases = [
        (cycle_graph(4), ["--k", "1"],
         '{"assignments_checked": 1, "k": 1, "nodes": 48, "status": "non_choosable", '
         '"witness": {"lists": [[1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3]]}}'),
        (path_graph(4), ["--k", "2", "--universe", "5"],
         '{"assignments_checked": 34, "k": 2, "nodes": 275, "status": "choosable_exhausted", '
         '"witness": null}'),
    ]
    for g, flags, want in cases:
        p = tmp_path / "g.g6"
        p.write_text(write_graph6(g))
        assert main(["refute", str(p), *flags]) == 0
        assert capsys.readouterr().out == want + "\n"


def test_refute_inconclusive_exit_3(run, tmp_path):
    p = tmp_path / "c6.g6"
    p.write_text(write_graph6(cycle_graph(6)))
    code, doc = run("refute", str(p), "--k", "1", "--budget", "2")
    assert code == 3 and doc["status"] == "inconclusive"
