import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import in_lists, naive_pcf_solve, pcf_ok, reference_solve_exact
from pcfcolor import families, oracle
from pcfcolor.cli import main
from pcfcolor.graphs import Graph, cycle_graph, path_graph, write_graph6
from pcfcolor.kernel import ListAssignment, Verdict
from pcfcolor.oracle import (
    BudgetExceededError,
    CHOOSABLE_EXHAUSTED,
    NON_CHOOSABLE,
    SAT,
    UNSAT,
    pcf_chromatic_number,
    refute_choosability,
    solve_exact,
)


def uniform(n, colors):
    return ListAssignment([colors] * n)


def test_solve_exact_sat_returns_checked_coloring():
    g = cycle_graph(6)
    res = solve_exact(g, uniform(6, [1, 2, 3]))
    assert res.status == SAT
    assert pcf_ok(g, res.coloring)
    assert in_lists(res.coloring, uniform(6, [1, 2, 3]))
    assert res.nodes > 0


def test_solve_exact_unsat_on_uniform_c5():
    res = solve_exact(cycle_graph(5), uniform(5, [1, 2, 3, 4]))
    assert res.status == UNSAT and res.coloring is None


def test_solve_exact_empty_list_is_unsat():
    g = path_graph(2)
    res = solve_exact(g, ListAssignment([[1, 2], []]))
    assert res.status == UNSAT


def test_budget_exhaustion_raises_with_node_count():
    g = cycle_graph(8)
    with pytest.raises(BudgetExceededError) as exc:
        solve_exact(g, uniform(8, [1, 2, 3, 4]), budget=5)
    assert exc.value.nodes >= 5


def test_pcf_chromatic_numbers_of_small_cycles():
    # cycles need 3 colors when the length is divisible by 3, else 4,
    # except the 5-cycle where even 4 colors are not enough
    assert pcf_chromatic_number(cycle_graph(6)) == 3
    assert pcf_chromatic_number(cycle_graph(9)) == 3
    assert pcf_chromatic_number(cycle_graph(4)) == 4
    assert pcf_chromatic_number(cycle_graph(5)) == 5
    assert pcf_chromatic_number(cycle_graph(7)) == 4
    assert pcf_chromatic_number(path_graph(2)) == 2
    assert pcf_chromatic_number(Graph(1)) == 1


def test_refute_finds_uniform_three_lists_on_c4():
    res = refute_choosability(cycle_graph(4), 1)
    assert res.status == NON_CHOOSABLE
    assert res.witness is not None
    assert res.witness.sizes() == (3, 3, 3, 3)
    # the canonical witness is the all-{1,2,3} assignment
    assert all(lst == frozenset({1, 2, 3}) for lst in res.witness)


def test_refute_exhausts_on_k2_with_degree_plus_two():
    res = refute_choosability(path_graph(2), 2, universe_bound=4)
    assert res.status == CHOOSABLE_EXHAUSTED
    assert res.witness is None
    assert res.assignments_checked > 0


def test_refute_exhausts_on_c6_small_universe():
    res = refute_choosability(cycle_graph(6), 1, universe_bound=4)
    assert res.status == CHOOSABLE_EXHAUSTED


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_matches_naive_enumeration(data):
    n = data.draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    g = Graph(n, edges)
    lists = ListAssignment(
        [
            data.draw(st.sets(st.integers(1, 5), min_size=1, max_size=3))
            for _ in range(n)
        ]
    )
    res = solve_exact(g, lists)
    naive = naive_pcf_solve(g, lists)
    assert (res.status == SAT) == (naive is not None)
    if res.status == SAT:
        assert pcf_ok(g, res.coloring) and in_lists(res.coloring, lists)


def _outcome(solve, g, lists, budget):
    try:
        return solve(g, lists, budget)
    except BudgetExceededError as exc:
        return ("budget exceeded", exc.nodes)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_exact_matches_reference_search(data):
    # any graph, disconnected or with isolated vertices, and lists of 0-5
    # colors: same status, coloring and node count, and the same node count
    # when a budget runs out
    n = data.draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, edges)
    lists = ListAssignment(
        [data.draw(st.sets(st.integers(1, 6), max_size=5)) for _ in range(n)]
    )
    for budget in (data.draw(st.integers(0, 60)), 20_000):
        assert _outcome(solve_exact, g, lists, budget) == _outcome(
            reference_solve_exact, g, lists, budget
        )


def test_oracle_workload_families_match_reference_search(monkeypatch):
    unsat = [
        families.c5_uniform(),
        *(families.theta_hard_lists(a, b) for a, b in ((4, 4), (4, 7), (7, 7))),
        families.degree_plus_one_gadget(Graph(2, [(0, 1)]), 0),
        families.degree_plus_one_gadget(path_graph(3), 1),
    ]
    for inst in unsat:
        res = solve_exact(inst.graph, inst.lists)
        assert res.status == UNSAT
        assert res == reference_solve_exact(inst.graph, inst.lists)

    def engines_agree(run):
        ours = run()
        with monkeypatch.context() as m:
            m.setattr(oracle, "solve_exact", reference_solve_exact)
            assert run() == ours
        return ours

    for g in families.enumerate_connected_outerplanar(4):
        assert engines_agree(lambda: pcf_chromatic_number(g)) is not None
    res = engines_agree(lambda: refute_choosability(cycle_graph(4), 1))
    assert res.status == NON_CHOOSABLE
    for g in (path_graph(3), cycle_graph(3), path_graph(4)):
        res = engines_agree(lambda: refute_choosability(g, 2, universe_bound=5))
        assert res.status == CHOOSABLE_EXHAUSTED and res.assignments_checked > 0


def test_refute_rejects_negative_k_and_a_universe_below_the_largest_list():
    with pytest.raises(ValueError, match="nonnegative"):
        refute_choosability(path_graph(3), -1)
    with pytest.raises(ValueError, match="largest list size 4"):
        refute_choosability(path_graph(3), 2, universe_bound=3)
    # a bound equal to the largest list still searches
    assert refute_choosability(path_graph(3), 2, universe_bound=4).assignments_checked > 0


def test_refute_cli_exits_2_on_a_universe_below_the_largest_list(tmp_path, capsys):
    p = tmp_path / "p3.g6"
    p.write_text(write_graph6(path_graph(3)))
    code = main(["refute", str(p), "--k", "2", "--universe", "2"])
    docs = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(docs) == 1
    assert json.loads(docs[0])["status"] == "error"


def test_sat_self_check_raises_without_assert(monkeypatch, tmp_path, capsys):
    # the check must not be an `assert`, which `python -O` strips
    def rejects(g, colors, lists=None):
        return Verdict(False, ())

    monkeypatch.setattr(oracle, "verify", rejects)
    g = cycle_graph(6)
    lists = uniform(6, [1, 2, 3])
    with pytest.raises(AssertionError, match="invalid coloring"):
        solve_exact(g, lists)
    gp = tmp_path / "c6.g6"
    gp.write_text(write_graph6(g))
    lp = tmp_path / "l.json"
    lp.write_text(json.dumps(lists.to_json()))
    code = main(["color", str(gp), "--lists", str(lp), "--oracle"])
    docs = capsys.readouterr().out.strip().splitlines()
    assert code == 4 and len(docs) == 1
    doc = json.loads(docs[0])
    assert doc["status"] == "internal_error" and "invalid coloring" in doc["message"]
    # and the same check under `python -O`
    script = (
        "from pcfcolor import graphs, kernel, oracle\n"
        "oracle.verify = lambda g, colors, lists=None: kernel.Verdict(False, ())\n"
        "oracle.solve_exact(graphs.cycle_graph(6), kernel.ListAssignment([[1, 2, 3]] * 6))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 1 and "invalid coloring" in run.stderr
