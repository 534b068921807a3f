"""The scripts under tools/ stay runnable: they import, yield their first
record, time a trivial batch, and trace the coloring steps' tests.  No
timing is asserted."""

import ast
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_layers  # noqa: E402
import equivalence  # noqa: E402
import line_coverage  # noqa: E402

import pcfcolor  # noqa: E402
from conftest import reference_structure  # noqa: E402
from pcfcolor.families import random_outerplanar  # noqa: E402

FIELDS = {"ops", "rounds", "batch_ms", "per_op_us"}
PAIRED = FIELDS | {"baseline_ratio_median", "baseline_ratio_quartiles"}


def test_equivalence_yields_a_record():
    label, text = next(equivalence.records(pcfcolor))
    assert label.startswith("criterion 2") and text


def test_the_structure_records_hash_the_plan_of_cases():
    # the peel's records, converted, hash as the reference peel's cases
    label, text = next(equivalence.structure_records(pcfcolor))
    assert label == "structure: random_outerplanar(10, 0)"
    assert text == repr(reference_structure(random_outerplanar(10, 0)))
    assert "EndBlockCase(" in text


def test_the_command_line_records_and_series_run(tmp_path):
    label, text = next(equivalence.cli_records(pcfcolor))
    assert label == "cli: gen random 1 --seed 0" and text.startswith("0\n{")
    batches = bench_layers.cli_batches(bench_layers.cli_files(tmp_path), pcfcolor)
    assert len(batches) == 3
    for batch, _ in batches.values():
        batch()


def trivial(pkg):
    return {"noop": (lambda: None, 3)}


def test_measure_series_alone():
    out = bench_layers.measure_series(trivial)
    assert set(out) == {"noop"}
    assert set(out["noop"]) == FIELDS
    assert out["noop"]["ops"] == 3
    assert bench_layers.MIN_ROUNDS <= out["noop"]["rounds"] <= bench_layers.MAX_ROUNDS


@pytest.fixture(scope="module")
def baseline():
    return bench_layers.load_package(Path(pcfcolor.__file__).parents[1])


def test_measure_series_against_a_baseline(baseline):
    setups = []
    out = bench_layers.measure_series(trivial, baseline, setup=lambda: setups.append(1))
    assert set(out) == {"noop", "baseline.noop"}
    assert set(out["noop"]) == PAIRED
    assert set(out["baseline.noop"]) == FIELDS
    assert out["noop"]["rounds"] == out["baseline.noop"]["rounds"]
    # one setup before each run of each side: the untimed first run, then
    # every round of both build orders
    assert len(setups) == 2 * (1 + out["noop"]["rounds"])
    q1, q3 = out["noop"]["baseline_ratio_quartiles"]
    assert q1 <= q3


def test_every_statement_of_the_coloring_steps_runs():
    # the step tests of tests/test_solver.py, traced in this process, run
    # every statement of the step functions, the ear extension, and
    # `solve`, the rest coloring included; only the raises that guard
    # invariants stay unrun
    import test_solver as t

    def steps():
        t.test_tiny_graphs()
        t.test_trees_use_pendant_case()
        t.test_whole_cycle_case()
        t.test_attached_triangle_and_square_cases()
        t.test_attached_big_cycle_uses_path_lemma()
        t.test_good_ear_case()
        t.test_long_ear_case()
        t.test_long_ear_subcases_over_sizes()
        t.test_long_ear_identical_interior_lists_hit_the_equal_list_subcase()
        t.test_ear_chain_three_spine_cases()
        t.test_ear_chain_long_spine()
        t.test_ear_chain_long_spine_with_a_long_closing_ear("I|CGgEB_G", 4)
        t.test_ear_chain_long_spine_with_a_long_closing_ear("J|CGGc@_[?_", 5)
        t.test_extend_ear_unanimous_neighborhood_branch()
        t.test_obstruction_disconnected()
        t.test_obstruction_short_lists()
        t.test_obstruction_uniform_c5()
        t.solve(t.Graph(0), [])

    ran = line_coverage.trace(steps)
    path = Path(pcfcolor.__file__).with_name("solver.py")
    owners = {step.__name__ for step in t.solver._STEP.values()} | {"_color_trivial", "solve"}
    assert owners <= {owner for owner, _ in line_coverage.statements(path).values()}
    unrun = [(line, owner) for line, owner, stmt in line_coverage.unrun(ran, path)
             if owner in owners and not isinstance(stmt, ast.Raise)]
    assert unrun == []
