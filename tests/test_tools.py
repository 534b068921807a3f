"""The scripts under tools/ stay runnable: they import, yield their first
record, and time a trivial batch.  No timing is asserted."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_layers  # noqa: E402
import equivalence  # noqa: E402

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
