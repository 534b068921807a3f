"""The benchmark in perfbench/ reads the package by attribute name and
prints one result line that BENCHMARK.json describes.  These checks keep
the package and that contract in step: a renamed hook target silently
drops a per-layer metric, and a failing or malformed run reports nothing.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pcfcolor import structure

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric_names(section: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[section]}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_every_hook_target_resolves():
    for name, (_, targets, _) in _tracing().HOOKS.items():
        for module_name, path in targets:
            owner = importlib.import_module(f"pcfcolor.{module_name}")
            for part in path.split("."):
                owner = getattr(owner, part, None)
                assert owner is not None, f"{name}: pcfcolor.{module_name}.{path} is missing"
    assert callable(structure.classify_end_block.cache_info)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_workload_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    assert set(result["metrics"]) == _metric_names(section)
