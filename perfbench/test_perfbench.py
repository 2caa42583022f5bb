"""Tests of the benchmark itself: layer map, traced shares, contract, checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from layers import (  # noqa: E402
    LAYER_PREFIXES,
    LAYERS,
    LayerMap,
    matching_prefixes,
    source_modules,
)
from run import END_TO_END, PER_LAYER, Checker  # noqa: E402
from workloads import PACKAGE, ScenarioWorkload  # noqa: E402


def test_every_module_maps_to_exactly_one_layer():
    modules = list(source_modules(PACKAGE))
    assert len(modules) > 50
    for module in modules:
        assert len(matching_prefixes(module)) == 1, module


def test_every_prefix_covers_a_module():
    modules = list(source_modules(PACKAGE))
    for prefix in LAYER_PREFIXES:
        assert any(prefix in matching_prefixes(m) for m in modules), prefix


def test_layer_map_resolves_files():
    layers = LayerMap(PACKAGE)
    assert layers.layer_of(str(PACKAGE / "lustre" / "nrs.py")) == "lustre.tbf"
    assert layers.layer_of(str(PACKAGE / "__init__.py")) == "scenarios"
    assert layers.layer_of(str(PACKAGE / "sim" / "engine.py")) == "sim"
    assert layers.layer_of("~") == "builtins"
    assert layers.layer_of(json.__file__) == "other"


def test_traced_run_shares_sum_to_one():
    small = ScenarioWorkload(
        "quickstart", {"file_mib": 8.0}, {"n_osts": 1, "io_threads": 16}
    )
    traced = small.trace(0, LayerMap(PACKAGE))
    metrics = traced["layers"]
    total = sum(metrics[f"{layer}.self_frac"] for layer in LAYERS)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert metrics["lustre.self_frac"] == pytest.approx(
        sum(metrics[f"{name}.self_frac"] for name in LAYERS if name.startswith("lustre."))
    )
    plain, rerun = traced["runs"]
    assert plain["outputs"] == rerun["outputs"]
    assert plain["counters"] == rerun["counters"]
    assert 0.0 < metrics["trace.overhead_frac"] < 1.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_checker_rejects_a_changed_output():
    reference = json.loads((HERE / "reference.json").read_text())["workloads"]
    want = reference["quickstart-herd"]["seeds"]["0"]
    checker = Checker("quickstart-herd", 0)
    assert checker.output_ok(want, want, "run 1")
    changed = json.loads(json.dumps(want))
    changed["summary"]["fairness"] += 1e-12
    assert not checker.output_ok(changed, want, "run 2")
    assert "summary.fairness" in checker.problems[-1]


def test_held_out_seed_checks_volume_and_determinism():
    want = json.loads((HERE / "reference.json").read_text())["workloads"][
        "quickstart-herd"
    ]["seeds"]["0"]
    checker = Checker("quickstart-herd", 10**9)
    assert checker.mode == "held-out seed"
    assert checker.output_ok(want, want, "run 1")
    short = json.loads(json.dumps(want))
    short["rpcs_served"] -= 1
    assert not checker.output_ok(short, short, "run 2")
    drifted = json.loads(json.dumps(want))
    drifted["completion_s"]["hog"] += 1.0
    assert not checker.output_ok(drifted, want, "run 3")


def test_counter_mismatch_is_reported():
    checker = Checker("quickstart-herd", 0)
    assert checker.counters_ok([{"a": 1}, {"a": 1, "b": 2}], ["x", "y"])
    assert not checker.counters_ok([{"a": 1}, {"a": 2}], ["x", "y"])


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swarm-rw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart-crash",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
