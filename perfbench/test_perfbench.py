"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import tracing

CLI = run.import_program()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_exact_counters_repeat_for_the_same_seed(workload, tmp_path):
    counted = tracing.COUNTS + tracing.EXACT_RATIOS
    results = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        runner, metrics, _ = run.measure(CLI, workload, 7, 0.0, 1, workdir)
        assert runner.failed == 0
        results.append({name: metrics[name][0] for name in counted})
    assert results[0] == results[1]
    assert all(results[0][name] > 0 for name in counted if name != "geometry.rule_warnings")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    def written(seed):
        workdir = tmp_path / "inputs"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        ops = inputs.workload_ops(workload, seed, workdir)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return files, [op.argv for op in ops]

    first, again, other = written(3), written(3), written(4)
    assert first == again
    assert first[0].keys() == other[0].keys() and first != other


def test_reference_frechet_equals_the_program():
    from apmsim.validation import Curve, discrete_frechet

    rng = random.Random(1)
    for _ in range(20):
        a = sorted((rng.random(), rng.random()) for _ in range(rng.randint(2, 15)))
        b = sorted((rng.random(), rng.random()) for _ in range(rng.randint(2, 15)))
        want = discrete_frechet(Curve.from_points(a), Curve.from_points(b))
        assert checks.reference_frechet(a, b) == want


def test_json_comparison_tolerance():
    want = {"a": 1.0, "b": [0.5, "x"], "c": 2}
    assert checks.json_differences({"a": 1.0 + 1e-12, "b": [0.5, "x"], "c": 2}, want) == []
    assert checks.json_differences({"a": 1.0 + 1e-8, "b": [0.5, "x"], "c": 2}, want)
    assert checks.json_differences({"b": [0.5, "x"], "a": 1.0, "c": 2}, want)
    assert checks.json_differences({"a": 1.0, "b": [0.5, "y"], "c": 2}, want)


def test_gate_rejects_a_changed_output(tmp_path):
    op = next(op for op in inputs.gate_ops(tmp_path) if op.key == "simulate_csv")
    want = checks.golden_paths(op)[0].read_text(encoding="utf-8")
    assert checks.check_golden(op, "", want) == []
    assert checks.check_golden(op, "", want.replace("1.000000", "1.000001", 1))


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "golden"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate_batch", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_are_the_ones_benchmark_json_names(trace, key, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runner, metrics, _ = run.measure(CLI, "validate_batch", 2, 0.0, trace, tmp_path)
    assert runner.failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in spec[key]}
    if key == "end_to_end":
        assert all(value > 0 for value, _ in metrics.values())
