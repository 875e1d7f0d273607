"""Smoke tests for the benchmark itself: python3 -m pytest benchmarks -q

They run every workload at its tiny size, so they take about half a minute.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
harness = importlib.import_module("harness")
tracing = importlib.import_module("tracing")


def run_cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def tiny(workload, trace, seed=1):
    proc = run_cli("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                   "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    detail, summary = tiny(workload, trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert detail["fail_frac"] == 0.0
    assert detail["absent"] == [] if trace else "absent" not in detail


def test_traced_profiles_show_the_layers_each_workload_is_for():
    fill, fill_summary = tiny("scar-fill", 1)
    assert fill["profile"]["ops_calls"] == 0
    assert "ops" in fill["layers_without_calls"]
    assert fill_summary["metrics"]["filling.extract_filling.calls"]["value"] > 0
    desk, desk_summary = tiny("train-desk", 1)
    assert "filling" in desk["layers_without_calls"]
    assert desk_summary["metrics"]["ops.vc_conv.calls"]["value"] > 0
    assert desk_summary["metrics"]["hierarchy.conv_edges"]["value"] == 552


def test_counts_and_digests_repeat_across_runs():
    first_detail, first = tiny("train-desk", 1)
    second_detail, second = tiny("train-desk", 1)
    counts = [n for n in first["metrics"] if n.endswith(".calls")]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first_detail["digests"] == second_detail["digests"]
    other_detail, _ = tiny("train-desk", 1, seed=2)
    assert other_detail["digests"]["dataset"] != first_detail["digests"]["dataset"]


def test_unwounded_pair_counts_as_failed(tmp_path):
    detail, summary = harness.run_workload(
        "scar-fill", 1, 0.1, False, tmp_path / "work", SPEC, threads=1, tiny=True,
        unwounded_pairs=1,
    )
    assert not summary["correct"]
    assert summary["failed"] >= 1
    assert detail["fail_frac"] > 0
    assert any("NoFillingError" in f for f in detail["failures"])


def test_tracer_restores_the_package(tmp_path):
    model = importlib.import_module("woundfill.model")
    ops = importlib.import_module("woundfill.ops")
    train = importlib.import_module("woundfill.train")
    checkpoint = importlib.import_module("woundfill.checkpoint")
    forward = vars(model.Autoencoder)["forward"]
    harness.run_workload("train-desk", 1, 0.1, True, tmp_path / "work", SPEC, threads=1, tiny=True)
    assert model.vc_conv is ops.vc_conv
    assert train.save_checkpoint is checkpoint.save_checkpoint
    assert vars(model.Autoencoder)["forward"] is forward


def test_missing_function_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.wrapped = {"mesh.unique_edges"}
    summary = tracer.summary()
    assert harness.layer_metric("mesh.vertex_adjacency.calls", summary, 0.0) is None
    assert harness.layer_metric("meshio.bytes_read", summary, 0.0) is None
    assert harness.layer_metric("mesh.unique_edges.calls", summary, 0.0) == 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_helpers():
    assert harness.tail_percentile(99) == 0
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(200) == 95
    assert harness.tail_percentile(1000) == 99
    assert harness.training_samples(32, 4, 8) == 32
    assert harness.training_samples(8, 4, 3) == 12
    assert harness.training_samples(6, 4, 3) == 10
