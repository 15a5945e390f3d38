"""Tests of the benchmark itself, on the tiny `--smoke` shapes.

    PYTHONPATH=src python -m pytest -q bench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from spans import MODULES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def last_json(proc, group):
    """Metric values of a run's result line, checked against BENCHMARK.json."""
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK[group]}
    return {name: m["value"] for name, m in result["metrics"].items()}


# the per-layer metric that must be busy on each workload, and one that
# must stay idle
EXERCISED = {
    "train-static": ("tensor.conv2d.bwd_ms", "tensor.conv2d_per_sample.fwd_ms"),
    "train-dynamic": ("layers.dynamic.masked_weights_bwd_ms", "layers.static.self_ms"),
    "infer-fold": ("models.Model.forward_ms", "tensor.GradTape.backward_ms"),
    "erf-probe": ("erf.estimate_erf_ms", "train.sgd_step_ms"),
}


def test_workload_list_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    values = last_json(run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke"), "per_layer")
    assert values["trace.coverage"] >= 0.9
    busy, idle = EXERCISED[workload]
    assert values[busy] > 0.0
    assert values[idle] == 0.0


def test_smoke_untraced_reports_end_to_end():
    values = last_json(run_bench("--workload", "train-static", "--seed", "70", "--seconds", "1", "--trace", "0", "--smoke"), "end_to_end")
    assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "erf-probe", "--seed", "0", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", workloads.REFERENCED)
def test_wrong_reference_fails(tmp_path, workload):
    wl = workloads.make(workload, workloads.SMOKE, 0, str(tmp_path), {"0": 1.0})
    wl.setup()
    with pytest.raises(workloads.CheckFailed, match="recorded"):
        wl.op(0)


def test_tracer_restores_every_patch():
    owners = [importlib.import_module("gmconv")]
    owners += [importlib.import_module(f"gmconv.{m}") for m in MODULES]
    before = [dict(vars(o)) for o in owners]
    layers = importlib.import_module("gmconv.layers")
    tape_cls = importlib.import_module("gmconv.tensor").GradTape
    classes = [tape_cls, importlib.import_module("gmconv.models").Model, layers.StaticGMConvLayer]
    methods = [dict(vars(c)) for c in classes]

    tracer = Tracer()
    tracer.install()
    try:
        assert layers.conv2d is not before[owners.index(layers)]["conv2d"]
        assert tape_cls.record is not methods[0]["record"]
    finally:
        tracer.uninstall()
    assert [dict(vars(o)) for o in owners] == before
    assert [dict(vars(c)) for c in classes] == methods
