"""Self-tests of the benchmark, on reduced-size (smoke) workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from contoursel import neural, perfdata, prober  # noqa: E402

SEED = harness.reference_data()["default_seed"]
WORKLOADS = sorted(workloads.WORKLOADS)


def smoke(name, trace=False):
    result, details, tracer = harness.run_workload(
        name, SEED, seconds=0.0, trace=trace, size=workloads.SMOKE, log=lambda line: None
    )
    return result, details


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_is_correct_and_emits_the_declared_end_to_end_metrics(name):
    result, details = smoke(name)
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_runs_emit_every_declared_per_layer_metric():
    produced = {}
    for name in WORKLOADS:
        result, details = smoke(name, trace=True)
        assert result["correct"], details["failures"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
        for metric, value in result["metrics"].items():
            produced[metric] = produced.get(metric, 0.0) or value["value"]
    silent = [m for m, v in produced.items() if not v and not m.startswith("trace.")]
    assert silent == []


def test_perturbed_prediction_is_caught(monkeypatch):
    original = neural.Model.forward_batch

    def perturbed(self, stacks, dims):
        pred, cache = original(self, stacks, dims)
        return pred + 1e-6, cache

    monkeypatch.setattr(neural.Model, "forward_batch", perturbed)
    result, details = smoke("separate_train")
    assert not result["correct"] and result["failed"] >= 1
    assert any(f.startswith("separate_train.predictions.matches_reference") for f in details["failures"])


def test_wrong_evaluation_count_is_caught(monkeypatch):
    original = prober.build_soo_stack

    def miscounted(*args, **kwargs):
        stack = original(*args, **kwargs)
        stack.evaluations_spent += 1
        return stack

    monkeypatch.setattr(prober, "build_soo_stack", miscounted)
    result, details = smoke("soo_pipeline")
    assert not result["correct"]
    assert any(f.startswith("soo.evaluations_spent") for f in details["failures"])


def test_wrong_hypervolume_is_caught(monkeypatch):
    original = perfdata.hypervolume_2d
    monkeypatch.setattr(perfdata, "hypervolume_2d", lambda pts, ref: original(pts, ref) * 1.05)
    result, details = smoke("moo_targets")
    assert not result["correct"]
    assert any(f.startswith("moo.hypervolume_matches_grid_oracle") for f in details["failures"])


def test_grid_oracle_agrees_with_hypervolume_2d_on_random_fronts():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.random((int(rng.integers(1, 30)), 2))
        ref = (1.2, 1.3)
        estimate, bound = workloads.grid_hypervolume(pts, ref)
        assert abs(perfdata.hypervolume_2d(pts, ref) - estimate) <= bound


def test_compare_refuses_different_thread_counts(tmp_path):
    paths = []
    for threads in (1, 2):
        path = tmp_path / f"r{threads}.json"
        path.write_text(json.dumps({
            "workload": "soo_pipeline", "trace": False, "metrics": {},
            "environment": {"blas_threads": threads},
        }))
        paths.append(str(path))
    assert compare.main(["--base", paths[0], "--new", paths[1]]) == 2


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moo_targets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
