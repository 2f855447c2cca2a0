"""Runs one workload: set-up, closed-loop timed rounds, checks, metrics.

The end-to-end run (trace off) installs no wrappers.  The traced run
alternates untraced and traced rounds, so the tracing overhead is the
difference of their medians, taken under the same conditions.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads
from workloads import FULL, Checks

SETUP_REPEATS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> dict:
    """name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def reference_data() -> dict:
    return load_json(os.path.join(HERE, "reference.json"))


def _outputs_match(got, want, rtol: float, atol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def check_outputs(name, size, seed, outputs, first, refs, checks: Checks) -> None:
    """Outputs repeat exactly across the rounds of a run (fixed thread
    count), and match the recorded reference where the seed has one."""
    keys = workloads.REFERENCE_OUTPUTS[name]
    if first is not None:
        for key in keys:
            checks.check(
                f"{name}.{key}.repeats_across_rounds",
                np.array_equal(outputs[key], first[key]),
                "a round's output differs from the first round's",
            )
    recorded = refs["references"].get(name, {}).get(size.name, {}).get(str(seed))
    if recorded is None:
        return
    for key in keys:
        tol = next(t for t in refs["tolerance"].values() if key in t["applies_to"])
        checks.check(
            f"{name}.{key}.matches_reference",
            _outputs_match(outputs[key], recorded[key], tol["rtol"], tol["atol"]),
            f"outside rtol {tol['rtol']}, atol {tol['atol']} of the seed-{seed} reference",
        )


def _median_rate(samples, count: str, stage: str):
    rates = [s["counts"][count] / s["stages"][stage] for s in samples if s["stages"].get(stage)]
    return statistics.median(rates) if rates else None


def _median_stage(samples, stage: str):
    times = [s["stages"][stage] for s in samples if stage in s["stages"]]
    return statistics.median(times) if times else None


def run_workload(name, seed, seconds, trace, size=FULL, import_s=0.0, refs=None, log=print):
    """Set up, run timed rounds for `seconds`, check every round.

    Returns the result line (correct, attempted, failed, metrics), the
    details for the result file (failed checks, stage medians, per-round
    samples) and the tracer (None with trace off).
    """
    refs = refs if refs is not None else reference_data()
    checks = Checks()
    failed_ops = 0
    setups, rounds, untraced_walls = [], [], []
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    with workloads.make_workdir(os.path.join(ROOT, ".perfbench", "tmp")) as workdir:
        workload = workloads.WORKLOADS[name](seed, size, workdir)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state, stages, counts = workload.setup()
            setups.append({"wall": time.perf_counter() - t0, "stages": stages, "counts": counts})
        first = None
        start = time.perf_counter()
        k = 0
        while True:
            traced = trace and k % 2 == 1
            try:
                if traced:
                    (outputs, stages, counts), wall = tracer.run_round(workload.round, state)
                else:
                    t0 = time.perf_counter()
                    outputs, stages, counts = workload.round(state)
                    wall = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - a failed round is reported, not fatal
                failed_ops += 1
                log(f"FAILED round {k}:\n{traceback.format_exc()}")
                break
            workload.check(state, outputs, checks)
            check_outputs(name, size, seed, outputs, first, refs, checks)
            first = first or {key: outputs[key] for key in workloads.REFERENCE_OUTPUTS[name]}
            sample = {"traced": traced, "wall": wall, "stages": stages, "counts": counts}
            rounds.append(sample)
            if not traced:
                untraced_walls.append(wall)
            k += 1
            if time.perf_counter() - start >= seconds and (not trace or k >= 2):
                break
    for failure in checks.failures:
        log(f"FAILED check {failure}")
    attempted = checks.attempted + k + failed_ops
    failed = len(checks.failures) + failed_ops
    timed = [r for r in rounds if not r["traced"]]

    # separate_train probes in set-up, so its probe rate comes from there
    probed = timed if any("probe" in r["stages"] for r in timed) else setups
    measured = {
        "wall_s": statistics.median(untraced_walls) if untraced_walls else None,
        "setup_s": import_s + statistics.median(s["wall"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_evals_per_s": _median_rate(probed, "evaluations", "probe"),
    }
    stage_metrics = {
        f"stage.{stage}_s": _median_stage(timed, stage) for stage in sorted({s for r in timed for s in r["stages"]})
    }
    stage_metrics["stage.train_samples_per_s"] = _median_rate(timed, "train_samples", "train")
    stage_metrics["stage.infer_samples_per_s"] = _median_rate(timed, "infer_samples", "infer")
    if trace:
        traced_walls = [r["wall"] for r in rounds if r["traced"]]
        measured["trace.overhead_s"] = statistics.median(traced_walls) - measured["wall_s"] if traced_walls else None
        measured["trace.unattributed_s"] = tracer.metric("round.self.s")
    metrics = {}
    for metric, unit in declared_metrics(trace).items():
        value = measured[metric] if metric in measured else tracer.metric(metric)
        if value is None:
            raise RuntimeError(f"metric {metric} was not measured")
        metrics[metric] = {"value": value, "unit": unit}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "size": size.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "failures": checks.failures,
        "stage_metrics": {k: v for k, v in stage_metrics.items() if v is not None},
        "setups": setups,
        "rounds": rounds,
    }
    return result, details, tracer


# ---------------------------------------------------------------------------
# Environment record


def _openblas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            fn = getattr(lib, "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return int(fn())
    return None


def _git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "blas_threads_runtime": _openblas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_describe": _git_describe(),
        "workload_seed": seed,
        "argv": sys.argv,
    }
