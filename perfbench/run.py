"""Benchmark of the contoursel pipeline: probe -> targets -> train -> select.

Run from the repository root:

    python3 perfbench/run.py --workload soo_pipeline --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

  soo_pipeline    32 SOO stacks, relERT targets, `combined` fit, selection
  separate_train  stacks in set-up; `separate` fit, then forward passes
  moo_targets     MOO stacks, true fronts, scored synthetic fronts, relHV

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` every per-layer
metric, from rounds traced at the package's public functions.  Every run
also writes ``.perfbench/<workload>-s<seed>-t<trace>-<time>.json`` with the
metrics, per-round samples, failed checks and the environment (numpy and
BLAS versions, BLAS threads, Python, nproc, git describe, seed); a traced
run writes its spans next to it.  ``perfbench/compare.py`` compares such
files.

The BLAS thread count is fixed (reference.json, capped at nproc) and set
before numpy is imported.  The package is imported from ``src/`` of this
checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def blas_threads() -> int:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        fixed = json.load(fh)["blas_threads"]
    return min(fixed, len(os.sched_getaffinity(0)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("soo_pipeline", "separate_train", "moo_targets"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import numpy and the package from this checkout; returns seconds taken."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import contoursel.neural  # noqa: F401
    import contoursel.perfdata  # noqa: F401
    import contoursel.prober  # noqa: F401
    import contoursel.suite  # noqa: F401

    elapsed = time.perf_counter() - t0
    origin = os.path.realpath(contoursel.__path__[0])
    if os.path.commonpath([origin, os.path.realpath(SRC)]) != os.path.realpath(SRC):
        raise ImportError(f"contoursel imported from {origin}, not from {SRC}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = blas_threads()
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    import harness

    result, details, tracer = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s
    )
    details["environment"] = harness.environment(args.seed, threads)
    outdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(
        outdir, f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    )
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, **details}, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write_spans(stem + "-spans.jsonl")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in details["stage_metrics"].items():
        print(f"{name} = {value:.6g} (not in BENCHMARK.json)")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed; result file {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
