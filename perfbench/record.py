"""Record the reference outputs the benchmark checks against, or measure how
far the outputs move at another BLAS thread count.

    python3 perfbench/record.py                  # write references (fixed thread count)
    python3 perfbench/record.py --blas-threads 1 # write the measured drift vs. the references

References are one round's outputs per workload at the default and held-out
seeds (full size) and at the default seed (smoke size, for the self-tests).
The drift run stores, per output, the largest |a - b| / |b| it saw, which
is the basis for the "blas" tolerance in reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blas-threads", type=int, default=None)
    args = parser.parse_args(argv)
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    threads = args.blas_threads or refs["blas_threads"]
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import workloads

    cases = [(workloads.FULL, refs["default_seed"]), (workloads.FULL, refs["held_out_seed"]),
             (workloads.SMOKE, refs["default_seed"])]
    drift = {}
    for name, cls in workloads.WORKLOADS.items():
        for size, seed in cases:
            with workloads.make_workdir(os.path.join(ROOT, ".perfbench", "tmp")) as workdir:
                workload = cls(seed, size, workdir)
                state, _, _ = workload.setup()
                outputs, _, _ = workload.round(state)
            got = {key: np.asarray(outputs[key], dtype=float) for key in workloads.REFERENCE_OUTPUTS[name]}
            slot = refs["references"].setdefault(name, {}).setdefault(size.name, {})
            if args.blas_threads is None:
                slot[str(seed)] = {key: value.tolist() for key, value in got.items()}
                continue
            for key, value in got.items():
                want = np.asarray(slot[str(seed)][key])
                rel = float(np.max(np.abs(value - want) / np.maximum(np.abs(want), 1e-300)))
                drift[key] = max(drift.get(key, 0.0), rel)
                print(f"{name} {size.name} seed {seed} {key}: max relative difference {rel:.3g}")
    if args.blas_threads is not None:
        refs["tolerance"]["blas"]["measured"] = {
            "blas_threads": [threads, refs["blas_threads"]],
            "max_relative_difference": drift,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
