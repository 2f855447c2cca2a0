"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py --base .perfbench/soo_pipeline-*-A.json \
                                 --new  .perfbench/soo_pipeline-*-B.json

Prints, per metric, each side's median and quartile spread and the change
of the medians.  Refuses (exit 2) to compare files of different workloads,
trace modes or BLAS thread counts: outputs and timings at different thread
counts are different experiments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _load(paths):
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def _summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med) if med else float("nan")


def _values(results, name):
    return [
        r["metrics"][name]["value"] if name in r["metrics"] else r["stage_metrics"][name]
        for r in results
        if name in r["metrics"] or name in r.get("stage_metrics", {})
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    for field, get in (
        ("BLAS thread count", lambda r: r["environment"]["blas_threads"]),
        ("workload", lambda r: r["workload"]),
        ("trace mode", lambda r: r["trace"]),
    ):
        seen = {get(r) for r in base + new}
        if len(seen) != 1:
            print(f"compare: refusing, the files differ in {field}: {sorted(map(str, seen))}", file=sys.stderr)
            return 2
    names = list(base[0]["metrics"]) + sorted(base[0].get("stage_metrics", {}))
    print(f"{'metric':40s} {'base median':>14s} {'spread':>7s} {'new median':>14s} {'spread':>7s} {'change':>8s}")
    for name in names:
        b, n = _values(base, name), _values(new, name)
        if not b or not n:
            continue
        (bm, bs), (nm, ns) = _summary(b), _summary(n)
        change = (nm - bm) / abs(bm) if bm else float("nan")
        print(f"{name:40s} {bm:14.6g} {bs:7.3f} {nm:14.6g} {ns:7.3f} {change:+8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
