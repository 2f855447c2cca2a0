"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the package with timing wrappers,
each at the name its caller looks up: ``prober`` imports
``evaluate_soo_batch`` by name, so that one is wrapped in ``prober``'s
namespace; ``Encoder`` and ``Model`` call the layer functions through
``neural``'s globals, so those are wrapped in ``neural``.  Nothing is
installed outside a traced round, so the untraced rounds run the package
untouched.

Spans live in memory (name, start, end, self time, parent, round) and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.  Each traced round is a root span
named ``round``, so its self time is the part of the round no wrapped
function covers.

Metric names resolve against the spans: ``<span>.s`` is the summed
duration of the spans with that name, ``<span>.self.s`` their summed self
time, and any other name is a counter the wrappers add to.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

from contoursel import neural, perfdata, prober, suite

ROUND = "round"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (round, id, parent, name, start, end, self, attrs)
        self.rounds: list[dict] = []  # per traced round: {"total", "self", "counts"}
        self._open: list[list] = []  # stack of [span id, child time]
        self._next_id = 0
        self._round = -1
        self._counts: dict = defaultdict(float)
        self._patches = [
            (owner, attr, vars(owner)[attr], self._wrap(vars(owner)[attr], name, extra))
            for owner, attr, name, extra in _traced_functions()
        ]

    # -- recording ---------------------------------------------------------

    def _call(self, name, attrs, fn, args, kwargs):
        parent = self._open[-1] if self._open else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._open.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append(
                (self._round, frame[0], parent[0] if parent else None, name, start, end,
                 duration - frame[1], attrs)
            )

    def _wrap(self, fn, name, extra):
        tracer = self

        def traced(*args, **kwargs):
            if extra is None:
                return tracer._call(name, None, fn, args, kwargs)
            label, attrs, counts = extra(args)
            result = tracer._call(label, attrs, fn, args, kwargs)
            for key, n in counts(result):
                tracer._counts[key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    # -- rounds --------------------------------------------------------------

    def run_round(self, fn, *args):
        """Run fn(*args) as one traced round; returns its result and wall time."""
        self._round += 1
        self._counts = defaultdict(float)
        first = len(self.spans)
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            result = self._call(ROUND, None, fn, args, {})
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for span in self.spans[first:]:
            name, start, end, self_time = span[3], span[4], span[5], span[6]
            total[name] += end - start
            own[name] += self_time
        self.rounds.append({"total": total, "self": own, "counts": dict(self._counts)})
        return result, total[ROUND]

    def metric(self, name: str) -> float:
        """Median over traced rounds of a span time or counter (see module doc)."""
        if name.endswith(".self.s"):
            values = [r["self"].get(name[: -len(".self.s")], 0.0) for r in self.rounds]
        elif name.endswith(".s"):
            values = [r["total"].get(name[: -len(".s")], 0.0) for r in self.rounds]
        else:
            values = [r["counts"].get(name, 0.0) for r in self.rounds]
        return statistics.median(values)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rnd, sid, parent, name, start, end, self_time, attrs in self.spans:
                fh.write(json.dumps({
                    "round": rnd, "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "self": self_time, "attrs": attrs,
                }) + "\n")


# ---------------------------------------------------------------------------
# What is traced.  `extra`, when given, maps the call's arguments to
# (span name, span attributes, counts(result) -> [(counter, n), ...]).

_CHANNEL_INDEX = {
    c: i
    for i, c in enumerate(neural.ModelSpec(variant="combined", input_resolution=64, output_count=1).encoder_channels)
}


def _no_counts(result):
    return ()


def _conv_flops_bytes(xshape, wshape, itemsize, backward):
    """Computed, not measured: 2 flops per multiply-add of the direct 3x3
    convolution (the backward pass forms both input and weight gradients,
    twice the forward work), and bytes for reading each operand and writing
    each result once."""
    n, h, w, c = xshape
    o = wshape[0]
    pixels = n * h * w
    flops = 2 * pixels * c * o * 9
    weights = 9 * c * o
    if backward:
        return 2 * flops, itemsize * (pixels * o + 2 * pixels * c + 2 * weights + o)
    return flops, itemsize * (pixels * c + weights + o + pixels * o)


def _conv_forward(args):
    x, w = args[0], args[1]
    i = _CHANNEL_INDEX[w.shape[0]]
    flops, nbytes = _conv_flops_bytes(x.shape, w.shape, x.itemsize, backward=False)
    counts = ((f"neural.conv{i}.flops", flops), (f"neural.conv{i}.bytes", nbytes))
    return f"neural.conv{i}.fwd", {"x": x.shape, "w": w.shape}, lambda result: counts


def _conv_backward(args):
    g, (_, xshape, w) = args
    i = _CHANNEL_INDEX[w.shape[0]]
    flops, nbytes = _conv_flops_bytes(xshape, w.shape, g.itemsize, backward=True)
    counts = ((f"neural.conv{i}.flops", flops), (f"neural.conv{i}.bytes", nbytes))
    return f"neural.conv{i}.bwd", {"x": xshape, "w": w.shape}, lambda result: counts


def _pool_forward(args):
    x = args[0]
    return f"neural.pool{_CHANNEL_INDEX[x.shape[3]]}.fwd", {"x": x.shape}, _no_counts


def _pool_backward(args):
    xshape = args[1][0]
    return f"neural.pool{_CHANNEL_INDEX[xshape[3]]}.bwd", {"x": xshape}, _no_counts


def _counting(name, counter, count_of):
    def extra(args):
        return name, None, lambda result: ((counter, count_of(args, result)),)
    return extra


def _points(args, result):
    return len(args[1])


def _stack_evals(args, result):
    return result.evaluations_spent


def _pair_evals(args, result):
    return sum(s.evaluations_spent for s in result)


def _front_points(args, result):
    return np.size(args[0]) // 2


def _records(args, result):
    return len(result)


def _traced_functions():
    return [
        (prober, "evaluate_soo_batch", None,
         _counting("suite.evaluate_soo_batch", "suite.evaluate_soo_batch.points", _points)),
        (prober, "evaluate_moo_batch", None,
         _counting("suite.evaluate_moo_batch", "suite.evaluate_moo_batch.points", _points)),
        (prober, "probe_grid", "prober.probe_grid", None),
        (prober, "probe_grid_moo", "prober.probe_grid_moo", None),
        (prober, "normalize", "prober.normalize", None),
        (prober, "quantize_levels", "prober.quantize_levels", None),
        (prober, "resize_bilinear", "prober.resize_bilinear", None),
        (prober, "build_soo_stack", None, _counting("prober.build_soo_stack", "prober.evals", _stack_evals)),
        (prober, "build_moo_stacks", None, _counting("prober.build_moo_stacks", "prober.evals", _pair_evals)),
        (suite, "pareto_front_points", "suite.pareto_front_points", None),
        (perfdata, "hypervolume_2d", None,
         _counting("perfdata.hypervolume_2d", "perfdata.hypervolume_2d.points", _front_points)),
        (perfdata, "reference_point", "perfdata.reference_point", None),
        (perfdata, "build_moo_table", "perfdata.build_moo_table", None),
        (perfdata, "emit_moo_hv", "perfdata.emit_moo_hv", None),
        (perfdata, "ingest_moo_hv", None, _counting("perfdata.ingest_moo_hv", "perfdata.records", _records)),
        (perfdata, "emit_runs", "perfdata.emit_runs", None),
        (perfdata, "ingest_runs", None, _counting("perfdata.ingest_runs", "perfdata.records", _records)),
        (perfdata, "ert_table", "perfdata.ert_table", None),
        (perfdata, "relert_matrix", "perfdata.relert_matrix", None),
        (neural, "conv2d_forward", None, _conv_forward),
        (neural, "conv2d_backward", None, _conv_backward),
        (neural, "maxpool2x2_forward", None, _pool_forward),
        (neural, "maxpool2x2_backward", None, _pool_backward),
        (neural, "relu_forward", "neural.relu.fwd", None),
        (neural, "relu_backward", "neural.relu.bwd", None),
        (neural, "global_avg_pool_forward", "neural.gap.fwd", None),
        (neural, "global_avg_pool_backward", "neural.gap.bwd", None),
        (neural, "dense_forward", "neural.dense.fwd", None),
        (neural, "dense_backward", "neural.dense.bwd", None),
        (neural, "mse_loss", "neural.mse_loss", None),
        (neural, "train", "neural.train", None),
        (neural.Model, "forward_batch", "neural.forward_batch", None),
        (neural.Model, "backward_batch", "neural.backward_batch", None),
        (neural.Adam, "step", "neural.optimizer_step", None),
    ]
