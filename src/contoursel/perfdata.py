"""Solver performance data and metrics.

Run records aggregate into an ERT table, then into a relERT matrix with
PAR10-style imputation of failed configurations.  The bi-objective side
normalizes attained hypervolume per instance and rescales it against the
virtual-best/single-best gap.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, ParseError

log = logging.getLogger(__name__)

RELHV_EPSILON = 1e-8
REFERENCE_INFLATION = 1.1

RUN_CSV_HEADER = ["algorithm", "function", "dimension", "instance", "evaluations", "success"]
MOO_CSV_HEADER = ["algorithm", "instance", "repetition", "hv"]


@dataclass(frozen=True)
class RunRecord:
    """One solver run on one SOO instance."""

    algorithm: str
    function_code: str
    dimension: int
    instance_index: int
    evaluations_used: int
    success: bool

    def __post_init__(self):
        if self.evaluations_used < 1:
            raise ContractError("evaluations_used must be >= 1")


@dataclass(frozen=True)
class MooHvRecord:
    """Hypervolume attained by one MOO solver run."""

    algorithm: str
    instance: str
    repetition: int
    hv: float


def ert(records) -> float | None:
    """Expected running time over runs of one (function, dimension, algorithm).

    Sum of evaluations divided by the number of successes; None when no run
    succeeded.
    """
    records = list(records)
    if not records:
        raise ContractError("ert needs at least one run record")
    total = sum(r.evaluations_used for r in records)
    successes = sum(1 for r in records if r.success)
    if successes == 0:
        return None
    return total / successes


def ert_table(records) -> dict:
    """Group records by (function, dimension, algorithm) and compute ERT."""
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r.function_code, r.dimension, r.algorithm), []).append(r)
    return {key: ert(runs) for key, runs in groups.items()}


@dataclass(eq=False)
class RelErtTable:
    """relERT per (function, dimension, algorithm), failures imputed."""

    configs: tuple
    algorithms: tuple
    relert: dict
    ert: dict
    penalty: float

    def row(self, function_code: str, dimension: int) -> np.ndarray:
        """relERT vector over the portfolio, in self.algorithms order."""
        return np.array(
            [self.relert[(function_code, dimension, a)] for a in self.algorithms]
        )

    def mean_per_algorithm(self) -> dict:
        return {
            a: float(np.mean([self.relert[(f, d, a)] for f, d in self.configs]))
            for a in self.algorithms
        }


def relert_matrix(erts: dict, penalty_override: float | None = None) -> RelErtTable:
    """Normalize an ERT table by the per-configuration portfolio best.

    Undefined entries receive 10x the maximum finite relERT over the whole
    table (PAR10 style); pass penalty_override to pin the constant instead,
    e.g. for parity with externally published tables.
    """
    for key, v in erts.items():
        if v is not None and not (math.isfinite(v) and v > 0):
            raise DataError(f"ERT for {key} must be finite and positive, got {v!r}")
    algorithms = tuple(sorted({a for (_, _, a) in erts}))
    configs = sorted({(f, d) for (f, d, _) in erts})
    kept = []
    relert: dict = {}
    undefined = []
    for f, d in configs:
        values = {a: erts.get((f, d, a)) for a in algorithms}
        finite = [v for v in values.values() if v is not None]
        if not finite:
            log.warning("dropping configuration (%s, d=%d): no algorithm succeeded", f, d)
            continue
        best = min(finite)
        kept.append((f, d))
        for a, v in values.items():
            if v is None:
                undefined.append((f, d, a))
            else:
                relert[(f, d, a)] = v / best
    if not kept:
        raise DataError("no configuration has a finite ERT")
    max_finite = max(relert.values())
    penalty = penalty_override if penalty_override is not None else 10.0 * max_finite
    for key in undefined:
        relert[key] = penalty
    return RelErtTable(
        configs=tuple(kept),
        algorithms=algorithms,
        relert=relert,
        ert={k: v for k, v in erts.items() if k[:2] in set(kept)},
        penalty=penalty,
    )


def sbs(table: RelErtTable) -> str:
    """Single best solver: lowest mean relERT, ties by lexicographic id."""
    means = table.mean_per_algorithm()
    best = min(means.values())
    return min(a for a, m in means.items() if m == best)


def vbs_mean(table: RelErtTable) -> float:
    """Mean over configurations of the per-configuration best relERT (1.0)."""
    return float(
        np.mean([min(table.relert[(f, d, a)] for a in table.algorithms) for f, d in table.configs])
    )


def nondominated_2d(points) -> np.ndarray:
    """Mask, in input order, of the points of a 2-D minimization set that no
    other point dominates; of exact duplicates only the first is kept.

    After a stable sort by (f1, f2), a point is nondominated exactly when its
    f2 lies strictly below every f2 before it (the O(n log n) maxima method
    of Kung, Luccio & Preparata 1975).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    f2 = pts[order, 1]
    best_before = np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))
    keep = np.zeros(len(pts), dtype=bool)
    keep[order] = f2 < best_before
    return keep


def hypervolume_2d(points, ref) -> float:
    """Exact dominated area of a 2-D minimization front w.r.t. a reference point.

    Points not strictly dominating the reference contribute nothing; the
    remaining nondominated points are swept in ascending first objective.
    """
    ref = np.asarray(ref, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0
    front = pts[nondominated_2d(pts)]
    front = front[np.argsort(front[:, 0])]
    areas = np.diff(front[:, 0], append=ref[0]) * (ref[1] - front[:, 1])
    # cumsum adds strictly left to right, unlike the pairwise np.sum, so the
    # value does not depend on how numpy blocks the reduction
    return float(np.cumsum(areas)[-1])


def rel_hv(hv: float, hv_sbs: float, hv_vbs: float, eps: float = RELHV_EPSILON) -> float:
    """Rescale hypervolume against the VBS-SBS gap: SBS ~ 0, VBS = 1,
    negative means worse than the single best solver."""
    return (hv - hv_sbs + eps) / (hv_vbs - hv_sbs + eps)


def reference_point(fronts, prespecified=None) -> tuple[float, float]:
    """Per-instance HV reference: the least favorable corner of all fronts,
    inflated by 10%; a prespecified point passes through unchanged."""
    if prespecified is not None:
        return (float(prespecified[0]), float(prespecified[1]))
    stacked = [np.asarray(f, dtype=float).reshape(-1, 2) for f in fronts if len(f)]
    if not stacked:
        raise DataError("cannot derive a reference point from empty fronts")
    worst = np.max(np.concatenate(stacked), axis=0)
    return (float(worst[0] * REFERENCE_INFLATION), float(worst[1] * REFERENCE_INFLATION))


@dataclass(eq=False)
class MooPerfTable:
    """Normalized mean hypervolume and relHV per (instance, algorithm)."""

    instances: tuple
    algorithms: tuple
    hv_norm: dict  # (instance, algorithm) -> mean normalized HV over repetitions
    sbs_algorithm: str
    hv_sbs: dict  # instance -> SBS normalized HV
    hv_vbs: dict  # instance -> best normalized HV

    def relhv(self, instance: str, algorithm: str) -> float:
        return rel_hv(self.hv_norm[(instance, algorithm)], self.hv_sbs[instance], self.hv_vbs[instance])

    def relhv_row(self, instance: str) -> np.ndarray:
        return np.array([self.relhv(instance, a) for a in self.algorithms])


def build_moo_table(records, hv_best: dict) -> MooPerfTable:
    """Aggregate MOO run records into the relHV bookkeeping.

    hv values are normalized by the per-instance best-known HV, then averaged
    over repetitions before the SBS/VBS split (see the report disclaimer for
    this aggregation choice).
    """
    groups: dict[tuple, list] = {}
    for r in records:
        if not math.isfinite(r.hv):
            raise DataError(f"hv of ({r.instance}, {r.algorithm}, {r.repetition}) is {r.hv}, not finite")
        groups.setdefault((r.instance, r.algorithm), []).append(r.hv)
    instances = tuple(sorted({i for i, _ in groups}))
    algorithms = tuple(sorted({a for _, a in groups}))
    hv_norm = {}
    for inst in instances:
        if inst not in hv_best:
            raise DataError(f"no best-known HV for instance {inst!r}")
        if not (math.isfinite(hv_best[inst]) and hv_best[inst] > 0):
            raise DataError(f"best-known HV for {inst!r} must be finite and positive")
    for inst in instances:
        for a in algorithms:
            vals = groups.get((inst, a))
            if vals is None:
                raise DataError(f"no runs for ({inst}, {a})")
            hv_norm[(inst, a)] = float(np.mean(vals)) / hv_best[inst]
    means = {a: float(np.mean([hv_norm[(i, a)] for i in instances])) for a in algorithms}
    best_mean = max(means.values())
    sbs_algorithm = min(a for a, m in means.items() if m == best_mean)
    hv_sbs = {i: hv_norm[(i, sbs_algorithm)] for i in instances}
    hv_vbs = {i: max(hv_norm[(i, a)] for a in algorithms) for i in instances}
    return MooPerfTable(
        instances=instances,
        algorithms=algorithms,
        hv_norm=hv_norm,
        sbs_algorithm=sbs_algorithm,
        hv_sbs=hv_sbs,
        hv_vbs=hv_vbs,
    )


# ---------------------------------------------------------------------------
# CSV plumbing: one writer and one reader; each file kind supplies how a
# record becomes a row and how a row becomes a record.


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header, parse_row) -> list:
    """parse_row over every non-blank row below the expected header; a row
    it rejects raises ParseError naming path:line."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ParseError(f"{path}: expected header {header}, got {got}")
        for row in reader:
            if not row:
                continue
            try:
                records.append(parse_row(row))
            except (ValueError, ContractError) as exc:
                raise ParseError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
    return records


def _parse_run(row) -> RunRecord:
    algorithm, function_code, dimension, instance, evaluations, success = row
    if success not in ("0", "1"):
        raise ValueError(f"success must be 0 or 1, got {success!r}")
    return RunRecord(
        algorithm=algorithm,
        function_code=function_code,
        dimension=int(dimension),
        instance_index=int(instance),
        evaluations_used=int(evaluations),
        success=success == "1",
    )


def _parse_moo_hv(row) -> MooHvRecord:
    algorithm, instance, repetition, hv = row
    value = float(hv)
    if not math.isfinite(value):
        raise ValueError(f"hv must be finite, got {hv!r}")
    return MooHvRecord(algorithm=algorithm, instance=instance, repetition=int(repetition), hv=value)


def emit_runs(path, records) -> None:
    _write_csv(
        path,
        RUN_CSV_HEADER,
        (
            [r.algorithm, r.function_code, r.dimension, r.instance_index, r.evaluations_used, int(r.success)]
            for r in records
        ),
    )


def ingest_runs(path) -> list[RunRecord]:
    return _read_csv(path, RUN_CSV_HEADER, _parse_run)


def emit_moo_hv(path, records) -> None:
    _write_csv(path, MOO_CSV_HEADER, ([r.algorithm, r.instance, r.repetition, repr(r.hv)] for r in records))


def ingest_moo_hv(path) -> list[MooHvRecord]:
    return _read_csv(path, MOO_CSV_HEADER, _parse_moo_hv)


def emit_relert_table(path, table: RelErtTable) -> None:
    """relERT matrix as CSV: one row per (function, dimension), one column
    per portfolio algorithm."""
    _write_csv(
        path,
        ["function", "dimension", *table.algorithms],
        ([f, d, *(repr(table.relert[(f, d, a)]) for a in table.algorithms)] for f, d in table.configs),
    )
