"""Solver performance data and metrics.

Run records aggregate into an ERT table, then into a relERT matrix with
PAR10-style imputation of failed configurations.  The bi-objective side
normalizes attained hypervolume per instance and rescales it against the
virtual-best/single-best gap.

Both sides end in performance matrices, as in ASlib (Bischl et al. 2016):
one float64 row per problem (a (function, dimension) configuration, or a
bi-objective instance) and one column per portfolio algorithm, in the
sorted label order the table records.  The single best solver (SBS) is a
reduction over columns, the virtual best solver (VBS) one over each row.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import numbers
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
    """relERT matrix: relert[i, j] is the relERT of algorithms[j] on the
    (function, dimension) configs[i], with failures imputed as penalty."""

    configs: tuple
    algorithms: tuple
    relert: np.ndarray  # (len(configs), len(algorithms)) float64
    penalty: float

    def row(self, function_code: str, dimension: int) -> np.ndarray:
        """relERT vector over the portfolio, in self.algorithms order."""
        return _row(self.relert, self.configs, (function_code, dimension))


def _row(matrix: np.ndarray, labels: tuple, label) -> np.ndarray:
    if label not in labels:
        raise DataError(f"no row for {label!r}")
    return matrix[labels.index(label)].copy()


def _column_means(matrix: np.ndarray) -> np.ndarray:
    # each column is summed as one contiguous vector, the order np.mean
    # takes over a list, so means agree bit for bit with a per-column loop
    return np.ascontiguousarray(matrix.T).mean(axis=1)


def relert_matrix(erts: dict, penalty_override: float | None = None) -> RelErtTable:
    """Normalize an ERT table by the per-configuration portfolio best.

    erts maps every (function, dimension, algorithm) cell to an ERT, or to
    None when no run succeeded.  Undefined entries receive 10x the maximum
    finite relERT over the whole table (PAR10 style); pass penalty_override
    to pin the constant instead, e.g. for parity with externally published
    tables.  A configuration no algorithm solved is dropped.
    """
    if penalty_override is not None and not (
        isinstance(penalty_override, numbers.Real)
        and not isinstance(penalty_override, bool)
        and 1 <= penalty_override < math.inf
    ):
        raise ContractError(f"penalty_override must be a finite real >= 1, got {penalty_override!r}")
    for key, v in erts.items():
        if v is not None and not (math.isfinite(v) and v > 0):
            raise DataError(f"ERT for {key} must be finite and positive, got {v!r}")
    algorithms = tuple(sorted({a for (_, _, a) in erts}))
    configs = sorted({(f, d) for (f, d, _) in erts})
    for f, d in configs:
        for a in algorithms:
            if (f, d, a) not in erts:
                raise DataError(f"no runs for {(f, d, a)}: every algorithm needs an ERT or None")
    # None, an algorithm that never succeeded, becomes NaN; the reshape
    # keeps an empty table two-dimensional
    ert = np.array([[erts[(f, d, a)] for a in algorithms] for f, d in configs], dtype=float)
    ert = ert.reshape(len(configs), len(algorithms))
    solved = ~np.isnan(ert).all(axis=1)
    for (f, d), ok in zip(configs, solved):
        if not ok:
            log.warning("dropping configuration (%s, d=%d): no algorithm succeeded", f, d)
    if not solved.any():
        raise DataError("no configuration has a finite ERT")
    relert = ert[solved] / np.nanmin(ert[solved], axis=1, keepdims=True)
    penalty = float(penalty_override if penalty_override is not None else 10.0 * np.nanmax(relert))
    relert[np.isnan(relert)] = penalty
    return RelErtTable(
        configs=tuple(itertools.compress(configs, solved)),
        algorithms=algorithms,
        relert=relert,
        penalty=penalty,
    )


def sbs(table: RelErtTable) -> str:
    """Single best solver: lowest mean relERT, ties by lexicographic id."""
    return table.algorithms[int(np.argmin(_column_means(table.relert)))]


def vbs_mean(table: RelErtTable) -> float:
    """Mean over configurations of the per-configuration best relERT (1.0)."""
    return float(table.relert.min(axis=1).mean())


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


def rel_hv(hv, hv_sbs, hv_vbs, eps: float = RELHV_EPSILON):
    """Rescale hypervolume against the VBS-SBS gap: SBS ~ 0, VBS = 1,
    negative means worse than the single best solver.  Takes floats or
    arrays that broadcast together."""
    return (hv - hv_sbs + eps) / (hv_vbs - hv_sbs + eps)


def reference_point(fronts, prespecified=None) -> tuple[float, float]:
    """Per-instance HV reference: the least favorable corner of all fronts,
    inflated by 10%; a prespecified point passes through unchanged."""
    if prespecified is not None:
        return (float(prespecified[0]), float(prespecified[1]))
    stacked = [np.asarray(f, dtype=float).reshape(-1, 2) for f in fronts if len(f)]
    if not stacked:
        raise DataError("cannot derive a reference point from empty fronts")
    points = np.concatenate(stacked)
    if not np.all(np.isfinite(points)):
        raise DataError("cannot derive a reference point from fronts with NaN or inf values")
    worst = np.max(points, axis=0)
    return (float(worst[0] * REFERENCE_INFLATION), float(worst[1] * REFERENCE_INFLATION))


@dataclass(eq=False)
class MooPerfTable:
    """Bi-objective performance matrices: hv_norm[i, j] is the mean
    normalized hypervolume of algorithms[j] on instances[i], and relhv[i, j]
    rescales it against that instance's SBS and VBS values."""

    instances: tuple
    algorithms: tuple
    hv_norm: np.ndarray  # (len(instances), len(algorithms)) float64
    relhv: np.ndarray  # same shape
    sbs_algorithm: str

    def relhv_row(self, instance: str) -> np.ndarray:
        """relHV vector over the portfolio, in self.algorithms order."""
        return _row(self.relhv, self.instances, instance)


def build_moo_table(records, hv_best: dict) -> MooPerfTable:
    """Aggregate MOO run records into the relHV matrices.

    hv values are normalized by the per-instance best-known HV, then averaged
    over repetitions before the SBS/VBS split (see the report disclaimer for
    this aggregation choice).  The SBS has the highest mean hv_norm over
    instances, ties broken by lexicographic id; the VBS of an instance is the
    best hv_norm in its row.
    """
    groups: dict[tuple, list] = {}
    for r in records:
        if not math.isfinite(r.hv):
            raise DataError(f"hv of ({r.instance}, {r.algorithm}, {r.repetition}) is {r.hv}, not finite")
        groups.setdefault((r.instance, r.algorithm), []).append(r.hv)
    if not groups:
        raise DataError("no MOO run records")
    instances = tuple(sorted({i for i, _ in groups}))
    algorithms = tuple(sorted({a for _, a in groups}))
    for inst in instances:
        if inst not in hv_best:
            raise DataError(f"no best-known HV for instance {inst!r}")
        if not (math.isfinite(hv_best[inst]) and hv_best[inst] > 0):
            raise DataError(f"best-known HV for {inst!r} must be finite and positive")
        for a in algorithms:
            if (inst, a) not in groups:
                raise DataError(f"no runs for ({inst}, {a})")
    mean_hv = np.array([[np.mean(groups[(i, a)]) for a in algorithms] for i in instances])
    hv_norm = mean_hv / np.array([hv_best[i] for i in instances])[:, None]
    sbs_column = int(np.argmax(_column_means(hv_norm)))
    return MooPerfTable(
        instances=instances,
        algorithms=algorithms,
        hv_norm=hv_norm,
        relhv=rel_hv(hv_norm, hv_norm[:, [sbs_column]], hv_norm.max(axis=1, keepdims=True)),
        sbs_algorithm=algorithms[sbs_column],
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
        ([f, d, *(repr(float(x)) for x in row)] for (f, d), row in zip(table.configs, table.relert)),
    )
