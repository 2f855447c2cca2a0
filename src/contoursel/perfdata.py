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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError, DataError, ParseError, finite_array, float_array, is_integer, is_real, opened, require_integer,
    require_type,
)

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
        minimums = (("dimension", 1), ("instance_index", 0), ("evaluations_used", 1))
        _check_fields(self, ("algorithm", "function_code"), minimums)
        require_type("success", self.success, bool)


@dataclass(frozen=True)
class MooHvRecord:
    """Hypervolume attained by one MOO solver run."""

    algorithm: str
    instance: str
    repetition: int
    hv: float

    def __post_init__(self):
        _check_fields(self, ("algorithm", "instance"), (("repetition", 0),))
        if not (is_real(self.hv) and self.hv >= 0):
            raise DataError(
                f"hv of ({self.instance}, {self.algorithm}, {self.repetition}) is {self.hv!r}, not finite and >= 0"
            )


def _check_fields(record, labels, minimums) -> None:
    """ContractError unless each field named in labels is a non-empty string
    and each (name, minimum) of minimums an integer field of at least minimum."""
    for name in labels:
        value = getattr(record, name)
        if not (isinstance(value, str) and value):
            raise ContractError(f"{name} must be a non-empty string, got {value!r}")
    for name, minimum in minimums:
        require_integer(name, getattr(record, name), minimum)


def _records(records, kind, name: str) -> list:
    """records as a list; DataError naming the argument unless it is an iterable of kind."""
    rows = list(records) if np.iterable(records) else [None]
    if not all(isinstance(r, kind) for r in rows):
        raise DataError(f"{name} must be an iterable of {kind.__name__} values, got {type(records).__name__}")
    return rows


def ert(records) -> float | None:
    """Expected running time over runs of one (function, dimension, algorithm).

    Sum of evaluations divided by the number of successes; None when no run
    succeeded.
    """
    records = _records(records, RunRecord, "records")
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
    for r in _records(records, RunRecord, "records"):
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
    tables.  A configuration no algorithm solved is dropped.  DataError
    naming the configuration whose relERT, or naming the penalty, overflows.
    """
    if penalty_override is not None and not (is_real(penalty_override) and penalty_override >= 1):
        raise ContractError(f"penalty_override must be a finite real >= 1, got {penalty_override!r}")
    if not isinstance(erts, dict):
        raise DataError(f"erts must be a dict keyed by (function, dimension, algorithm), not {type(erts).__name__}")
    for key, v in erts.items():
        if not (isinstance(key, tuple) and len(key) == 3 and is_integer(key[1], 1)
                and all(isinstance(label, str) and label for label in key[::2])):
            raise DataError(f"ERT key {key!r} is not a (function, dimension >= 1, algorithm) triple")
        if v is not None and not (is_real(v) and v > 0):
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
    with np.errstate(over="ignore"):
        relert = ert[solved] / np.nanmin(ert[solved], axis=1, keepdims=True)
        penalty = float(penalty_override if penalty_override is not None else 10.0 * np.nanmax(relert))
    overflowed = np.isinf(relert).any(axis=1)
    if overflowed.any():
        f, d = tuple(itertools.compress(configs, solved))[np.argmax(overflowed)]
        raise DataError(f"relERT of configuration {(f, d)!r} overflows: its ERTs span more than a float holds")
    if not np.isfinite(penalty):
        raise DataError(f"PAR10 penalty, 10 x the largest relERT {float(np.nanmax(relert)):g}, overflows; "
                        "pin it with penalty_override")
    relert[np.isnan(relert)] = penalty
    return RelErtTable(
        configs=tuple(itertools.compress(configs, solved)),
        algorithms=algorithms,
        relert=relert,
        penalty=penalty,
    )


def sbs(table: RelErtTable) -> str:
    """Single best solver: lowest mean relERT, ties by lexicographic id."""
    require_type("table", table, RelErtTable)
    return table.algorithms[int(np.argmin(_column_means(table.relert)))]


def vbs_mean(table: RelErtTable) -> float:
    """Mean over configurations of the per-configuration best relERT (1.0)."""
    require_type("table", table, RelErtTable)
    return float(table.relert.min(axis=1).mean())


def _points(points, what: str) -> np.ndarray:
    """points as a finite (n, 2) float64 array, n = 0 for an empty input; else DataError."""
    pts = finite_array(points, what)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError(f"{what} must be an (n, 2) array of objective pairs, got shape {pts.shape}")
    return pts


def _sorted_front(pts: np.ndarray):
    """(order, kept) for a finite (n, 2) array: the stable (f1, f2) sort
    order of its points, and a mask, in that order, of the nondominated ones.

    After the sort, a point is nondominated exactly when its f2 lies
    strictly below every f2 before it (the O(n log n) maxima method of
    Kung, Luccio & Preparata 1975), so of exact duplicates only the first
    is kept and the kept points have strictly increasing f1.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    f2 = pts[order, 1]
    best_before = np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))
    return order, f2 < best_before


def nondominated_2d(points) -> np.ndarray:
    """Mask, in input order, of the points of a 2-D minimization set that no
    other point dominates; of exact duplicates only the first is kept.  A
    non-finite point raises DataError."""
    pts = _points(points, "finite points of nondominated_2d")
    order, kept = _sorted_front(pts)
    keep = np.zeros(len(pts), dtype=bool)
    keep[order] = kept
    return keep


def _reference(ref) -> np.ndarray:
    """ref as a float64 pair; DataError unless it is exactly two finite numbers."""
    pair = finite_array(ref, "the reference point (two finite numbers)")
    if pair.shape != (2,):
        raise DataError(f"a reference point is two finite numbers, not {ref!r}")
    return pair


def hypervolume_2d(points, ref) -> float:
    """Exact dominated area of a 2-D minimization front w.r.t. a reference point.

    Points not strictly dominating the reference contribute nothing; the
    remaining nondominated points are swept in ascending first objective.
    A non-finite point or reference raises DataError.
    """
    ref = _reference(ref)
    pts = _points(points, "finite points of hypervolume_2d")
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0
    order, kept = _sorted_front(pts)
    front = pts[order[kept]]
    f1 = front[:, 0]
    # the gaps to the next point's f1, the last to the reference; one
    # subtraction into a preallocated array is faster than np.diff(append=)
    widths = np.empty(len(f1))
    np.subtract(f1[1:], f1[:-1], out=widths[:-1])
    widths[-1] = ref[0] - f1[-1]
    areas = widths * (ref[1] - front[:, 1])
    # cumsum adds strictly left to right, unlike the pairwise np.sum, so the
    # value does not depend on how numpy blocks the reduction
    return float(np.cumsum(areas)[-1])


def rel_hv(hv, hv_sbs, hv_vbs):
    """Rescale hypervolume against the VBS-SBS gap: SBS ~ 0, VBS = 1,
    negative means worse than the single best solver.  RELHV_EPSILON, added
    above and below, maps a collapsed gap to 1.  Takes real numbers, giving
    a float, or real arrays that broadcast together, all finite; DataError
    for anything else (a bool, a complex value) and for a quotient that
    overflows."""
    if any(isinstance(v, bool) or getattr(v, "dtype", None) == bool for v in (hv, hv_sbs, hv_vbs)):
        raise DataError("hypervolumes must be real numbers, got a bool")
    hv, hv_sbs, hv_vbs = (float_array(v, "hypervolumes") for v in (hv, hv_sbs, hv_vbs))
    if not all(np.isfinite(v).all() for v in (hv, hv_sbs, hv_vbs)):
        raise DataError("hypervolumes must be finite, got a NaN or inf")
    try:
        with np.errstate(all="ignore"):
            rel = (hv - hv_sbs + RELHV_EPSILON) / (hv_vbs - hv_sbs + RELHV_EPSILON)
    except ValueError as exc:
        raise DataError(f"hypervolumes must be numbers or arrays that broadcast together: {exc}") from None
    if not np.isfinite(rel).all():
        raise DataError("relHV is not finite: a hypervolume difference or its quotient overflows")
    return float(rel) if rel.ndim == 0 else rel


def reference_point(fronts) -> tuple[float, float]:
    """Per-instance HV reference: the least favorable corner of all fronts,
    inflated by 10%; DataError when a corner coordinate is not positive."""
    try:
        fronts = list(fronts)
    except TypeError:
        raise DataError(f"fronts must be a sequence of (n, 2) point arrays, got {type(fronts).__name__}") from None
    stacked = [pts for pts in (_points(f, "a front") for f in fronts) if len(pts)]
    if not stacked:
        raise DataError("cannot derive a reference point from empty fronts")
    worst = np.max(np.concatenate(stacked), axis=0)
    for k, w in enumerate(worst):
        if w <= 0:
            raise DataError(f"worst objective {k + 1} is {w}; inflating a value <= 0 cannot clear the fronts")
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

    Each (instance, algorithm) cell is the mean over repetitions of hv
    normalized by the instance's best-known HV; the SBS/VBS split is taken
    on these means, not per repetition.  The SBS has the highest mean hv_norm over
    instances, ties broken by lexicographic id; the VBS of an instance is the
    best hv_norm in its row.
    """
    if not isinstance(hv_best, dict):
        raise DataError(f"hv_best must be a dict keyed by instance, not {type(hv_best).__name__}")
    groups: dict[tuple, list] = {}
    for r in _records(records, MooHvRecord, "records"):
        groups.setdefault((r.instance, r.algorithm), []).append(r.hv)
    if not groups:
        raise DataError("no MOO run records")
    instances = tuple(sorted({i for i, _ in groups}))
    algorithms = tuple(sorted({a for _, a in groups}))
    for inst in instances:
        if inst not in hv_best:
            raise DataError(f"no best-known HV for instance {inst!r}")
        if not (is_real(hv_best[inst]) and hv_best[inst] > 0):
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
    with opened(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header, parse_row) -> list:
    """parse_row over every non-blank row below the expected header; a row
    it rejects, a row the csv module cannot split and bytes that are not
    UTF-8 raise ParseError naming the path, and the line where it is known."""
    records = []
    with opened(path) as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                raise ParseError(f"{path}: expected header {header}, got {got}")
            for row in reader:
                if not row:
                    continue
                try:
                    records.append(parse_row(row))
                except (ValueError, ContractError, DataError) as exc:
                    raise ParseError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return records


def _parse_run(row) -> RunRecord:
    algorithm, function_code, dimension, instance, evaluations, success = row
    if success not in ("0", "1"):
        raise DataError(f"success must be 0 or 1, got {success!r}")
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
    return MooHvRecord(algorithm=algorithm, instance=instance, repetition=int(repetition), hv=float(hv))


def emit_runs(path, records) -> None:
    records = _records(records, RunRecord, "records")
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
    records = _records(records, MooHvRecord, "records")
    _write_csv(path, MOO_CSV_HEADER, ([r.algorithm, r.instance, r.repetition, repr(float(r.hv))] for r in records))


def ingest_moo_hv(path) -> list[MooHvRecord]:
    return _read_csv(path, MOO_CSV_HEADER, _parse_moo_hv)


def emit_relert_table(path, table: RelErtTable) -> None:
    """relERT matrix as CSV: one row per (function, dimension), one column
    per portfolio algorithm; a table that is not a RelErtTable is refused
    before the file is opened."""
    require_type("table", table, RelErtTable)
    _write_csv(
        path,
        ["function", "dimension", *table.algorithms],
        ([f, d, *(repr(float(x)) for x in row)] for (f, d), row in zip(table.configs, table.relert)),
    )
