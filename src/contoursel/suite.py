"""Analytic black-box problem suite with shifted instances.

Eight scalable single-objective functions (shifted in decision and
objective space) plus four fixed bi-objective problems stand in for the
usual benchmark suite at desk scale.  All decision variables live in
[-5, 5]; optima are known analytically so success checks are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    COUNT_MAX, ContractError, DataError, InvalidProblemError, finite_array, is_integer, require_integer, require_type,
    seeded_rng,
)
from .perfdata import nondominated_2d

DOMAIN_LO = -5.0
DOMAIN_HI = 5.0
SHIFT_LO = -4.0
SHIFT_HI = 4.0

MOO_FUNCTIONS = ("zdt1", "zdt2", "zdt3", "bi_sphere")

SOO_DIMENSIONS = (2, 3, 5, 10)
MOO_DIMENSION = 2

# Group analogy: 1 separable, 2 low-conditioned valley, 3 high-conditioned,
# 4 multimodal with global structure, 5 multimodal with weak structure.
FUNCTION_GROUPS = {
    "sphere": 1,
    "ellipsoid": 1,
    "rastrigin": 1,
    "rosenbrock": 2,
    "discus": 3,
    "bent_cigar": 3,
    "griewank": 4,
    "ackley": 5,
}

_KIND_CODE = {"soo": 0, "moo": 1}


@dataclass(frozen=True)
class ProblemId:
    """Identifies one problem: kind, function, dimension, instance index."""

    kind: str
    function_code: str
    dimension: int
    instance_index: int

    def __post_init__(self):
        if self.kind not in ("soo", "moo"):
            raise InvalidProblemError(f"unknown kind {self.kind!r}")
        if not is_integer(self.dimension):
            raise InvalidProblemError(f"dimension must be an integer, got {self.dimension!r}")
        if not is_integer(self.instance_index, 0):
            raise InvalidProblemError(
                f"instance_index must be a non-negative integer, got {self.instance_index!r}"
            )
        if self.kind == "soo":
            if self.function_code not in SOO_FUNCTIONS:
                raise InvalidProblemError(
                    f"{self.function_code!r} is not a single-objective function"
                )
            if self.dimension not in SOO_DIMENSIONS:
                raise InvalidProblemError(
                    f"unsupported dimension {self.dimension} (want one of {SOO_DIMENSIONS})"
                )
        else:
            if self.function_code not in MOO_FUNCTIONS:
                raise InvalidProblemError(
                    f"{self.function_code!r} is not a bi-objective function"
                )
            if self.dimension != MOO_DIMENSION:
                raise InvalidProblemError("bi-objective problems are d=2 only")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A concrete instance: id plus the sampled shifts.

    Immutable after construction: make_instance returns x_opt and the
    centers as read-only arrays.  Evaluation is pure, so instances are safe
    to share across threads.
    """

    id: ProblemId
    seed: int
    x_opt: np.ndarray | None
    f_opt: float | None
    centers: tuple[np.ndarray, np.ndarray] | None = field(default=None)

    @property
    def dimension(self) -> int:
        return self.id.dimension


def require_instance(inst, kind: str, caller: str) -> None:
    """Raise ContractError unless inst is a ProblemInstance of the given kind, "soo" or "moo"."""
    if not (isinstance(inst, ProblemInstance) and inst.id.kind == kind):
        got = inst.id if isinstance(inst, ProblemInstance) else type(inst).__name__
        raise ContractError(f"{caller} needs a {kind} ProblemInstance, got {got}")


def make_instance(pid: ProblemId, seed: int) -> ProblemInstance:
    """Build a deterministic instance for (pid, seed).

    SOO instances draw x_opt uniformly in [-4, 4]^d and f_opt in [-100, 100].
    ZDT problems are canonical (no shift); bi_sphere draws its two centers
    from the same seeded stream.
    """
    require_type("pid", pid, ProblemId)
    salt = (_KIND_CODE[pid.kind], _FUNCTION_CODE[pid.function_code], pid.dimension, pid.instance_index)
    rng = seeded_rng("instance seed", seed, *salt)
    if pid.kind == "soo":
        x_opt = _read_only(rng.uniform(SHIFT_LO, SHIFT_HI, size=pid.dimension))
        f_opt = float(rng.uniform(-100.0, 100.0))
        return ProblemInstance(id=pid, seed=int(seed), x_opt=x_opt, f_opt=f_opt)
    if pid.function_code == "bi_sphere":
        a = _read_only(rng.uniform(SHIFT_LO, SHIFT_HI, size=2))
        b = _read_only(rng.uniform(SHIFT_LO, SHIFT_HI, size=2))
        return ProblemInstance(id=pid, seed=int(seed), x_opt=None, f_opt=None, centers=(a, b))
    return ProblemInstance(id=pid, seed=int(seed), x_opt=None, f_opt=None)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Single-objective formulas.  Each takes the shifted coordinates z as d rows,
# one per coordinate, that broadcast together: the (n,) columns of a batch,
# or an OpenGrid's rows, where a term is computed on the values of its own
# coordinate only.  Each returns the broadcast shape's values, with minimum
# 0 at z = 0 (rosenbrock: z = 1).  Rows are added whole and in order, as the
# builtin sum adds them, for any shape, so a grid point gets the bits it
# gets in a batch; np.sum(axis=0) would add a lone column pairwise.


def _fold(ufunc, start, rows):
    """start, then ufunc with each row in order, as the builtin sum folds.
    Once the running value is an array of the whole's shape it is updated
    in place, so a fold holds one such array at a time; an array start is
    written into, so it must be the caller's own."""
    acc = start
    for row in rows:
        if isinstance(acc, np.ndarray) and acc.shape == np.broadcast_shapes(acc.shape, row.shape):
            ufunc(acc, row, out=acc)
        else:
            acc = ufunc(acc, row)
    return acc


def _sum(rows):
    return _fold(np.add, 0, rows)


def _sphere(z):
    return _sum(x * x for x in z)


def _ellipsoid(z):
    d = len(z)
    weights = 10.0 ** (6.0 * np.arange(d) / (d - 1))
    return _sum(w * x * x for w, x in zip(weights, z))


def _rastrigin(z):
    d = len(z)
    return 10.0 * (d - _sum(np.cos(2.0 * np.pi * x) for x in z)) + _sum(x * x for x in z)


def _rosenbrock(z):
    return _sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2 for a, b in zip(z, z[1:]))


# head + tail as tail + head, the same bits, so the head is added into the
# tail's fresh array when that one has the shape of the whole
def _discus(z):
    return _fold(np.add, _sum(x**2 for x in z[1:]), [1e6 * z[0] ** 2])


def _bent_cigar(z):
    return _fold(np.add, 1e6 * _sum(x**2 for x in z[1:]), [z[0] ** 2])


def _griewank(z):
    idx = np.sqrt(np.arange(1, len(z) + 1, dtype=float))
    # the product multiplies rows in order, as np.prod(axis=0) did
    return _sum(x * x for x in z) / 4000.0 - _fold(np.multiply, 1, (np.cos(x / i) for x, i in zip(z, idx))) + 1.0


def _ackley(z):
    d = len(z)
    rms = np.sqrt(_sum(x * x for x in z) / d)
    mean_cos = _sum(np.cos(2.0 * np.pi * x) for x in z) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e


# Each formula is named after its function.  This order is SOO_FUNCTIONS',
# and a function's index in it salts every instance of that function.
_SOO_FORMULAS = {f.__name__[1:]: f for f in (
    _sphere, _ellipsoid, _rastrigin, _rosenbrock, _discus, _bent_cigar, _griewank, _ackley,
)}
SOO_FUNCTIONS = tuple(_SOO_FORMULAS)
_FUNCTION_CODE = {name: i for i, name in enumerate(SOO_FUNCTIONS + MOO_FUNCTIONS)}


@dataclass(frozen=True, eq=False)
class OpenGrid:
    """Grid points in open form, as np.ogrid gives them: coords holds one
    finite coordinate array per dimension, and the arrays broadcast together
    to the grid's shape, so a coordinate that varies along one grid axis
    holds that axis' values only.  The arrays are kept as read-only copies,
    a number as a one-value array.  len(grid) is its number of points, and
    evaluate_soo_batch returns one value per point in the grid's shape."""

    coords: tuple
    shape: tuple = field(init=False)

    def __post_init__(self):
        require_type("coords", self.coords, tuple)
        if not self.coords:
            raise ContractError("a grid needs at least one coordinate")
        arrays = tuple(_read_only(np.atleast_1d(finite_array(c, "grid coordinates")).copy()) for c in self.coords)
        shapes = [a.shape for a in arrays]
        try:
            shape = np.broadcast_shapes(*shapes)
        except ValueError as exc:
            raise ContractError(f"grid coordinates of shapes {shapes} do not broadcast together") from exc
        object.__setattr__(self, "coords", arrays)
        object.__setattr__(self, "shape", shape)

    def __len__(self) -> int:
        return math.prod(self.shape)


def _coordinate_rows(xs, d: int):
    """The d coordinate rows to evaluate: an OpenGrid's coordinate arrays,
    or the (n,) columns of a finite (n, d) batch, as the rows of its
    (d, n) transpose."""
    if isinstance(xs, OpenGrid):
        if len(xs.coords) != d:
            raise ContractError(f"expected a grid of {d} coordinates, got {len(xs.coords)}")
        return xs.coords
    xs = finite_array(xs, "points")
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ContractError(f"expected points of shape (n, {d}), got {xs.shape}")
    return xs.T


def _soo_values(inst: ProblemInstance, rows):
    """The instance's formula on coordinate rows, before the f_opt shift."""
    z = [row - x for row, x in zip(rows, inst.x_opt)]
    if inst.id.function_code == "rosenbrock":
        for row in z:
            row += 1.0
    return _SOO_FORMULAS[inst.id.function_code](z)


def evaluate_soo_batch(inst: ProblemInstance, xs) -> np.ndarray:
    """Evaluate a single-objective instance on a (n, d) batch of finite
    points, into (n,) values, or on an OpenGrid of d coordinates, into one
    value per grid point in the grid's shape."""
    require_instance(inst, "soo", "evaluate_soo_batch")
    out = _soo_values(inst, _coordinate_rows(xs, inst.dimension))
    out += inst.f_opt
    return out


# ---------------------------------------------------------------------------
# Bi-objective formulas.  The toolkit domain is [-5, 5]^2 everywhere; ZDT's
# native [0, 1]^2 box is reached through an affine map so the prober only
# ever deals with one domain convention.  The formulas take two coordinate
# rows that broadcast together, the (n,) columns of a batch or an OpenGrid's
# rows, and write both objectives into a (2, *shape) output, so a term of
# one coordinate is computed on that coordinate's values only and each
# objective is one contiguous plane.


def _to_unit(xs):
    return (xs - DOMAIN_LO) / (DOMAIN_HI - DOMAIN_LO)


def _zdt_f2(code, f1, g, out):
    """Second ZDT objective from f1 and the distance function g, written
    into out, the shape they broadcast to; zdt3's sine is taken on f1's own
    values, and its ratio * sine is the one temporary of out's size."""
    ratio = np.divide(f1, g, out=out)
    wave = ratio * np.sin(10.0 * np.pi * f1) if code == "zdt3" else None
    (np.square if code == "zdt2" else np.sqrt)(ratio, out=out)  # ratio**2 is np.square
    np.subtract(1.0, out, out=out)
    if wave is not None:
        out -= wave
    out *= g  # x * g == g * x bit for bit
    return out


def _moo_values(inst: ProblemInstance, rows, out) -> None:
    """Both objectives on two coordinate rows, into out[0] and out[1]."""
    code = inst.id.function_code
    if code == "bi_sphere":
        # a + b has the bits of the builtin sum's 0 + a + b: a square is never -0.0, so 0 + a == a
        for plane, center in zip(out, inst.centers):
            np.add((rows[0] - center[0]) ** 2, (rows[1] - center[1]) ** 2, out=plane)
        return
    # ZDT is defined on its box only; outside it zdt1 and zdt3 take roots of negatives
    if any(row.size and (row.min() < DOMAIN_LO or row.max() > DOMAIN_HI) for row in rows):
        raise DataError(f"{code} points must lie in the domain [{DOMAIN_LO}, {DOMAIN_HI}]^2")
    f1 = _to_unit(rows[0])
    out[0] = f1
    _zdt_f2(code, f1, 1.0 + 9.0 * _to_unit(rows[1]), out[1])


def evaluate_moo_batch(inst: ProblemInstance, xs) -> np.ndarray:
    """Evaluate a MOO instance on a (n, 2) batch of finite points, into
    (n, 2) objective pairs, or on an OpenGrid of 2 coordinates, into
    (*grid.shape, 2) pairs.  Either is a view of one (2, ...) array, so
    each objective is C-contiguous."""
    require_instance(inst, "moo", "evaluate_moo_batch")
    rows = _coordinate_rows(xs, MOO_DIMENSION)
    out = np.empty((2, *np.broadcast(*rows).shape))
    _moo_values(inst, rows, out)
    return np.moveaxis(out, 0, -1)


def pareto_front_points(inst: ProblemInstance, n: int = 2001) -> np.ndarray:
    """Dense sample of the instance's true Pareto front in objective space.

    Used as the best-known hypervolume reference at desk scale.  For ZDT the
    front lies at g = 1 (second coordinate at the mapped zero); zdt3's front
    is the nondominated subset of that curve.  bi_sphere's Pareto set is the
    segment between its two centers.
    """
    require_instance(inst, "moo", "pareto_front_points")
    require_integer("pareto front sample count", n, 2, COUNT_MAX)
    t = np.linspace(0.0, 1.0, n)
    code = inst.id.function_code
    if code == "bi_sphere":
        a, b = inst.centers
        gap = np.sum((b - a) ** 2)
        pts = np.stack([t**2 * gap, (1.0 - t) ** 2 * gap], axis=-1)
        return pts
    pts = np.stack([t, _zdt_f2(code, t, 1.0, np.empty(n))], axis=-1)
    if code == "zdt3":
        pts = pts[nondominated_2d(pts)]
    return pts


def true_group(function_code: str) -> int:
    """Function group index (1..5) for a single-objective function."""
    require_type("function_code", function_code, str)
    if function_code not in FUNCTION_GROUPS:
        raise InvalidProblemError(f"no group defined for {function_code!r}")
    return FUNCTION_GROUPS[function_code]
