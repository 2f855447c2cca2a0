"""Analytic black-box problem suite with shifted instances.

Eight scalable single-objective functions (shifted in decision and
objective space) plus four fixed bi-objective problems stand in for the
usual benchmark suite at desk scale.  All decision variables live in
[-5, 5]; optima are known analytically so success checks are exact.
"""

from __future__ import annotations

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

# Points per evaluation block: a block's coordinates and the formulas'
# temporaries stay in cache (4096 to 16384 timed alike, 65536 slower).
BLOCK_POINTS = 8192

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

    Immutable after construction; evaluation is pure, so instances are safe
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
        x_opt = rng.uniform(SHIFT_LO, SHIFT_HI, size=pid.dimension)
        f_opt = float(rng.uniform(-100.0, 100.0))
        return ProblemInstance(id=pid, seed=int(seed), x_opt=x_opt, f_opt=f_opt)
    if pid.function_code == "bi_sphere":
        a = rng.uniform(SHIFT_LO, SHIFT_HI, size=2)
        b = rng.uniform(SHIFT_LO, SHIFT_HI, size=2)
        return ProblemInstance(id=pid, seed=int(seed), x_opt=None, f_opt=None, centers=(a, b))
    return ProblemInstance(id=pid, seed=int(seed), x_opt=None, f_opt=None)


# ---------------------------------------------------------------------------
# Single-objective formulas.  Each takes the shifted coordinates z of shape
# (d, n), one row per coordinate, and returns (n,) values with minimum 0 at
# z = 0 (rosenbrock: z = 1).  The builtin sum adds whole rows in order for
# any n; np.sum(axis=0) would add a lone column pairwise.


def _sphere(z):
    return sum(z * z)


def _ellipsoid(z):
    d = len(z)
    weights = 10.0 ** (6.0 * np.arange(d) / (d - 1))
    return sum(weights[:, None] * z * z)


def _rastrigin(z):
    d = len(z)
    return 10.0 * (d - sum(np.cos(2.0 * np.pi * z))) + sum(z * z)


def _rosenbrock(z):
    a = z[:-1]
    b = z[1:]
    return sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2)


def _discus(z):
    return 1e6 * z[0] ** 2 + sum(z[1:] ** 2)


def _bent_cigar(z):
    return z[0] ** 2 + 1e6 * sum(z[1:] ** 2)


def _griewank(z):
    d = len(z)
    idx = np.sqrt(np.arange(1, d + 1, dtype=float))
    return (
        sum(z * z) / 4000.0
        - np.prod(np.cos(z / idx[:, None]), axis=0)
        + 1.0
    )


def _ackley(z):
    d = len(z)
    rms = np.sqrt(sum(z * z) / d)
    mean_cos = sum(np.cos(2.0 * np.pi * z)) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e


# Each formula is named after its function.  This order is SOO_FUNCTIONS',
# and a function's index in it salts every instance of that function.
_SOO_FORMULAS = {f.__name__[1:]: f for f in (
    _sphere, _ellipsoid, _rastrigin, _rosenbrock, _discus, _bent_cigar, _griewank, _ackley,
)}
SOO_FUNCTIONS = tuple(_SOO_FORMULAS)
_FUNCTION_CODE = {name: i for i, name in enumerate(SOO_FUNCTIONS + MOO_FUNCTIONS)}


def _batch_points(xs, d: int) -> np.ndarray:
    """xs as a finite (n, d) float64 array."""
    xs = finite_array(xs, "points")
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ContractError(f"expected points of shape (n, {d}), got {xs.shape}")
    return xs


def _blocks(xs):
    """(slice, (d, m) coordinate rows) per block of BLOCK_POINTS points."""
    for start in range(0, len(xs), BLOCK_POINTS):
        blk = slice(start, start + BLOCK_POINTS)
        yield blk, xs[blk].T


def evaluate_soo_batch(inst: ProblemInstance, xs: np.ndarray) -> np.ndarray:
    """Evaluate a (n, d) batch of finite points on a single-objective instance."""
    require_instance(inst, "soo", "evaluate_soo_batch")
    xs = _batch_points(xs, inst.dimension)
    out = np.empty(len(xs))
    for blk, rows in _blocks(xs):
        z = np.subtract(rows, inst.x_opt[:, None], order="C")
        if inst.id.function_code == "rosenbrock":
            z += 1.0
        out[blk] = _SOO_FORMULAS[inst.id.function_code](z)
    out += inst.f_opt
    return out


# ---------------------------------------------------------------------------
# Bi-objective formulas.  The toolkit domain is [-5, 5]^2 everywhere; ZDT's
# native [0, 1]^2 box is reached through an affine map so the prober only
# ever deals with one domain convention.  Points are read as (2, n) coordinate
# rows and fill a (2, n) output, so the (n, 2) result has contiguous columns.


def _to_unit(xs):
    return (xs - DOMAIN_LO) / (DOMAIN_HI - DOMAIN_LO)


def _zdt_f2(code, f1, g):
    """Second ZDT objective from f1 and the distance function g."""
    ratio = f1 / g
    if code == "zdt1":
        return g * (1.0 - np.sqrt(ratio))
    if code == "zdt2":
        return g * (1.0 - ratio**2)
    return g * (1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * f1))  # zdt3


def evaluate_moo_batch(inst: ProblemInstance, xs: np.ndarray) -> np.ndarray:
    """Evaluate a (n, 2) batch of finite points into (n, 2) objective pairs."""
    require_instance(inst, "moo", "evaluate_moo_batch")
    xs = _batch_points(xs, 2)
    code = inst.id.function_code
    out = np.empty((2, len(xs)))
    for blk, rows in _blocks(xs):
        if code == "bi_sphere":
            a, b = inst.centers
            out[0, blk] = sum((rows - a[:, None]) ** 2)
            out[1, blk] = sum((rows - b[:, None]) ** 2)
        else:
            # ZDT is defined on its box only; outside it zdt1 and zdt3 take roots of negatives
            if rows.min() < DOMAIN_LO or rows.max() > DOMAIN_HI:
                raise DataError(f"{code} points must lie in the domain [{DOMAIN_LO}, {DOMAIN_HI}]^2")
            u = _to_unit(rows)
            out[0, blk] = u[0]
            out[1, blk] = _zdt_f2(code, u[0], 1.0 + 9.0 * u[1])
    return out.T


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
    pts = np.stack([t, _zdt_f2(code, t, 1.0)], axis=-1)
    if code == "zdt3":
        pts = pts[nondominated_2d(pts)]
    return pts


def true_group(function_code: str) -> int:
    """Function group index (1..5) for a single-objective function."""
    require_type("function_code", function_code, str)
    if function_code not in FUNCTION_GROUPS:
        raise InvalidProblemError(f"no group defined for {function_code!r}")
    return FUNCTION_GROUPS[function_code]
