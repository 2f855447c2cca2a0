"""Landscape probing: grid evaluation to normalized contour stacks.

A problem instance is turned into grayscale contour fields by evaluating it
on a uniform 2-D grid (a random axis-aligned slice when d > 2), normalizing
each field to [0, 1], emulating a filled-contour rendering by level
quantization, and resizing to the CNN input resolution.  Each field is an
(r, r) float64 array.  Five views are stacked per configuration into one
(5, r, r) array; bi-objective instances instead probe five sampled
rectangular windows per repetition, once per objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, require_integer
from .suite import (
    DOMAIN_HI,
    DOMAIN_LO,
    ProblemId,
    ProblemInstance,
    evaluate_moo_batch,
    evaluate_soo_batch,
    make_instance,
)

DEFAULT_PROBE_RESOLUTION = 300
DEFAULT_LEVELS = 16
VIEWS_PER_STACK = 5
MOO_WINDOW_SCALE = 0.1


@dataclass
class EvalCounter:
    """Counts objective evaluations spent while probing."""

    spent: int = 0

    def add(self, n: int) -> None:
        self.spent += int(n)


@dataclass(frozen=True)
class SlicePlan:
    """The two coordinates spanning the probed cross-section (others at 0)."""

    axes: tuple[int, int]

    def __post_init__(self):
        i, j = self.axes
        if i == j:
            raise ContractError("slice axes must differ")


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle inside the domain: lower corner plus side lengths."""

    lo: tuple[float, float]
    side: tuple[float, float]

    def to_json(self) -> dict:
        return {"lo": list(self.lo), "side": list(self.side)}


FULL_DOMAIN = Window(
    lo=(DOMAIN_LO, DOMAIN_LO),
    side=(DOMAIN_HI - DOMAIN_LO, DOMAIN_HI - DOMAIN_LO),
)


@dataclass(eq=False)
class ContourStack:
    """k normalized views of one configuration plus probing provenance."""

    views: np.ndarray  # (k, r, r) float64
    source: list[dict]
    evaluations_spent: int

    @property
    def resolution(self) -> int:
        return self.views.shape[-1]

    def as_array(self) -> np.ndarray:
        """A (k, r, r) float64 copy of the views."""
        return self.views.copy()


def plan_slice(d: int, rng: np.random.Generator) -> SlicePlan:
    """Choose the 2-D cross-section: uniform over unordered coordinate pairs."""
    if d < 2:
        raise ContractError(f"need d >= 2 to slice, got {d}")
    if d == 2:
        return SlicePlan(axes=(0, 1))
    pair = rng.choice(d, size=2, replace=False)
    i, j = int(pair.min()), int(pair.max())
    return SlicePlan(axes=(i, j))


def _grid_points(inst: ProblemInstance, plan: SlicePlan, r: int, window: Window):
    """(r*r, d) evaluation points for the grid; row-major with the second
    slice coordinate as the slow (row) index."""
    require_integer("grid resolution", r, 2)
    ax_a = np.linspace(window.lo[0], window.lo[0] + window.side[0], r)
    ax_b = np.linspace(window.lo[1], window.lo[1] + window.side[1], r)
    grid_b, grid_a = np.meshgrid(ax_b, ax_a, indexing="ij")
    pts = np.zeros((r * r, inst.dimension))
    pts[:, plan.axes[0]] = grid_a.ravel()
    pts[:, plan.axes[1]] = grid_b.ravel()
    return pts


def probe_grid(
    inst: ProblemInstance,
    plan: SlicePlan,
    r: int,
    window: Window = FULL_DOMAIN,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Evaluate a SOO instance on an endpoint-inclusive r x r grid; entry
    [b, a] holds the point with the a-th first and b-th second slice
    coordinate (both ascending)."""
    pts = _grid_points(inst, plan, r, window)
    values = evaluate_soo_batch(inst, pts).reshape(r, r)
    if counter is not None:
        counter.add(r * r)
    return values


def probe_grid_moo(
    inst: ProblemInstance,
    r: int,
    window: Window = FULL_DOMAIN,
    counter: EvalCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both objectives of a MOO instance over the same grid."""
    plan = SlicePlan(axes=(0, 1))
    pts = _grid_points(inst, plan, r, window)
    pairs = evaluate_moo_batch(inst, pts)
    if counter is not None:
        counter.add(2 * r * r)  # one grid, two fields
    f1, f2 = pairs.T
    return f1.reshape(r, r), f2.reshape(r, r)


def normalize(field) -> np.ndarray:
    """Rescale a field to [0, 1]; a constant field becomes all 0.5."""
    vals = np.asarray(field, dtype=float)
    if vals.size == 0:
        raise ContractError(f"cannot normalize an empty field of shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise DataError("cannot normalize a field with NaN or inf values")
    lo = vals.min()
    hi = vals.max()
    with np.errstate(over="ignore"):
        span = hi - lo
    if hi == lo:
        return np.full_like(vals, 0.5)
    if np.isfinite(span):
        return (vals - lo) / span
    # the range overflows float64; halving every term keeps it finite
    return (vals * 0.5 - lo * 0.5) / (hi * 0.5 - lo * 0.5)


def quantize_levels(field, levels: int) -> np.ndarray:
    """Snap a normalized field onto L level bands (filled-contour emulation).

    Each value maps to the midpoint of its band; levels=0 passes the
    continuous field through unchanged.
    """
    require_integer("levels", levels, 0)
    vals = np.asarray(field, dtype=float)
    if vals.size == 0:
        raise ContractError(f"quantize_levels expects a nonempty field, got shape {vals.shape}")
    if not (vals.min() >= 0.0 and vals.max() <= 1.0):
        raise ContractError("quantize_levels expects a field normalized to [0, 1]")
    if levels == 0:
        return vals
    v = np.minimum(vals, 1.0 - 1e-12)
    return (np.floor(v * levels) + 0.5) / levels


def resize_bilinear(field, r_out: int) -> np.ndarray:
    """Endpoint-aligned bilinear resample of a square field to r_out x r_out
    (corners exact)."""
    require_integer("output resolution", r_out, 2)
    vals = np.asarray(field, dtype=float)
    if vals.ndim != 2 or not 0 < vals.shape[0] == vals.shape[1]:
        raise ContractError(f"resize_bilinear expects a square 2-D field, got shape {vals.shape}")
    r_in = vals.shape[0]
    if r_out == r_in:
        return vals.copy()
    u = np.arange(r_out) * (r_in - 1) / (r_out - 1)
    i0 = np.minimum(u.astype(int), r_in - 2)
    frac = u - i0
    i1 = i0 + 1
    rows = vals[i0][:, i1] * frac[None, :] + vals[i0][:, i0] * (1.0 - frac[None, :])
    rows1 = vals[i1][:, i1] * frac[None, :] + vals[i1][:, i0] * (1.0 - frac[None, :])
    return rows * (1.0 - frac[:, None]) + rows1 * frac[:, None]


def sample_window(
    lam: float, rng: np.random.Generator, domain: tuple[float, float] = (DOMAIN_LO, DOMAIN_HI)
) -> Window:
    """Uniformly place a window with sides lam * domain side inside the domain."""
    if not 0.0 < lam <= 1.0:
        raise ContractError("window scale must lie in (0, 1]")
    lo_d, hi_d = domain
    side = lam * (hi_d - lo_d)
    corner = rng.uniform(lo_d, hi_d - side, size=2)
    return Window(lo=(float(corner[0]), float(corner[1])), side=(side, side))


def _finish_view(field: np.ndarray, levels: int, r_out: int) -> np.ndarray:
    return resize_bilinear(quantize_levels(normalize(field), levels), r_out)


def build_soo_stack(
    function_code: str,
    dimension: int,
    instance_seeds,
    slice_seed: int,
    r_probe: int = DEFAULT_PROBE_RESOLUTION,
    r_out: int = 64,
    levels: int = DEFAULT_LEVELS,
) -> ContourStack:
    """Probe the five instances of a (function, dimension) configuration.

    Each instance draws its own random slice; views are normalized,
    quantized, and resized independently into one (5, r_out, r_out) array.
    The evaluation budget is spent at r_probe only; resizing never
    re-evaluates.
    """
    if len(instance_seeds) != VIEWS_PER_STACK:
        raise ContractError(f"need {VIEWS_PER_STACK} instance seeds")
    require_integer("r_out", r_out, 2)
    counter = EvalCounter()
    views = np.empty((VIEWS_PER_STACK, r_out, r_out))
    source = []
    for idx, inst_seed in enumerate(instance_seeds):
        pid = ProblemId(
            kind="soo", function_code=function_code, dimension=dimension, instance_index=idx
        )
        inst = make_instance(pid, inst_seed)
        rng = np.random.default_rng(
            np.random.SeedSequence([slice_seed & 0xFFFFFFFFFFFFFFFF, idx])
        )
        plan = plan_slice(dimension, rng)
        raw = probe_grid(inst, plan, r_probe, counter=counter)
        views[idx] = _finish_view(raw, levels, r_out)
        source.append(
            {"instance_index": idx, "seed": int(inst_seed), "axes": list(plan.axes)}
        )
    return ContourStack(views=views, source=source, evaluations_spent=counter.spent)


def build_moo_stacks(
    inst: ProblemInstance,
    rng: np.random.Generator,
    lam: float = MOO_WINDOW_SCALE,
    r_probe: int = DEFAULT_PROBE_RESOLUTION,
    r_out: int = 64,
    levels: int = DEFAULT_LEVELS,
) -> tuple[ContourStack, ContourStack]:
    """Sample five windows and probe both objectives over each.

    View i of both returned stacks shares window i; the two objectives are
    normalized independently so each keeps its own geometry.  The two stacks
    hold the halves of one (2, 5, r_out, r_out) array.
    """
    if inst.id.kind != "moo":
        raise ContractError("build_moo_stacks needs a bi-objective instance")
    require_integer("r_out", r_out, 2)
    counter = EvalCounter()
    views = np.empty((2, VIEWS_PER_STACK, r_out, r_out))
    source = []
    for i in range(VIEWS_PER_STACK):
        window = sample_window(lam, rng)
        f1, f2 = probe_grid_moo(inst, r_probe, window=window, counter=counter)
        for k, raw in enumerate((f1, f2)):
            views[k, i] = _finish_view(raw, levels, r_out)
        source.append({"window": window.to_json()})
    # each objective stack books its half of the shared grids' evaluations
    per_stack = counter.spent // 2
    return (
        ContourStack(views=views[0], source=source, evaluations_spent=per_stack),
        ContourStack(views=views[1], source=source, evaluations_spent=per_stack),
    )


def write_pgm(field, path) -> None:
    """Write a normalized 2-D field as binary PGM (P5, maxval 255).

    Row 0 of the image is the maximum second-coordinate edge, matching the
    usual top-down image convention.  Output bytes are platform-independent.
    """
    vals = np.asarray(field, dtype=float)
    if vals.ndim != 2 or vals.size == 0:
        raise ContractError(f"write_pgm expects a nonempty 2-D field, got shape {vals.shape}")
    if not (vals.min() >= 0.0 and vals.max() <= 1.0):
        raise DataError("write_pgm expects a normalized field")
    pixels = np.floor(np.flipud(vals) * 255.0 + 0.5).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())
