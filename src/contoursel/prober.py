"""Landscape probing: grid evaluation to normalized contour stacks.

A problem instance is turned into grayscale contour fields by evaluating it
on a uniform 2-D grid (a random axis-aligned slice when d > 2, a window for
a bi-objective instance; the grid is handed to the evaluator in open form,
one coordinate array per dimension, so no (r*r, d) point matrix is built),
normalizing each field to [0, 1], emulating a filled-contour rendering by
level quantization, and resizing to the CNN input resolution.  Each field
is an (r, r) float64 array.  Five views are stacked per configuration into
one (5, r, r) array; bi-objective instances instead probe five sampled
rectangular windows per repetition, once per objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    COUNT_MAX, ContractError, DataError, finite_array, float_array, is_integer, is_real, opened, require_integer,
    require_type, seeded_rng,
)
from .suite import (
    DOMAIN_HI,
    DOMAIN_LO,
    OpenGrid,
    ProblemId,
    ProblemInstance,
    evaluate_moo_batch,
    evaluate_soo_batch,
    make_instance,
    require_instance,
)

DEFAULT_PROBE_RESOLUTION = 300
DEFAULT_LEVELS = 16
VIEWS_PER_STACK = 5
MOO_WINDOW_SCALE = 0.1


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle inside the domain: lower corner plus side lengths."""

    lo: tuple[float, float]
    side: tuple[float, float]

    def __post_init__(self):
        pairs = all(isinstance(v, tuple) and len(v) == 2 and all(map(is_real, v)) for v in (self.lo, self.side))
        if not (pairs and min(self.side) > 0):
            raise ContractError(f"a window is a corner and positive sides, each two finite reals, not {self!r}")

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

    def as_array(self) -> np.ndarray:
        """The (k, r, r) float64 views as a read-only view that shares
        their memory, so np.stack over stacks copies each once; a write
        through it raises ValueError, and a caller that edits copies it."""
        view = self.views.view()
        view.flags.writeable = False
        return view


def plan_slice(d: int, rng: np.random.Generator) -> tuple[int, int]:
    """Choose the 2-D cross-section: an ascending (i, j) pair of coordinates,
    uniform over unordered pairs, so (0, 1) when d == 2.  Every d draws
    from rng, d == 2 included."""
    require_integer("slice dimension", d, 2, COUNT_MAX)
    require_type("rng", rng, np.random.Generator)
    pair = rng.choice(d, size=2, replace=False)
    return int(pair.min()), int(pair.max())


def _grid(inst: ProblemInstance, axes: tuple[int, int], r: int, window: Window) -> OpenGrid:
    """The endpoint-inclusive r x r grid over window in open form: the
    first slice coordinate varies along the columns (shape (1, r)), the
    second along the rows (shape (r, 1)), and every other coordinate is 0."""
    require_integer("grid resolution", r, 2, COUNT_MAX)
    d = inst.dimension
    if not (
        isinstance(axes, tuple) and len(axes) == 2
        and all(is_integer(axis, 0) and axis < d for axis in axes) and axes[0] != axes[1]
    ):
        raise ContractError(f"slice axes must be two different coordinates in [0, {d}), got {axes!r}")
    coords = [np.zeros((1, 1))] * d
    coords[axes[0]] = np.linspace(window.lo[0], window.lo[0] + window.side[0], r)[None, :]
    coords[axes[1]] = np.linspace(window.lo[1], window.lo[1] + window.side[1], r)[:, None]
    return OpenGrid(tuple(coords))


def probe_grid(inst: ProblemInstance, axes: tuple[int, int], r: int) -> np.ndarray:
    """Evaluate a SOO instance on an endpoint-inclusive r x r grid over the
    full domain, spanned by the slice coordinates axes = (i, j) with every
    other coordinate at 0; entry [b, a] holds the point with the a-th value
    of coordinate i and the b-th of coordinate j (both ascending).  The grid
    goes to evaluate_soo_batch in open form, so each per-coordinate term is
    computed on r values and only the sums after the last slice coordinate
    on r * r.  The field costs its size, r * r, in evaluations."""
    require_instance(inst, "soo", "probe_grid")
    return evaluate_soo_batch(inst, _grid(inst, axes, r, FULL_DOMAIN))


def probe_grid_moo(
    inst: ProblemInstance, r: int, window: Window = FULL_DOMAIN
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both objectives of a MOO instance over one endpoint-inclusive
    r x r grid over window, laid out as probe_grid's.  The grid goes to
    evaluate_moo_batch in open form, so the terms of one coordinate are
    computed on r values; the two (r, r) fields are C-contiguous planes of
    one array, and together cost r * r evaluations."""
    require_instance(inst, "moo", "probe_grid_moo")
    require_type("window", window, Window)
    pairs = evaluate_moo_batch(inst, _grid(inst, (0, 1), r, window))
    return pairs[..., 0], pairs[..., 1]


def normalize(field) -> np.ndarray:
    """Rescale a field to [0, 1]; a constant field becomes all 0.5."""
    vals = float_array(field, "a field")
    if vals.size == 0:
        raise ContractError(f"cannot normalize an empty field of shape {vals.shape}")
    lo = vals.min()
    hi = vals.max()
    # NaN propagates through min and max, and an infinity becomes an extreme
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DataError("cannot normalize a field with NaN or inf values")
    with np.errstate(over="ignore"):
        span = hi - lo
    if hi == lo:
        return np.full_like(vals, 0.5)
    if np.isfinite(span):
        out = np.subtract(vals, lo)
        return np.divide(out, span, out=out)
    # the range overflows float64; halving every term keeps it finite
    return (vals * 0.5 - lo * 0.5) / (hi * 0.5 - lo * 0.5)


def quantize_levels(field, levels: int) -> np.ndarray:
    """Snap a normalized field onto L >= 1 level bands (filled-contour
    emulation) in a new array: each value maps to the midpoint of its band."""
    require_integer("levels", levels, 1, COUNT_MAX)
    vals = float_array(field, "a field")
    if vals.size == 0:
        raise ContractError(f"quantize_levels expects a nonempty field, got shape {vals.shape}")
    if not (vals.min() >= 0.0 and vals.max() <= 1.0):
        raise ContractError("quantize_levels expects a field normalized to [0, 1]")
    # out= keeps a 0-d field an array: np.minimum would return a numpy scalar, which np.floor(out=) refuses
    v = np.minimum(vals, 1.0 - 1e-12, out=np.empty_like(vals))
    v *= levels
    np.floor(v, out=v)
    v += 0.5
    return np.divide(v, levels, out=v)


def resize_bilinear(field, r_out: int) -> np.ndarray:
    """Endpoint-aligned bilinear resample of a square finite field to
    r_out x r_out (corners exact).  At r_out equal to the input size every
    value comes back exactly, except that a -0.0 next to a positive value
    may come back as +0.0."""
    require_integer("output resolution", r_out, 2, COUNT_MAX)
    vals = finite_array(field, "a field")
    if vals.ndim != 2 or not 0 < vals.shape[0] == vals.shape[1]:
        raise ContractError(f"resize_bilinear expects a square 2-D field, got shape {vals.shape}")
    r_in = vals.shape[0]
    u = np.arange(r_out) * (r_in - 1) / (r_out - 1)
    i0 = np.minimum(u.astype(int), r_in - 2)
    frac = u - i0
    i1 = i0 + 1
    top, bottom = vals[i0], vals[i1]
    rows = top[:, i1] * frac[None, :] + top[:, i0] * (1.0 - frac[None, :])
    rows1 = bottom[:, i1] * frac[None, :] + bottom[:, i0] * (1.0 - frac[None, :])
    return rows * (1.0 - frac[:, None]) + rows1 * frac[:, None]


def sample_window(lam: float, rng: np.random.Generator) -> Window:
    """Uniformly place a window with sides lam * domain side inside the domain."""
    if not (is_real(lam) and 0.0 < lam <= 1.0):
        raise ContractError(f"window scale must be a real number in (0, 1], got {lam!r}")
    require_type("rng", rng, np.random.Generator)
    side = lam * (DOMAIN_HI - DOMAIN_LO)
    corner = rng.uniform(DOMAIN_LO, DOMAIN_HI - side, size=2)
    return Window(lo=(float(corner[0]), float(corner[1])), side=(side, side))


def _finish_view(field: np.ndarray, r_out: int) -> np.ndarray:
    return resize_bilinear(quantize_levels(normalize(field), DEFAULT_LEVELS), r_out)


def build_soo_stack(
    function_code: str,
    dimension: int,
    instance_seeds,
    slice_seed: int,
    r_probe: int = DEFAULT_PROBE_RESOLUTION,
    r_out: int = 64,
) -> ContourStack:
    """Probe the five instances of a (function, dimension) configuration.

    Each instance draws its own random slice; views are normalized,
    quantized to DEFAULT_LEVELS bands, and resized independently into one
    (5, r_out, r_out) array.  The evaluation budget is spent at r_probe
    only; resizing never re-evaluates.  evaluations_spent sums the sizes of
    the five probed fields, 5 * r_probe**2.
    """
    seeds = list(instance_seeds) if np.iterable(instance_seeds) else []
    if len(seeds) != VIEWS_PER_STACK or not all(is_integer(s) for s in seeds):
        raise ContractError(f"instance_seeds must be {VIEWS_PER_STACK} integers, got {instance_seeds!r}")
    require_integer("r_out", r_out, 2, COUNT_MAX)
    spent = 0
    views = np.empty((VIEWS_PER_STACK, r_out, r_out))
    source = []
    for idx, inst_seed in enumerate(seeds):
        pid = ProblemId(
            kind="soo", function_code=function_code, dimension=dimension, instance_index=idx
        )
        inst = make_instance(pid, inst_seed)
        axes = plan_slice(dimension, seeded_rng("slice_seed", slice_seed, idx))
        raw = probe_grid(inst, axes, r_probe)
        views[idx] = _finish_view(raw, r_out)
        spent += raw.size
        source.append({"instance_index": idx, "seed": int(inst_seed), "axes": list(axes)})
    return ContourStack(views=views, source=source, evaluations_spent=spent)


def build_moo_stacks(
    inst: ProblemInstance,
    rng: np.random.Generator,
    lam: float = MOO_WINDOW_SCALE,
    r_probe: int = DEFAULT_PROBE_RESOLUTION,
    r_out: int = 64,
) -> tuple[ContourStack, ContourStack]:
    """Sample five windows and probe both objectives over each.

    View i of both returned stacks shares window i; the two objectives are
    normalized independently so each keeps its own geometry, and each is
    quantized to DEFAULT_LEVELS bands.  The two stacks hold the halves of
    one (2, 5, r_out, r_out) array; their source lists are equal but share
    no object, so provenance written to one stays out of the other.  Each
    grid point is one evaluation of both objectives, so each stack books
    the size of the fields it finishes: 5 * r_probe**2 evaluations, as a
    SOO stack does.
    """
    require_instance(inst, "moo", "build_moo_stacks")
    require_integer("r_out", r_out, 2, COUNT_MAX)
    spent = [0, 0]
    views = np.empty((2, VIEWS_PER_STACK, r_out, r_out))
    windows = [sample_window(lam, rng) for _ in range(VIEWS_PER_STACK)]
    for i, window in enumerate(windows):
        for k, raw in enumerate(probe_grid_moo(inst, r_probe, window=window)):
            views[k, i] = _finish_view(raw, r_out)
            spent[k] += raw.size
    # to_json builds new dicts and lists on every call
    return tuple(ContourStack(views=v, source=[{"window": w.to_json()} for w in windows], evaluations_spent=n)
                 for v, n in zip(views, spent))


def write_pgm(field, path) -> None:
    """Write a normalized 2-D field as binary PGM (P5, maxval 255).

    Row 0 of the image is the maximum second-coordinate edge, matching the
    usual top-down image convention.  Output bytes are platform-independent.
    """
    vals = float_array(field, "a field")
    if vals.ndim != 2 or vals.size == 0:
        raise ContractError(f"write_pgm expects a nonempty 2-D field, got shape {vals.shape}")
    if not (vals.min() >= 0.0 and vals.max() <= 1.0):
        raise DataError("write_pgm expects a normalized field")
    pixels = np.floor(np.flipud(vals) * 255.0 + 0.5).astype(np.uint8)
    h, w = pixels.shape
    with opened(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())
