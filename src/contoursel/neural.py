"""Framework-free CNN regressor over contour stacks.

All tensors are float64 numpy arrays.  Models consume view-first stacks of
shape (views, r, r); inside the spatial layers a channel-last layout is
used.  The fixed 3x3 / stride 1 / zero pad 1 convolution lowers each chunk
of samples to a patch matrix (im2col: one row of 9*C taps per output
pixel) and multiplies it by the (9*C, O) kernel matrix, so the work is a
few large matrix products.  Every chunk is copied into one buffer of at
most PATCH_MATRIX_BYTES, sized to stay in the L2 cache between the copy
and the product that reads it, so lowering never holds a nine-fold copy
of a whole batch.  A prediction pass keeps no backward cache.  That keeps
full-precision CPU training fast enough for the experiment harness
without any framework dependency.

Two model variants exist: "combined" consumes the views of a stack as the
input channels of one image, "separate" turns each view into a 1-channel
image.  A bi-objective model takes two stacks (slots) of one shape per
sample.  Either way all images of a batch share one encoder, which reads
them in place from their stacks and runs depth first, one group of whole
samples at a time (see ENCODER_CHUNK_BYTES): each slot's images of the
group go through every conv block and the global average pool before the
next group starts, so a pass holds one group's feature maps however large
the batch, and conv0's zero padding is the only copy of a chunk's images.
Model.embed gives a batch's head-input rows, the embeddings ordered by slot,
then view, and a prediction is the head run over those rows.
A training step runs each group's encoder, head and backward back to back,
so it too holds one group's caches, then runs the head once more over the
whole batch for the loss and the head's gradients.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    COUNT_MAX, ContractError, DataError, ParseError, TrainingError, finite_array, float_array, is_integer, is_real,
    opened, require_integer, require_type, seeded_rng,
)

MODEL_FORMAT = "contoursel.model"
MODEL_FORMAT_VERSION = 1
DIMENSION_SCALE = 0.1  # dimension feature is fed to the head as d/10


# ---------------------------------------------------------------------------
# Layer primitives (functional: forward returns a cache consumed by backward;
# need_cache=False returns it as None for a pass that runs no backward).
#
# Spatial tensors use channel-last (N, H, W, C) layout internally: a patch
# matrix row is then nine runs of C contiguous values, and every reshape
# around the matrix products is free.  Convolution weights keep the
# conventional (C_out, C_in, 3, 3) shape at the API surface.


# Each chunk of samples is lowered into one patch buffer of at most this many
# bytes, reused for every chunk of a call.  A buffer that fits in the L2 cache
# (2 MiB per core on the Xeon of the ROADMAP baseline) stays there between
# the copy that fills it and the matrix product that reads it; an 8 MiB one
# is read back from memory, and lowering then costs as much as the product.
# Of 0.5, 1, 2 and 8 MiB, 0.5 and 1 MiB were fastest there.  A chunk is
# never smaller than one sample.
PATCH_MATRIX_BYTES = 2**20


def _require_array(name: str, x, ndim: int) -> None:
    """ContractError naming the argument unless x is a numpy array of ndim axes."""
    require_type(name, x, np.ndarray)
    if x.ndim != ndim:
        raise ContractError(f"{name} must have {ndim} axes, got shape {x.shape}")


def _pad(x: np.ndarray) -> np.ndarray:
    return np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))


def _kernel_matrix(w: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> contiguous (9*C, O), rows ordered tap row, tap column,
    channel like the columns of the patch matrix."""
    o, c = w.shape[:2]
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(9 * c, o)


def _patch_chunks(xp: np.ndarray):
    """Yield (samples, patches) for consecutive sample slices of the padded
    input (n, H+2, W+2, C): patches is their (m*H*W, 9*C) patch matrix, one
    row per output pixel.  Every chunk is copied from one window view of xp
    into the same buffer of at most PATCH_MATRIX_BYTES, so a chunk's
    patches are valid only until the next one is yielded."""
    n, hp, wp, c = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    step = max(1, PATCH_MATRIX_BYTES // ((hp - 2) * (wp - 2) * 9 * c * xp.itemsize))
    buffer = np.empty((min(step, n), *windows.shape[1:]), dtype=xp.dtype)
    for start in range(0, n, step):
        samples = slice(start, min(start + step, n))
        patches = buffer[: samples.stop - start]
        np.copyto(patches, windows[samples])
        yield samples, patches.reshape(-1, 9 * c)


def _correlate(xp: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """(n, H, W, O) = patch_matrix(xp) @ wmat, one matrix product per chunk."""
    n, hp, wp, _ = xp.shape
    o = wmat.shape[1]
    y = np.empty((n, hp - 2, wp - 2, o))
    for samples, patches in _patch_chunks(xp):
        np.matmul(patches, wmat, out=y[samples].reshape(-1, o))
    return y


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, *, need_cache: bool = True):
    """3x3 / stride 1 / zero-pad 1 convolution; x (N,H,W,C), w (O,C,3,3).

    The input is padded once; each chunk of samples is lowered to its patch
    matrix (im2col) and multiplied by the (9*C, O) kernel matrix straight
    into the output.  The cache keeps the padded input, not the patches;
    need_cache=False returns it as None, so the padded input is freed on
    return.
    """
    _require_array("x", x, 4)
    if x.shape[3] != w.shape[1]:
        raise ContractError(f"channel mismatch: input {x.shape[3]}, weights {w.shape[1]}")
    xp = _pad(x)
    y = _correlate(xp, _kernel_matrix(w))
    y += b
    return y, (xp, x.shape, w) if need_cache else None


def conv2d_backward(g: np.ndarray, cache, *, need_dx: bool = True):
    """Gradients (dx, dw, db) for conv2d_forward.

    dw sums g^T @ patches over the same chunks as the forward pass.  dx is
    the same chunked product applied to the padded g with the kernel turned
    by 180 degrees and its channel axes swapped, which is the adjoint of the
    forward convolution.  need_dx=False returns dx as None and skips its
    cost: the encoder's first layer sees the data, whose gradient no one
    uses.
    """
    xp, xshape, w = cache
    o = w.shape[0]
    # a generator expression, so no loop variable keeps the patch buffer
    # alive while dx lowers g into its own
    dwmat = sum((g[samples].reshape(-1, o).T @ patches for samples, patches in _patch_chunks(xp)),
                np.zeros((o, 9 * xshape[3])))
    dw = dwmat.reshape(o, 3, 3, xshape[3]).transpose(0, 3, 1, 2)
    db = g.reshape(-1, o).sum(axis=0)
    dx = _correlate(_pad(g), _kernel_matrix(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))) if need_dx else None
    return dx, dw, db


def relu_forward(x, *, need_cache: bool = True):
    """max(x, 0) as x * (x > 0), so a negative input gives -0.0; the cache
    is the mask, or None with need_cache=False."""
    require_type("x", x, np.ndarray)
    mask = x > 0
    return x * mask, mask if need_cache else None


def relu_backward(g, mask):
    return g * mask


# The quadrant numbers of a 2x2 window, row-major, shaped to broadcast
# against (n, oh, 2, ow, 2, c); read-only, as it is shared by every call.
_QUADRANTS = np.arange(4, dtype=np.uint8).reshape(2, 1, 2, 1)
_QUADRANTS.flags.writeable = False


def maxpool2x2_forward(x, *, need_cache: bool = True):
    """2x2 max pooling with stride 2; odd trailing rows/columns are dropped.

    The cache is the input shape and a uint8 code per output value: the
    first maximal quadrant of its window (0-3, row-major), so ties route
    the gradient to one input.  It holds no view of x, so the input is
    freed once it has been pooled.  need_cache=False computes no code and
    returns the cache as None."""
    _require_array("x", x, 4)
    n, h, w, c = x.shape
    oh, ow = h // 2, w // 2
    if oh < 1 or ow < 1:
        raise ContractError(f"spatial size {h}x{w} too small to pool")
    xc = x[:, : 2 * oh, : 2 * ow, :]
    q0, q1, q2, q3 = xc[:, 0::2, 0::2], xc[:, 0::2, 1::2], xc[:, 1::2, 0::2], xc[:, 1::2, 1::2]
    top, bottom = np.maximum(q0, q1), np.maximum(q2, q3)
    if not need_cache:
        return np.maximum(top, bottom, out=top), None
    lower = bottom > top  # the first maximum lies in the bottom pair
    right = q1 > q0  # ... and in the right column of its pair
    # in the bottom pair compare q3 with q2 instead; this xor select is
    # several times faster than np.where on bool arrays
    right ^= lower & (right ^ (q3 > q2))
    code = right.view(np.uint8)
    code += lower
    code += lower  # code = 2 * lower + right
    return np.maximum(top, bottom, out=top), (x.shape, code)


def maxpool2x2_backward(g, cache):
    """Route each g to the quadrant its code names, in one broadcast pass;
    the other three inputs of the window get g * 0, so a negative g leaves
    -0.0 there.  Dropped odd rows/columns get +0.0."""
    xshape, code = cache
    n, h, w, c = xshape
    oh, ow = h // 2, w // 2
    routed = g[:, :, None, :, None, :] * (code[:, :, None, :, None, :] == _QUADRANTS)
    dx = routed.reshape(n, 2 * oh, 2 * ow, c)
    if h % 2 or w % 2:
        dx = np.pad(dx, ((0, 0), (0, h % 2), (0, w % 2), (0, 0)))
    return dx


def global_avg_pool_forward(x, *, need_cache: bool = True):
    _require_array("x", x, 4)
    return x.mean(axis=(1, 2)), (x.shape,) if need_cache else None


def global_avg_pool_backward(g, cache):
    (xshape,) = cache
    n, h, w, c = xshape
    return np.broadcast_to(g[:, None, None, :], xshape) / (h * w)


def dense_forward(x, w, b, *, need_cache: bool = True):
    """y = x W^T + b with w of shape (out, in)."""
    _require_array("x", x, 2)
    if x.shape[1] != w.shape[1]:
        raise ContractError(f"dense input width {x.shape[1]} != weight width {w.shape[1]}")
    return x @ w.T + b, (x, w) if need_cache else None


def dense_backward(g, cache):
    x, w = cache
    return g @ w, g.T @ x, g.sum(axis=0)


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error of two arrays of one shape, and its gradient w.r.t. pred."""
    require_type("pred", pred, np.ndarray)
    require_type("target", target, np.ndarray)
    if pred.shape != target.shape:
        raise ContractError(f"prediction shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ContractError("no predictions to score: the mean squared error of an empty batch is undefined")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, _mse_gradient(diff, diff.size)


def _mse_gradient(diff: np.ndarray, count: int) -> np.ndarray:
    """The gradient of a mean squared error over count values w.r.t. the
    predictions that differ by diff from their targets; diff may hold a
    part of the count, as one sample group of a batch does."""
    return 2.0 * diff / count


# ---------------------------------------------------------------------------
# Parameters.  The model calls every layer primitive by its module-level name,
# so Python looks each one up at call time: the benchmark tracer, which
# replaces the primitives by name for the span of a traced round, times every
# model, whenever it was built.


class Param:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)


def _add_grads(params, dx, dw, db):
    """Add dw and db into the (w, b) grads; return dx.  dw and db die here, not in the caller."""
    w, b = params
    w.grad += dw
    b.grad += db
    return dx


def _entry(mapping, key, kind):
    """mapping[key]; ContractError naming the key unless mapping is a dict holding a kind there."""
    require_type(f"the container of {key!r}", mapping, dict)
    if key not in mapping:
        raise ContractError(f"missing key {key!r}")
    require_type(repr(key), mapping[key], kind)
    return mapping[key]


def _he_params(rng, name, shape, fan_in):
    """He-normal weight of the given shape, drawn first, then a uniform bias per output."""
    w = Param(name + ".w", rng.normal(0.0, np.sqrt(2.0 / fan_in), shape))
    return w, Param(name + ".b", rng.uniform(-0.05, 0.05, shape[0]))


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; shapes derive from it deterministically."""

    variant: str  # "combined" or "separate"
    input_resolution: int
    output_count: int
    view_count: int = 5
    stack_count: int = 1  # 2 for bi-objective models
    encoder_channels: tuple = (16, 32, 64)
    head_widths: tuple = (128,)

    def __post_init__(self):
        for name in ("input_resolution", "output_count", "view_count", "stack_count"):
            value = getattr(self, name)
            require_integer(name, value, 1, COUNT_MAX)
            object.__setattr__(self, name, int(value))
        for name in ("encoder_channels", "head_widths"):
            widths = getattr(self, name)
            if not isinstance(widths, (tuple, list)) or not all(is_integer(v, 1) and v <= COUNT_MAX for v in widths):
                raise ContractError(f"{name} must be a sequence of integers >= 1 and <= {COUNT_MAX}, got {widths!r}")
            object.__setattr__(self, name, tuple(int(v) for v in widths))
        if self.variant not in ("combined", "separate"):
            raise ContractError(f"unknown variant {self.variant!r}")
        if not self.encoder_channels:
            raise ContractError("encoder_channels must hold at least one width, got ()")
        if self.input_resolution < 2 ** len(self.encoder_channels):
            raise ContractError(
                f"resolution {self.input_resolution} too small for "
                f"{len(self.encoder_channels)} pooling stages"
            )
        if self.stack_count not in (1, 2):
            raise ContractError("stack_count must be 1 or 2")

    @property
    def encoder_in_channels(self) -> int:
        return self.view_count if self.variant == "combined" else 1

    @property
    def embedding_width(self) -> int:
        per_stack = self.encoder_channels[-1]
        if self.variant == "separate":
            per_stack *= self.view_count
        return per_stack * self.stack_count

    def to_json(self) -> dict:
        """Every field in declaration order, tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(ModelSpec)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @staticmethod
    def from_json(data: dict) -> "ModelSpec":
        """Inverse of to_json; keys that name no field are skipped, so a
        container that holds a since-deleted field still loads.
        ContractError naming the key for a missing field, and for anything
        else that is not a valid spec."""
        require_type("a model spec", data, dict)
        return ModelSpec(**{f.name: _entry(data, f.name, object) for f in fields(ModelSpec)})


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        lr = self.learning_rate
        if not (is_real(lr) and lr > 0):
            raise ContractError(f"learning_rate must be finite and positive, got {lr!r}")
        require_integer("epochs", self.epochs, 1)
        require_integer("batch_size", self.batch_size, 1)
        require_integer("seed", self.seed)


# The encoder runs every conv block on one group of whole samples at a
# time: as many samples as fit in this many bytes of one slot's conv0
# output, and never fewer than one.  At 64 px a default `separate` sample's
# five images make 2.5 MiB, so a group is one sample, and a `combined`
# group is four.  A training step runs each group's forward and backward
# back to back, so it holds one group's caches, and since the head needs
# every image of a sample, a group is whole samples.  The budget was swept
# over chunks of images, before the unit became samples, on the 2-vCPU
# Xeon of the ROADMAP baseline with 1 BLAS thread, default `separate` spec
# at 64 px.  A batch-8 training step took 198-208 ms at 1 MiB, 182-189 ms
# at 2 MiB, 180-184 ms at 4 MiB and 188-190 ms with the whole batch in one
# chunk (medians of 25 steps, budgets interleaved in one process).  A
# `separate_train` benchmark round took 0-5 minor page faults (ru_minflt)
# at 1 and 2 MiB, as with the whole batch, but 23.9k at 4 MiB: glibc's
# dynamic mmap and trim thresholds hand chunk arrays of that size back to
# the kernel on every free, and with both thresholds pinned for the process
# the faults were gone.  2 MiB is the fastest budget that does not fault,
# and with one-sample groups of 2.5 MiB a round took 0 faults.
ENCODER_CHUNK_BYTES = 2 * 2**20


class Model:
    """One shared encoder + regression head predicting per-solver performance.

    The encoder runs conv blocks (conv-maxpool-relu), then global average
    pooling; max pooling and ReLU commute, outputs and gradients included,
    so pooling first gives the same model and runs the ReLU on a quarter of
    the values.  _encode runs it over one group of samples (see
    ENCODER_CHUNK_BYTES), one slot's images at a time, read in place from
    the caller's stack, and returns the group's head-input rows.  A group's
    backward pass runs the head backward, then the encoder slot by slot,
    and the weight gradients add up the groups' sums.  The embedding width
    is independent of the input resolution, so one head serves every
    probe/input resolution.  The head runs dense-relu layers, then a linear
    output layer."""

    def __init__(self, spec: ModelSpec, seed: int):
        require_type("spec", spec, ModelSpec)
        self.spec = spec
        rng = seeded_rng("seed", seed, 0xC0DE)
        channels = (spec.encoder_in_channels, *spec.encoder_channels)
        self.convs = [_he_params(rng, f"encoder.conv{i}", (o, c, 3, 3), c * 9)
                      for i, (c, o) in enumerate(zip(channels, channels[1:]))]
        widths = (spec.embedding_width + 1, *spec.head_widths)  # +1 for the dimension feature
        self.denses = [_he_params(rng, f"head.dense{i}", (o, c), c) for i, (c, o) in enumerate(zip(widths, widths[1:]))]
        self.denses.append(_he_params(rng, "head.out", (spec.output_count, widths[-1]), widths[-1]))

    def _require_layout(self, stacks):
        """ContractError naming both layouts unless stacks, a list of
        (n, k, r, r) arrays, holds spec.stack_count arrays of
        spec.view_count views each."""
        spec = self.spec
        if len(stacks) != spec.stack_count or stacks[0].shape[1] != spec.view_count:
            got = f"{len(stacks)} of shape {stacks[0].shape}" if stacks else "none"
            raise ContractError(f"model expects {spec.stack_count} stack(s) of shape (n, {spec.view_count}, r, r), "
                                f"got {got}")

    def params(self) -> list[Param]:
        return [p for pair in self.convs + self.denses for p in pair]

    def _groups(self, n: int, r: int) -> list[slice]:
        """The encoder's sample groups of a batch of n samples at r px:
        consecutive slices of as many samples as fit ENCODER_CHUNK_BYTES of
        one slot's conv0 output, and never fewer than one."""
        spec = self.spec
        images = spec.view_count if spec.variant == "separate" else 1
        # one image's conv0 output is r * r * C0 float64 values
        step = max(1, ENCODER_CHUNK_BYTES // (8 * r * r * spec.encoder_channels[0] * images))
        return [slice(start, start + step) for start in range(0, n, step)]

    def embed(self, stacks, dims) -> np.ndarray:
        """The (N, spec.embedding_width + 1) head-input rows of stacks and
        dims, the raw problem dimension of each sample in a 1-D array: each
        sample's embeddings, then its dims * DIMENSION_SCALE.

        stacks holds stack_count view-first arrays of one shape (N, k, r, r),
        one per slot, in a list or tuple.  Each sample gives channel-last
        images, one k-channel image per slot ("combined") or one 1-channel
        image per view ("separate"); the encoder reads them in place, one
        group of samples and one slot at a time.  The embeddings are in slot
        order and then view order, so two slots of k views embed exactly as
        one slot of 2k views.  No layer keeps a backward cache.

        A pass is flat in batch size for C-contiguous float64 stacks, as
        train, np.stack and row slices give.  Another dtype is copied once,
        whole, and a "separate" stack whose sample and view axes cannot
        merge (x[:, :5] of 7 views) once per group; either embeds the bits
        of its copy.
        """
        stacks, dims = _samples(stacks, dims)
        self._require_layout(stacks)
        inputs = np.empty((len(dims), self.spec.embedding_width + 1))
        for rows in self._groups(len(dims), stacks[0].shape[2]):
            inputs[rows] = self._encode(stacks, dims, rows, need_cache=False)[0]
        return inputs

    def forward_batch(self, stacks, dims):
        """Predict (N, output_count): the head, run once over the whole
        batch's embed(stacks, dims) rows; returns (predictions, None)."""
        return self._head(self.embed(stacks, dims), need_cache=False)

    def _encode(self, stacks, dims, rows, *, need_cache: bool):
        """The head-input rows of the sample group rows of a checked batch:
        each slot's embeddings in slot order and then view order, then
        dims[rows] * DIMENSION_SCALE.  With need_cache, also each slot's
        encoder caches for backward_batch; None without."""
        embeddings, caches = [], []
        for x in stacks:
            # the group's channel-last images, a view of the stack: one per view or one per sample
            x = x[rows]
            x = x.reshape(-1, *x.shape[2:], 1) if self.spec.variant == "separate" else x.transpose(0, 2, 3, 1)
            blocks = []
            for w, b in self.convs:
                x, conv = conv2d_forward(x, w.value, b.value, need_cache=need_cache)
                x, pool = maxpool2x2_forward(x, need_cache=need_cache)
                x, relu = relu_forward(x, need_cache=need_cache)
                blocks.append((conv, pool, relu))
            x, gap = global_avg_pool_forward(x, need_cache=need_cache)
            embeddings.append(x.reshape(-1, self.spec.embedding_width // len(stacks)))
            caches.append((blocks, gap))
        x = np.concatenate([*embeddings, dims[rows, None] * DIMENSION_SCALE], axis=1)
        return x, caches if need_cache else None

    def _head(self, x, *, need_cache: bool):
        """The head's dense-relu layers and linear output layer over the head
        inputs x; (predictions, caches for _head_backward), the caches None
        without need_cache."""
        hidden = []
        for w, b in self.denses[:-1]:
            x, dense = dense_forward(x, w.value, b.value, need_cache=need_cache)
            x, relu = relu_forward(x, need_cache=need_cache)
            hidden.append((dense, relu))
        w, b = self.denses[-1]
        y, out = dense_forward(x, w.value, b.value, need_cache=need_cache)
        return y, (hidden, out) if need_cache else None

    def _head_backward(self, g, cache):
        """Add the head's parameter gradients for the prediction gradient g;
        return the gradient w.r.t. the head inputs."""
        hidden, out = cache
        g = _add_grads(self.denses[-1], *dense_backward(g, out))
        for params, (dense, relu) in zip(reversed(self.denses[:-1]), reversed(hidden)):
            g = relu_backward(g, relu)
            g = _add_grads(params, *dense_backward(g, dense))
        return g

    def backward_batch(self, gpred, cache):
        """Accumulate one sample group's parameter gradients; augments .grad
        on every Param.  cache is (encoder caches, head caches): what
        _encode and then _head returned with need_cache=True.  The head runs
        backward, then the encoder once per slot.  One statement per step
        frees each gradient once the next has read it."""
        require_type("gpred", gpred, np.ndarray)
        require_type("cache", cache, tuple)
        encoder, head = cache
        g = self._head_backward(gpred, head)
        # the last column, the dimension feature, carries no parameters; the
        # rest is one column block per slot
        for (blocks, gap), x in zip(encoder, np.split(g[:, :-1], len(encoder), axis=1)):
            x = global_avg_pool_backward(x.reshape(-1, self.spec.encoder_channels[-1]), gap)
            for i in reversed(range(len(self.convs))):
                conv, pool, relu = blocks[i]
                x = relu_backward(x, relu)
                x = maxpool2x2_backward(x, pool)
                # the first layer's input is the data: its gradient is never used
                x = _add_grads(self.convs[i], *conv2d_backward(x, conv, need_dx=i > 0))

    def loss_and_grads(self, stacks, dims, targets):
        """Mean squared error of one batch; the gradients land in .grad.
        targets must be finite numbers of shape (n, output_count), or
        ContractError before any pass runs; an empty batch is refused by
        mse_loss with every gradient zero.

        Each group of samples (see ENCODER_CHUNK_BYTES) runs its encoder,
        head and backward pass back to back, so a step holds one group's
        caches however large the batch.  A group's prediction gradient is
        scaled by the whole batch's size, so the encoder's gradients add up
        to the batch's.  The head then runs once more, forward and backward,
        over the whole batch's head inputs: that pass replaces the head
        gradients the groups added, and gives the loss and the head's
        gradients the bits of one whole-batch pass."""
        targets = finite_array(targets, "training targets")
        for p in self.params():
            p.grad[...] = 0.0
        stacks, dims = _samples(stacks, dims)
        self._require_layout(stacks)
        n, m = len(dims), self.spec.output_count
        if targets.shape != (n, m):
            raise ContractError(f"targets of shape {targets.shape} for {n} sample(s) of {m} output(s); want ({n}, {m})")
        inputs = np.empty((n, self.spec.embedding_width + 1))
        for rows in self._groups(n, stacks[0].shape[2]):
            x, encoder = self._encode(stacks, dims, rows, need_cache=True)
            inputs[rows] = x
            pred, head = self._head(x, need_cache=True)
            self.backward_batch(_mse_gradient(pred - targets[rows], targets.size), (encoder, head))
            del encoder  # the group's caches go before the next group's encoder pass
        for w, b in self.denses:
            w.grad[...] = b.grad[...] = 0.0
        pred, head = self._head(inputs, need_cache=True)
        loss, gpred = mse_loss(pred, targets)
        self._head_backward(gpred, head)
        return loss


# ---------------------------------------------------------------------------
# Optimizer and the training loop


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = ADAM_BETAS
        correction = np.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for p, m, v in zip(self.params, self.m, self.v):
            m += (1.0 - b1) * (p.grad - m)
            v += (1.0 - b2) * (p.grad * p.grad - v)
            p.value -= self.lr * correction * m / (np.sqrt(v) + ADAM_EPS)


def transform_targets(kind: str, values: np.ndarray) -> np.ndarray:
    """Map raw metric values into the model's regression space."""
    values = float_array(values, "target values")
    if kind == "log10_relert":
        if not np.all((values > 0) & (values < np.inf)):
            raise DataError("relERT values must be positive and finite")
        return np.log10(values)
    if kind == "relhv_clip":
        if np.any(np.isnan(values)):
            raise DataError("relHV values must not be NaN")
        return np.clip(values, -2.0, 2.0)
    raise ContractError(f"unknown target transform {kind!r}")


def _samples(stacks, dims):
    """stacks as a list of finite float64 (n, k, r, r) arrays of one shape,
    and dims as a finite float64 (n,) array of problem dimensions;
    ContractError for a wrong container, rank, shape or length, DataError
    for values that are not finite numbers."""
    require_type("stacks", stacks, (list, tuple))
    dims = finite_array(dims, "problem dimensions")
    if dims.ndim != 1:
        raise ContractError(f"problem dimensions must be a 1-D array, one per sample, got shape {dims.shape}")
    stacks = [finite_array(x, "a stack") for x in stacks]
    for x in stacks:
        if x.ndim != 4 or not 0 < x.shape[2] == x.shape[3]:
            raise ContractError(f"expected stacks of shape (n, k, r, r) with r >= 1, got {x.shape}")
        if len(x) != len(dims):
            raise ContractError(f"{len(dims)} dims for a stack of {len(x)} sample(s); give one dimension per sample")
        if x.shape != stacks[0].shape:
            raise ContractError(f"paired stacks must share a shape, got {stacks[0].shape} and {x.shape}")
    return stacks, dims


@dataclass
class Dataset:
    """Training samples: one or two stack arrays, dimensions, target vectors,
    each held as a float64 array (float64 input is kept, not copied).  Stacks
    and dims are checked as Model.forward_batch checks a batch."""

    stacks: list  # stack_count arrays of shape (n, k, r, r)
    dims: np.ndarray  # (n,)
    targets: np.ndarray  # (n, m)
    tags: list = field(default_factory=list)  # opaque per-sample identifiers

    def __post_init__(self):
        self.stacks, self.dims = _samples(self.stacks, self.dims)
        require_type("tags", self.tags, (list, tuple))
        self.targets = float_array(self.targets, "training targets")
        if self.targets.ndim != 2 or len(self.targets) != len(self.dims):
            raise ContractError(f"{len(self.dims)} dims but targets of shape {self.targets.shape}, want (n, m)")
        if self.tags and len(self.tags) != len(self.dims):
            raise ContractError(f"{len(self.dims)} dims but {len(self.tags)} tags")

    def __len__(self):
        return len(self.dims)

    def subset(self, indices) -> "Dataset":
        """The samples at indices, a 1-D sequence of integers in [0, len(self)),
        in that order; ContractError naming the first index that is not."""
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.intp)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ContractError(f"subset indices must be a 1-D sequence of integers, got {indices!r}")
        outside = idx[(idx < 0) | (idx >= len(self))]
        if outside.size:
            raise ContractError(f"sample index {outside[0]} is out of range for {len(self)} samples")
        return Dataset(
            stacks=[s[idx] for s in self.stacks],
            dims=self.dims[idx],
            targets=self.targets[idx],
            tags=[self.tags[i] for i in idx] if self.tags else [],
        )


def train(model: Model, dataset: Dataset, config: TrainConfig):
    """Train in place; returns the per-epoch mean loss curve.

    Every epoch draws a new batch order and a new view order per sample,
    shared by the sample's slots.  That randomness flows from config.seed
    only, so runs are reproducible bit for bit at a fixed BLAS
    thread count; other thread counts may sum matrix products in another
    order and so differ in the last digits.  The dataset is checked again
    as Dataset checks it, since its fields may have been reassigned, and one
    whose slot or view count differs from model.spec is refused before the
    first epoch.
    """
    require_type("model", model, Model)
    require_type("dataset", dataset, Dataset)
    require_type("config", config, TrainConfig)
    dataset = Dataset(dataset.stacks, dataset.dims, dataset.targets, dataset.tags)
    n = len(dataset)
    if n == 0:
        raise ContractError("empty training dataset")
    model._require_layout(dataset.stacks)
    finite_array(dataset.targets, "training targets")
    rng = seeded_rng("seed", config.seed, 0x7EA1)
    opt = Adam(model.params(), config.learning_rate)
    k = model.spec.view_count
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        views = np.argsort(rng.random((n, k)), axis=1)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            # one view order per sample for every slot keeps paired windows
            # aligned
            stacks = [s[batch[:, None], views[batch]] for s in dataset.stacks]
            loss = model.loss_and_grads(stacks, dataset.dims[batch], dataset.targets[batch])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            opt.step()
            epoch_loss += loss * len(batch)
        losses.append(epoch_loss / n)
    return losses


# ---------------------------------------------------------------------------
# Model persistence


def save_model(model: Model, path) -> None:
    """JSON container with the spec and base64 float64 parameter payloads;
    round-trips bit-exactly."""
    require_type("model", model, Model)
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "spec": model.spec.to_json(),
        "params": [
            {
                "name": p.name,
                "shape": list(p.value.shape),
                "data": base64.b64encode(np.ascontiguousarray(p.value, dtype="<f8").tobytes()).decode("ascii"),
            }
            for p in model.params()
        ],
    }
    with opened(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> Model:
    """The model save_model wrote to path, bit-exactly; DataError naming the
    path for parameters that do not fit, ParseError for a malformed container."""
    with opened(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        form, version = _entry(payload, "format", str), _entry(payload, "version", int)
        if form != MODEL_FORMAT or type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ParseError(f"{path}: unknown model format")
        model = Model(ModelSpec.from_json(_entry(payload, "spec", dict)), seed=0)
        stored = _entry(payload, "params", list)
        if len(stored) != len(model.params()):
            raise DataError(f"{path}: parameter count mismatch")
        for p, entry in zip(model.params(), stored):
            name, shape = _entry(entry, "name", str), _entry(entry, "shape", list)
            if name != p.name or tuple(shape) != p.value.shape:
                raise DataError(f"{path}: parameter {name} does not fit the spec")
            try:
                arr = np.frombuffer(base64.b64decode(_entry(entry, "data", str), validate=True), dtype="<f8")
            except ValueError as exc:
                raise ParseError(f"{path}: parameter {name} payload is not base64 float64: {exc}") from exc
            if arr.size != p.value.size:
                raise DataError(f"{path}: parameter {name} has wrong payload size")
            p.value[...] = finite_array(arr, f"{path}: parameter {name}").reshape(p.value.shape)
    except (json.JSONDecodeError, ContractError) as exc:
        raise ParseError(f"{path}: not a valid model container: {exc}") from exc
    return model
