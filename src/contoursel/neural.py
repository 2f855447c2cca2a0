"""Framework-free CNN regressor over contour stacks.

All tensors are float64 numpy arrays.  Models consume view-first stacks of
shape (views, r, r); inside the spatial layers a channel-last layout is
used.  The fixed 3x3 / stride 1 / zero pad 1 convolution lowers each chunk
of samples to a patch matrix (im2col: one row of 9*C taps per output
pixel) and multiplies it by the (9*C, O) kernel matrix, so the work is a
few large matrix products.  The chunks keep each patch matrix within
PATCH_MATRIX_BYTES, so lowering never holds a nine-fold copy of a whole
batch.  That keeps full-precision CPU training fast enough for the
experiment harness without any framework dependency.

Two model variants exist: "combined" consumes the five views of a stack as
input channels, "separate" pushes each view through a shared encoder and
concatenates the per-view embeddings.  A bi-objective model simply encodes
two stacks and concatenates their embeddings before the regression head.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError, DataError, ParseError, TrainingError, is_integer, require_integer

MODEL_FORMAT = "contoursel.model"
MODEL_FORMAT_VERSION = 1
DIMENSION_SCALE = 0.1  # dimension feature is fed to the head as d/10


# ---------------------------------------------------------------------------
# Layer primitives (functional: forward returns a cache consumed by backward).
#
# Spatial tensors use channel-last (N, H, W, C) layout internally: a patch
# matrix row is then nine runs of C contiguous values, and every reshape
# around the matrix products is free.  Convolution weights keep the
# conventional (C_out, C_in, 3, 3) shape at the API surface.


# Each chunk of samples gets its own patch matrix of at most this many bytes.
# Lowering a whole batch at once would hold a nine-fold copy of a layer's
# input next to the activations, and raise the peak memory of training.
PATCH_MATRIX_BYTES = 8 * 2**20


def _pad(x: np.ndarray) -> np.ndarray:
    return np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))


def _kernel_matrix(w: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> contiguous (9*C, O), rows ordered tap row, tap column,
    channel like the columns of the patch matrix."""
    o, c = w.shape[:2]
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(9 * c, o)


def _chunks(xp: np.ndarray):
    """Sample slices of a padded input whose patch matrices stay within
    PATCH_MATRIX_BYTES."""
    n, hp, wp, c = xp.shape
    step = max(1, PATCH_MATRIX_BYTES // ((hp - 2) * (wp - 2) * 9 * c * xp.itemsize))
    return [slice(s, s + step) for s in range(0, n, step)]


def _patch_matrix(xp: np.ndarray) -> np.ndarray:
    """Padded (n, H+2, W+2, C) -> (n*H*W, 9*C): one row per output pixel."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * xp.shape[3])


def _correlate(xp: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """(n, H, W, O) = patch_matrix(xp) @ wmat, one matrix product per chunk."""
    n, hp, wp, _ = xp.shape
    o = wmat.shape[1]
    y = np.empty((n, hp - 2, wp - 2, o))
    for chunk in _chunks(xp):
        np.matmul(_patch_matrix(xp[chunk]), wmat, out=y[chunk].reshape(-1, o))
    return y


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """3x3 / stride 1 / zero-pad 1 convolution; x (N,H,W,C), w (O,C,3,3).

    The input is padded once; each chunk of samples is lowered to its patch
    matrix (im2col) and multiplied by the (9*C, O) kernel matrix straight
    into the output.  The cache keeps the padded input, not the patches.
    """
    if x.shape[3] != w.shape[1]:
        raise ContractError(f"channel mismatch: input {x.shape[3]}, weights {w.shape[1]}")
    xp = _pad(x)
    y = _correlate(xp, _kernel_matrix(w))
    y += b
    return y, (xp, x.shape, w)


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
    dwmat = np.zeros((o, 9 * xshape[3]))
    for chunk in _chunks(xp):
        dwmat += g[chunk].reshape(-1, o).T @ _patch_matrix(xp[chunk])
    dw = dwmat.reshape(o, 3, 3, xshape[3]).transpose(0, 3, 1, 2)
    db = g.reshape(-1, o).sum(axis=0)
    dx = _correlate(_pad(g), _kernel_matrix(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))) if need_dx else None
    return dx, dw, db


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(g, mask):
    return g * mask


def maxpool2x2_forward(x):
    """2x2 max pooling with stride 2; odd trailing rows/columns are dropped."""
    n, h, w, c = x.shape
    oh, ow = h // 2, w // 2
    if oh < 1 or ow < 1:
        raise ContractError(f"spatial size {h}x{w} too small to pool")
    xc = x[:, : 2 * oh, : 2 * ow, :]
    quads = (xc[:, 0::2, 0::2], xc[:, 0::2, 1::2], xc[:, 1::2, 0::2], xc[:, 1::2, 1::2])
    y = np.maximum(np.maximum(quads[0], quads[1]), np.maximum(quads[2], quads[3]))
    return y, (x.shape, quads, y)


def maxpool2x2_backward(g, cache):
    xshape, quads, y = cache
    n, h, w, c = xshape
    oh, ow = h // 2, w // 2
    dx = np.zeros(xshape)
    slots = (
        dx[:, 0 : 2 * oh : 2, 0 : 2 * ow : 2],
        dx[:, 0 : 2 * oh : 2, 1 : 2 * ow : 2],
        dx[:, 1 : 2 * oh : 2, 0 : 2 * ow : 2],
        dx[:, 1 : 2 * oh : 2, 1 : 2 * ow : 2],
    )
    # ties route to the first maximal quadrant so the subgradient is unique
    taken = np.zeros(y.shape, dtype=bool)
    for quad, slot in zip(quads, slots):
        hit = (quad == y) & ~taken
        slot[...] = g * hit
        taken |= hit
    return dx


def global_avg_pool_forward(x):
    n, h, w, c = x.shape
    return x.mean(axis=(1, 2)), (x.shape,)


def global_avg_pool_backward(g, cache):
    (xshape,) = cache
    n, h, w, c = xshape
    return np.broadcast_to(g[:, None, None, :], xshape) / (h * w)


def dense_forward(x, w, b):
    """y = x W^T + b with w of shape (out, in)."""
    if x.shape[1] != w.shape[1]:
        raise ContractError(f"dense input width {x.shape[1]} != weight width {w.shape[1]}")
    return x @ w.T + b, (x, w)


def dense_backward(g, cache):
    x, w = cache
    return g @ w, g.T @ x, g.sum(axis=0)


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise ContractError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


# ---------------------------------------------------------------------------
# Parameters and layers.  A Layer binds its primitive pair when the model is
# built, so the benchmark tracer, which replaces the primitives by name for
# the span of a traced round, times the layers of models built inside that
# round only.


class Param:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)


class Layer:
    """forward(x, *param values) -> (y, cache); backward(g, cache) -> dx,
    or (dx, *param grads) when the layer owns params."""

    def __init__(self, forward, backward, params=()):
        self._forward = forward
        self._backward = backward
        self.params = list(params)

    def forward(self, x):
        return self._forward(x, *(p.value for p in self.params))

    def backward(self, g, cache):
        """Add the weight gradients into the params; return dx."""
        if not self.params:
            return self._backward(g, cache)
        dx, *grads = self._backward(g, cache)
        for p, d in zip(self.params, grads):
            p.grad += d
        return dx


class Sequential:
    """A chain of layers: the encoder, a residual branch, the head."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.params = [p for layer in self.layers for p in layer.params]

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, g, caches):
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            g = layer.backward(g, cache)
        return g


class Residual(Sequential):
    """relu(branch(x) + x)."""

    def forward(self, x):
        h, caches = super().forward(x)
        y, mask = relu_forward(h + x)
        return y, (caches, mask)

    def backward(self, g, cache):
        caches, mask = cache
        g_sum = relu_backward(g, mask)
        return super().backward(g_sum, caches) + g_sum


def _he_conv(rng, name, out_ch, in_ch, need_dx=True):
    w = Param(name + ".w", rng.normal(0.0, np.sqrt(2.0 / (in_ch * 9)), (out_ch, in_ch, 3, 3)))
    b = Param(name + ".b", rng.uniform(-0.05, 0.05, out_ch))
    return Layer(conv2d_forward, functools.partial(conv2d_backward, need_dx=need_dx), (w, b))


def _he_dense(rng, name, out_n, in_n):
    w = Param(name + ".w", rng.normal(0.0, np.sqrt(2.0 / in_n), (out_n, in_n)))
    b = Param(name + ".b", rng.uniform(-0.05, 0.05, out_n))
    return Layer(dense_forward, dense_backward, (w, b))


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; shapes derive from it deterministically."""

    variant: str  # "combined" or "separate"
    input_resolution: int
    output_count: int
    view_count: int = 5
    stack_count: int = 1  # 2 for bi-objective models
    encoder_channels: tuple = (16, 32, 64)
    residual_blocks: int = 0
    head_widths: tuple = (128,)
    target_transform: str = "log10_relert"

    def __post_init__(self):
        for name, minimum in (("input_resolution", 1), ("output_count", 1), ("view_count", 1),
                              ("stack_count", 1), ("residual_blocks", 0)):
            value = getattr(self, name)
            require_integer(name, value, minimum)
            object.__setattr__(self, name, int(value))
        for name in ("encoder_channels", "head_widths"):
            widths = getattr(self, name)
            if not isinstance(widths, (tuple, list)) or not all(is_integer(v, 1) for v in widths):
                raise ContractError(f"{name} must be a sequence of integers >= 1, got {widths!r}")
            object.__setattr__(self, name, tuple(int(v) for v in widths))
        if self.variant not in ("combined", "separate"):
            raise ContractError(f"unknown variant {self.variant!r}")
        if self.target_transform not in ("log10_relert", "relhv_clip"):
            raise ContractError(f"unknown target transform {self.target_transform!r}")
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
        """Inverse of to_json; KeyError for a missing key, ContractError for
        anything else that is not a valid spec."""
        if not isinstance(data, dict):
            raise ContractError(f"a model spec is a JSON object, not {type(data).__name__}")
        return ModelSpec(**{f.name: data[f.name] for f in fields(ModelSpec)})


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 8
    seed: int = 0
    augment: bool = True  # per-sample view-order shuffling each epoch

    def __post_init__(self):
        lr = self.learning_rate
        if not (isinstance(lr, numbers.Real) and 0 < lr < math.inf):
            raise ContractError(f"learning_rate must be finite and positive, got {lr!r}")
        require_integer("epochs", self.epochs, 1)
        require_integer("batch_size", self.batch_size, 1)
        if not is_integer(self.seed):
            raise ContractError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.augment, bool):
            raise ContractError(f"augment must be a bool, got {self.augment!r}")


def _encoder(spec: ModelSpec, rng) -> Sequential:
    """Conv blocks (conv-maxpool-relu) plus optional residual blocks, then
    global average pooling.  Output width is independent of the input
    resolution, so one head serves every probe/input resolution.

    Max pooling and ReLU commute, outputs and gradients included, so
    pooling first gives the same model and runs the ReLU on a quarter of
    the values."""
    layers = []
    in_ch = spec.encoder_in_channels
    for i, out_ch in enumerate(spec.encoder_channels):
        # the first layer's input is the data: its gradient is never used
        layers += [_he_conv(rng, f"encoder.conv{i}", out_ch, in_ch, need_dx=i > 0),
                   Layer(maxpool2x2_forward, maxpool2x2_backward),
                   Layer(relu_forward, relu_backward)]
        in_ch = out_ch
    for i in range(spec.residual_blocks):
        conv_a, conv_b = (_he_conv(rng, f"encoder.res{i}{ab}", in_ch, in_ch) for ab in "ab")
        layers.append(Residual([conv_a, Layer(relu_forward, relu_backward), conv_b]))
    layers.append(Layer(global_avg_pool_forward, global_avg_pool_backward))
    return Sequential(layers)


def _head(spec: ModelSpec, rng) -> Sequential:
    """Dense-relu layers, then a linear output layer."""
    layers = []
    in_n = spec.embedding_width + 1  # +1 for the dimension feature
    for i, width in enumerate(spec.head_widths):
        layers += [_he_dense(rng, f"head.dense{i}", width, in_n), Layer(relu_forward, relu_backward)]
        in_n = width
    layers.append(_he_dense(rng, "head.out", spec.output_count, in_n))
    return Sequential(layers)


class Model:
    """Encoder(s) + regression head predicting per-solver performance."""

    def __init__(self, spec: ModelSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0xC0DE]))
        self.encoder = _encoder(spec, rng)
        self.head = _head(spec, rng)

    def params(self) -> list[Param]:
        return self.encoder.params + self.head.params

    def zero_grads(self):
        for p in self.params():
            p.grad[...] = 0.0

    def _encode(self, stacks, n):
        """Embed each stack; returns (z (N, embedding_width), caches).

        Stacks arrive view-first (n, k, r, r); spatial layers run
        channel-last internally.
        """
        zs = []
        caches = []
        for x in stacks:
            x = np.asarray(x, dtype=float)
            if x.ndim != 4 or x.shape[1] != self.spec.view_count:
                raise ContractError(
                    f"expected stacks of shape (n, {self.spec.view_count}, r, r), got {x.shape}"
                )
            if x.shape[0] != n:
                raise ContractError(f"stack holds {x.shape[0]} sample(s) but {n} dimension(s) were given")
            if not np.all(np.isfinite(x)):
                raise DataError("stacks must be finite")
            if self.spec.variant == "separate":
                flat = x.reshape(n * self.spec.view_count, *x.shape[2:])[..., None]
                z, cache = self.encoder.forward(flat)
                z = z.reshape(n, self.spec.view_count * z.shape[1])
            else:
                z, cache = self.encoder.forward(np.ascontiguousarray(x.transpose(0, 2, 3, 1)))
            zs.append(z)
            caches.append(cache)
        return np.concatenate(zs, axis=1), caches

    def forward_batch(self, stacks, dims):
        """Predict (N, output_count) from stacks ((N, k, r, r) per slot) and
        the raw problem dimension per sample."""
        if len(stacks) != self.spec.stack_count:
            raise ContractError(
                f"model expects {self.spec.stack_count} stack(s), got {len(stacks)}"
            )
        dims = np.asarray(dims, dtype=float).reshape(-1, 1)
        if not np.all(np.isfinite(dims)):
            raise DataError("problem dimensions must be finite")
        z, enc_caches = self._encode(stacks, len(dims))
        h, head_caches = self.head.forward(np.concatenate([z, dims * DIMENSION_SCALE], axis=1))
        return h, (enc_caches, head_caches, z.shape[1])

    def backward_batch(self, gpred, cache):
        """Accumulate parameter gradients; augments .grad on every Param."""
        enc_caches, head_caches, z_width = cache
        g = self.head.backward(gpred, head_caches)
        gz = g[:, :z_width]  # dimension feature carries no parameters
        for g_stack, enc_cache in zip(np.split(gz, self.spec.stack_count, axis=1), enc_caches):
            if self.spec.variant == "separate":
                g_stack = g_stack.reshape(len(g_stack) * self.spec.view_count, -1)
            self.encoder.backward(g_stack, enc_cache)

    def predict(self, stacks, dim) -> np.ndarray:
        """Single-sample convenience wrapper: stacks are (k, r, r) arrays."""
        batched = [np.asarray(s)[None, ...] for s in stacks]
        pred, _ = self.forward_batch(batched, np.array([dim]))
        return pred[0]

    def loss_and_grads(self, stacks, dims, targets):
        self.zero_grads()
        pred, cache = self.forward_batch(stacks, dims)
        loss, gpred = mse_loss(pred, targets)
        self.backward_batch(gpred, cache)
        return loss


# ---------------------------------------------------------------------------
# Optimizer and the training loop


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correction = np.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for p, m, v in zip(self.params, self.m, self.v):
            m += (1.0 - b1) * (p.grad - m)
            v += (1.0 - b2) * (p.grad * p.grad - v)
            p.value -= self.lr * correction * m / (np.sqrt(v) + self.eps)


def transform_targets(kind: str, values: np.ndarray, clip_max: float | None = None) -> np.ndarray:
    """Map raw metric values into the model's regression space."""
    values = np.asarray(values, dtype=float)
    if kind == "log10_relert":
        if not np.all(values > 0):
            raise DataError("relERT values must be positive")
        out = np.log10(values)
        if clip_max is not None:
            if not (isinstance(clip_max, numbers.Real) and 0 < clip_max < math.inf):
                raise ContractError(f"clip_max must be finite and positive, got {clip_max!r}")
            out = np.minimum(out, np.log10(clip_max))
        return out
    if kind == "relhv_clip":
        if np.any(np.isnan(values)):
            raise DataError("relHV values must not be NaN")
        return np.clip(values, -2.0, 2.0)
    raise ContractError(f"unknown target transform {kind!r}")


@dataclass
class Dataset:
    """Training samples: one or two stack arrays, dimensions, target vectors."""

    stacks: list  # stack_count arrays of shape (n, k, r, r)
    dims: np.ndarray  # (n,)
    targets: np.ndarray  # (n, m)
    tags: list = field(default_factory=list)  # opaque per-sample identifiers

    def __post_init__(self):
        lengths = [len(s) for s in self.stacks] + [len(self.targets)]
        if any(m != len(self.dims) for m in lengths):
            raise ContractError(f"{len(self.dims)} dims but stack and target lengths {lengths}")

    def __len__(self):
        return len(self.dims)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(
            stacks=[s[idx] for s in self.stacks],
            dims=self.dims[idx],
            targets=self.targets[idx],
            tags=[self.tags[i] for i in idx] if self.tags else [],
        )


def train(model: Model, dataset: Dataset, config: TrainConfig):
    """Train in place; returns the per-epoch mean loss curve.

    Randomness (batch order and view-order augmentation) flows from
    config.seed only, so runs are reproducible bit for bit at a fixed BLAS
    thread count; other thread counts may sum matrix products in another
    order and so differ in the last digits.
    """
    n = len(dataset)
    if n == 0:
        raise ContractError("empty training dataset")
    if not np.all(np.isfinite(dataset.targets)):
        raise DataError("training targets must be finite")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & 0xFFFFFFFFFFFFFFFF, 0x7EA1]))
    opt = Adam(model.params(), config.learning_rate)
    k = model.spec.view_count
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        if config.augment:
            perms = np.argsort(rng.random((n, k)), axis=1)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            stacks = [s[batch] for s in dataset.stacks]
            if config.augment:
                # same view permutation across stack slots keeps paired
                # windows aligned
                sel = perms[batch]
                stacks = [s[np.arange(len(batch))[:, None], sel] for s in stacks]
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path, expect_spec: ModelSpec | None = None) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not a valid model container: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != MODEL_FORMAT
        or type(payload.get("version")) is not int
        or payload["version"] != MODEL_FORMAT_VERSION
    ):
        raise ParseError(f"{path}: unknown model format")
    try:
        spec = ModelSpec.from_json(payload["spec"])
        stored = payload["params"]
    except KeyError as exc:
        raise ParseError(f"{path}: model container lacks key {exc}") from exc
    except ContractError as exc:
        raise ParseError(f"{path}: invalid model spec: {exc}") from exc
    if not isinstance(stored, list):
        raise ParseError(f"{path}: params must be a list, not {type(stored).__name__}")
    if expect_spec is not None and spec != expect_spec:
        raise DataError(f"{path}: model spec does not match the expected spec")
    model = Model(spec, seed=0)
    params = model.params()
    if len(stored) != len(params):
        raise DataError(f"{path}: parameter count mismatch")
    for p, entry in zip(params, stored):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: a parameter entry is a {type(entry).__name__}, not an object")
        try:
            name, shape, data = entry["name"], entry["shape"], entry["data"]
        except KeyError as exc:
            raise ParseError(f"{path}: parameter entry lacks key {exc}") from exc
        if not isinstance(shape, list):
            raise ParseError(f"{path}: parameter {name} has shape {shape!r}, not a list")
        if name != p.name or tuple(shape) != p.value.shape:
            raise DataError(f"{path}: parameter {name} does not fit the spec")
        try:
            arr = np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8")
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: parameter {name} payload is not base64 float64: {exc}") from exc
        if arr.size != p.value.size:
            raise DataError(f"{path}: parameter {name} has wrong payload size")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: parameter {name} is not finite")
        p.value[...] = arr.reshape(p.value.shape)
    return model
