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

Two model variants exist: "combined" consumes the views of a stack as the
input channels of one image, "separate" turns each view into a 1-channel
image.  A bi-objective model takes two stacks (slots) of one shape per
sample.  Either way all images of a batch pass through one shared encoder
in a single call, and the embeddings are concatenated in slot order and
then view order before the regression head.
"""

from __future__ import annotations

import base64
import functools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ContractError, DataError, ParseError, TrainingError, finite_array, float_array, is_integer, is_real,
    require_integer, seeded_rng,
)

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


# The quadrant numbers of a 2x2 window, row-major, shaped to broadcast
# against (n, oh, 2, ow, 2, c).
_QUADRANTS = np.arange(4, dtype=np.uint8).reshape(2, 1, 2, 1)


def maxpool2x2_forward(x):
    """2x2 max pooling with stride 2; odd trailing rows/columns are dropped.

    The cache is the input shape and a uint8 code per output value: the
    first maximal quadrant of its window (0-3, row-major), so ties route
    the gradient to one input.  It holds no view of x, so the input is
    freed once it has been pooled."""
    n, h, w, c = x.shape
    oh, ow = h // 2, w // 2
    if oh < 1 or ow < 1:
        raise ContractError(f"spatial size {h}x{w} too small to pool")
    xc = x[:, : 2 * oh, : 2 * ow, :]
    q0, q1, q2, q3 = xc[:, 0::2, 0::2], xc[:, 0::2, 1::2], xc[:, 1::2, 0::2], xc[:, 1::2, 1::2]
    top, bottom = np.maximum(q0, q1), np.maximum(q2, q3)
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
    """A chain of layers: the encoder or the head."""

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
    target_transform: str = "log10_relert"

    def __post_init__(self):
        for name in ("input_resolution", "output_count", "view_count", "stack_count"):
            value = getattr(self, name)
            require_integer(name, value, 1)
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
        if not (is_real(lr) and lr > 0):
            raise ContractError(f"learning_rate must be finite and positive, got {lr!r}")
        require_integer("epochs", self.epochs, 1)
        require_integer("batch_size", self.batch_size, 1)
        require_integer("seed", self.seed)
        if not isinstance(self.augment, bool):
            raise ContractError(f"augment must be a bool, got {self.augment!r}")


def _encoder(spec: ModelSpec, rng) -> Sequential:
    """Conv blocks (conv-maxpool-relu), then global average pooling.  Output
    width is independent of the input resolution, so one head serves every
    probe/input resolution.

    Max pooling and ReLU commute, outputs and gradients included, so
    pooling first gives the same model and runs the ReLU on a quarter of
    the values."""
    layers = []
    in_ch = spec.encoder_in_channels
    for i, out_ch in enumerate(spec.encoder_channels):
        params = _he_params(rng, f"encoder.conv{i}", (out_ch, in_ch, 3, 3), in_ch * 9)
        # the first layer's input is the data: its gradient is never used
        layers += [Layer(conv2d_forward, functools.partial(conv2d_backward, need_dx=i > 0), params),
                   Layer(maxpool2x2_forward, maxpool2x2_backward),
                   Layer(relu_forward, relu_backward)]
        in_ch = out_ch
    layers.append(Layer(global_avg_pool_forward, global_avg_pool_backward))
    return Sequential(layers)


def _head(spec: ModelSpec, rng) -> Sequential:
    """Dense-relu layers, then a linear output layer."""
    layers = []
    in_n = spec.embedding_width + 1  # +1 for the dimension feature
    for i, width in enumerate(spec.head_widths):
        params = _he_params(rng, f"head.dense{i}", (width, in_n), in_n)
        layers += [Layer(dense_forward, dense_backward, params), Layer(relu_forward, relu_backward)]
        in_n = width
    params = _he_params(rng, "head.out", (spec.output_count, in_n), in_n)
    layers.append(Layer(dense_forward, dense_backward, params))
    return Sequential(layers)


class Model:
    """One shared encoder + regression head predicting per-solver performance."""

    def __init__(self, spec: ModelSpec, seed: int):
        self.spec = spec
        rng = seeded_rng("seed", seed, 0xC0DE)
        self.encoder = _encoder(spec, rng)
        self.head = _head(spec, rng)

    def params(self) -> list[Param]:
        return self.encoder.params + self.head.params

    def forward_batch(self, stacks, dims):
        """Predict (N, output_count) from stacks and dims, the raw problem
        dimension of each sample in a 1-D array.

        stacks holds stack_count view-first arrays of one shape (N, k, r, r),
        one per slot, in a list or tuple.  They are copied once
        into channel-last images, one k-channel image per slot ("combined")
        or one 1-channel image per view ("separate"), and the encoder runs
        once over the whole batch.  Its embeddings reach the head in slot
        order and then view order, so two slots of k views embed exactly as
        one slot of 2k views.
        """
        spec = self.spec
        stacks, dims = _samples(stacks, dims)
        if len(stacks) != spec.stack_count:
            raise ContractError(f"model expects {spec.stack_count} stack(s), got {len(stacks)}")
        if stacks[0].shape[1] != spec.view_count:
            raise ContractError(f"expected stacks of shape (n, {spec.view_count}, r, r), got {stacks[0].shape}")
        views = [x[..., None] if spec.variant == "separate" else x.transpose(0, 2, 3, 1) for x in stacks]
        # np.stack makes the one copy; passed as a temporary, it is freed
        # once the first convolution has padded it
        z, enc_cache = self.encoder.forward(np.stack(views, axis=1).reshape(-1, *views[0].shape[-3:]))
        z = z.reshape(len(dims), spec.embedding_width)
        h, head_caches = self.head.forward(np.concatenate([z, dims[:, None] * DIMENSION_SCALE], axis=1))
        return h, (enc_cache, head_caches)

    def backward_batch(self, gpred, cache):
        """Accumulate parameter gradients; augments .grad on every Param."""
        enc_cache, head_caches = cache
        g = self.head.backward(gpred, head_caches)
        # the last column, the dimension feature, carries no parameters
        self.encoder.backward(g[:, :-1].reshape(-1, self.spec.encoder_channels[-1]), enc_cache)

    def loss_and_grads(self, stacks, dims, targets):
        """Mean squared error of one batch; the gradients land in .grad.
        targets must be finite numbers of the predictions' shape,
        (n, output_count), or mse_loss raises ContractError."""
        targets = finite_array(targets, "training targets")
        for p in self.params():
            p.grad[...] = 0.0
        pred, cache = self.forward_batch(stacks, dims)
        loss, gpred = mse_loss(pred, targets)
        self.backward_batch(gpred, cache)
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
    if not isinstance(stacks, (list, tuple)):
        raise ContractError(f"stacks must be a list or tuple of stack arrays, got {type(stacks).__name__}")
    dims = finite_array(dims, "problem dimensions")
    if dims.ndim != 1:
        raise ContractError(f"problem dimensions must be a 1-D array, one per sample, got shape {dims.shape}")
    stacks = [finite_array(x, "a stack") for x in stacks]
    for x in stacks:
        if x.ndim != 4:
            raise ContractError(f"expected stacks of shape (n, k, r, r), got {x.shape}")
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

    Randomness (batch order and view-order augmentation) flows from
    config.seed only, so runs are reproducible bit for bit at a fixed BLAS
    thread count; other thread counts may sum matrix products in another
    order and so differ in the last digits.
    """
    n = len(dataset)
    if n == 0:
        raise ContractError("empty training dataset")
    finite_array(dataset.targets, "training targets")
    rng = seeded_rng("seed", config.seed, 0x7EA1)
    opt = Adam(model.params(), config.learning_rate)
    k = model.spec.view_count
    views = np.broadcast_to(np.arange(k), (n, k))
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        if config.augment:
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


def load_model(path) -> Model:
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
        p.value[...] = finite_array(arr, f"{path}: parameter {name}").reshape(p.value.shape)
    return model
