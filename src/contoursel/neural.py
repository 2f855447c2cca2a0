"""Framework-free CNN regressor over contour stacks.

All tensors are float64 numpy arrays.  Models consume view-first stacks of
shape (views, r, r); inside the spatial layers a channel-last layout is
used so that the fixed 3x3 / stride 1 / zero pad 1 convolutions lower to a
single matrix product over a patch matrix assembled from contiguous
slices.  That keeps full-precision CPU training fast enough for the
experiment harness without any framework dependency.

Two model variants exist: "combined" consumes the five views of a stack as
input channels, "separate" pushes each view through a shared encoder and
concatenates the per-view embeddings.  A bi-objective model simply encodes
two stacks and concatenates their embeddings before the regression head.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, ParseError, TrainingError

MODEL_FORMAT = "contoursel.model"
MODEL_FORMAT_VERSION = 1
DIMENSION_SCALE = 0.1  # dimension feature is fed to the head as d/10


# ---------------------------------------------------------------------------
# Layer primitives (functional: forward returns a cache consumed by backward).
#
# Spatial tensors use channel-last (N, H, W, C) layout internally: the im2col
# matrix then assembles from nine contiguous slice copies and every reshape
# around the matrix products is free.  Convolution weights keep the
# conventional (C_out, C_in, 3, 3) shape at the API surface.


def _kernel_as_taps(w: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> (9, C, O): one input-to-output matrix per kernel tap."""
    o, c = w.shape[:2]
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(9, c, o)


def _tap_offsets(row_stride: int):
    return [u * row_stride + v for u in (-1, 0, 1) for v in (-1, 0, 1)]


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """3x3 / stride 1 / zero-pad 1 convolution; x (N,H,W,C), w (O,C,3,3).

    The padded input is treated as one (rows, C) matrix and the convolution
    becomes nine shifted matrix products: a row shift of +-(W+2)+-1 lands in
    a zero padding ring, never in a neighboring sample's interior, so no
    patch matrix has to be materialized.
    """
    if x.shape[3] != w.shape[1]:
        raise ContractError(f"channel mismatch: input {x.shape[3]}, weights {w.shape[1]}")
    n, h, wd, c = x.shape
    o = w.shape[0]
    rows = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))).reshape(-1, c)
    taps = _kernel_as_taps(w)
    r = rows.shape[0]
    y_full = np.zeros((r, o))
    for tap, off in zip(taps, _tap_offsets(wd + 2)):
        if off >= 0:
            y_full[: r - off] += rows[off:] @ tap
        else:
            y_full[-off:] += rows[:r + off] @ tap
    y = np.ascontiguousarray(y_full.reshape(n, h + 2, wd + 2, o)[:, 1:-1, 1:-1, :])
    y += b
    return y, (rows, x.shape, w)


def conv2d_backward(g: np.ndarray, cache):
    """Gradients w.r.t. input, weights, bias for conv2d_forward."""
    rows, xshape, w = cache
    n, h, wd, c = xshape
    o = w.shape[0]
    r = rows.shape[0]
    g_full = np.zeros((n, h + 2, wd + 2, o))
    g_full[:, 1:-1, 1:-1, :] = g
    gmat = g_full.reshape(r, o)
    taps = _kernel_as_taps(w)
    dtaps = np.empty((9, c, o))
    dx_full = np.zeros((r, c))
    for k, off in enumerate(_tap_offsets(wd + 2)):
        if off >= 0:
            dtaps[k] = rows[off:].T @ gmat[: r - off]
            dx_full[off:] += gmat[: r - off] @ taps[k].T
        else:
            dtaps[k] = rows[:r + off].T @ gmat[-off:]
            dx_full[:r + off] += gmat[-off:] @ taps[k].T
    db = gmat.sum(axis=0)
    dw = dtaps.reshape(3, 3, c, o).transpose(3, 2, 0, 1)
    dx = np.ascontiguousarray(dx_full.reshape(n, h + 2, wd + 2, c)[:, 1:-1, 1:-1, :])
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
# Parameters, encoder, model


class Param:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)


def _he_conv(rng, name, out_ch, in_ch):
    w = Param(name + ".w", rng.normal(0.0, np.sqrt(2.0 / (in_ch * 9)), (out_ch, in_ch, 3, 3)))
    b = Param(name + ".b", rng.uniform(-0.05, 0.05, out_ch))
    return w, b


def _he_dense(rng, name, out_n, in_n):
    w = Param(name + ".w", rng.normal(0.0, np.sqrt(2.0 / in_n), (out_n, in_n)))
    b = Param(name + ".b", rng.uniform(-0.05, 0.05, out_n))
    return w, b


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
        object.__setattr__(self, "encoder_channels", tuple(self.encoder_channels))
        object.__setattr__(self, "head_widths", tuple(self.head_widths))

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
        return {
            "variant": self.variant,
            "input_resolution": self.input_resolution,
            "output_count": self.output_count,
            "view_count": self.view_count,
            "stack_count": self.stack_count,
            "encoder_channels": list(self.encoder_channels),
            "residual_blocks": self.residual_blocks,
            "head_widths": list(self.head_widths),
            "target_transform": self.target_transform,
        }

    @staticmethod
    def from_json(data: dict) -> "ModelSpec":
        return ModelSpec(
            variant=data["variant"],
            input_resolution=int(data["input_resolution"]),
            output_count=int(data["output_count"]),
            view_count=int(data["view_count"]),
            stack_count=int(data["stack_count"]),
            encoder_channels=tuple(data["encoder_channels"]),
            residual_blocks=int(data["residual_blocks"]),
            head_widths=tuple(data["head_widths"]),
            target_transform=data["target_transform"],
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    epochs: int = 200
    batch_size: int = 8
    seed: int = 0
    augment: bool = True  # per-sample view-order shuffling each epoch

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ContractError(f"unknown optimizer {self.optimizer!r}")


class Encoder:
    """Conv blocks (conv-relu-maxpool) plus optional residual blocks, then
    global average pooling.  Output width is independent of the input
    resolution, so one head serves every probe/input resolution."""

    def __init__(self, spec: ModelSpec, rng):
        self.spec = spec
        self.blocks = []
        in_ch = spec.encoder_in_channels
        for i, out_ch in enumerate(spec.encoder_channels):
            self.blocks.append(_he_conv(rng, f"encoder.conv{i}", out_ch, in_ch))
            in_ch = out_ch
        self.res = []
        for i in range(spec.residual_blocks):
            pair_a = _he_conv(rng, f"encoder.res{i}a", in_ch, in_ch)
            pair_b = _he_conv(rng, f"encoder.res{i}b", in_ch, in_ch)
            self.res.append((pair_a, pair_b))

    def params(self):
        out = []
        for w, b in self.blocks:
            out.extend([w, b])
        for (wa, ba), (wb, bb) in self.res:
            out.extend([wa, ba, wb, bb])
        return out

    def forward(self, x):
        caches = []
        for w, b in self.blocks:
            x, c_conv = conv2d_forward(x, w.value, b.value)
            x, c_relu = relu_forward(x)
            x, c_pool = maxpool2x2_forward(x)
            caches.append(("block", c_conv, c_relu, c_pool))
        for (wa, ba), (wb, bb) in self.res:
            skip = x
            h, c1 = conv2d_forward(x, wa.value, ba.value)
            h, c2 = relu_forward(h)
            h, c3 = conv2d_forward(h, wb.value, bb.value)
            x, c4 = relu_forward(h + skip)
            caches.append(("res", c1, c2, c3, c4))
        z, c_gap = global_avg_pool_forward(x)
        caches.append(("gap", c_gap))
        return z, caches

    def backward(self, gz, caches):
        kind, c_gap = caches[-1][0], caches[-1][1]
        assert kind == "gap"
        g = global_avg_pool_backward(gz, c_gap)
        i_res = len(self.res) - 1
        i_block = len(self.blocks) - 1
        for entry in reversed(caches[:-1]):
            if entry[0] == "res":
                _, c1, c2, c3, c4 = entry
                (wa, ba), (wb, bb) = self.res[i_res]
                g_sum = relu_backward(g, c4)
                gh, dwb, dbb = conv2d_backward(g_sum, c3)
                gh = relu_backward(gh, c2)
                gx, dwa, dba = conv2d_backward(gh, c1)
                g = gx + g_sum  # skip connection
                wa.grad += dwa
                ba.grad += dba
                wb.grad += dwb
                bb.grad += dbb
                i_res -= 1
            else:
                _, c_conv, c_relu, c_pool = entry
                w, b = self.blocks[i_block]
                g = maxpool2x2_backward(g, c_pool)
                g = relu_backward(g, c_relu)
                g, dw, db = conv2d_backward(g, c_conv)
                w.grad += dw
                b.grad += db
                i_block -= 1
        return g


class Model:
    """Encoder(s) + regression head predicting per-solver performance."""

    def __init__(self, spec: ModelSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0xC0DE]))
        self.encoder = Encoder(spec, rng)
        self.head = []
        in_n = spec.embedding_width + 1  # +1 for the dimension feature
        for i, width in enumerate(spec.head_widths):
            self.head.append(_he_dense(rng, f"head.dense{i}", width, in_n))
            in_n = width
        self.head.append(_he_dense(rng, "head.out", spec.output_count, in_n))

    def params(self) -> list[Param]:
        out = self.encoder.params()
        for w, b in self.head:
            out.extend([w, b])
        return out

    def zero_grads(self):
        for p in self.params():
            p.grad[...] = 0.0

    def _encode(self, stacks):
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
            n = x.shape[0]
            if self.spec.variant == "separate":
                flat = x.reshape(n * self.spec.view_count, *x.shape[2:])[..., None]
                z, cache = self.encoder.forward(flat)
                z = z.reshape(n, self.spec.view_count * z.shape[1])
            else:
                z, cache = self.encoder.forward(np.ascontiguousarray(x.transpose(0, 2, 3, 1)))
            zs.append(z)
            caches.append((cache, x.shape))
        return np.concatenate(zs, axis=1), caches

    def forward_batch(self, stacks, dims):
        """Predict (N, output_count) from stacks ((N, k, r, r) per slot) and
        the raw problem dimension per sample."""
        if len(stacks) != self.spec.stack_count:
            raise ContractError(
                f"model expects {self.spec.stack_count} stack(s), got {len(stacks)}"
            )
        z, enc_caches = self._encode(stacks)
        dims = np.asarray(dims, dtype=float).reshape(-1, 1)
        h = np.concatenate([z, dims * DIMENSION_SCALE], axis=1)
        head_caches = []
        for i, (w, b) in enumerate(self.head):
            h, c_dense = dense_forward(h, w.value, b.value)
            if i < len(self.head) - 1:
                h, c_relu = relu_forward(h)
            else:
                c_relu = None
            head_caches.append((c_dense, c_relu))
        return h, (enc_caches, head_caches, z.shape[1])

    def backward_batch(self, gpred, cache):
        """Accumulate parameter gradients; augments .grad on every Param."""
        enc_caches, head_caches, z_width = cache
        g = gpred
        for i in reversed(range(len(self.head))):
            w, b = self.head[i]
            c_dense, c_relu = head_caches[i]
            if c_relu is not None:
                g = relu_backward(g, c_relu)
            g, dw, db = dense_backward(g, c_dense)
            w.grad += dw
            b.grad += db
        gz = g[:, :z_width]  # dimension feature carries no parameters
        offset = 0
        per_stack = z_width // self.spec.stack_count
        for cache_i, xshape in enc_caches:
            g_stack = gz[:, offset : offset + per_stack]
            offset += per_stack
            if self.spec.variant == "separate":
                n = xshape[0]
                g_stack = g_stack.reshape(n * self.spec.view_count, -1)
            self.encoder.backward(g_stack, cache_i)

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
# Optimizers and the training loop


class Sgd:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr

    def step(self):
        for p in self.params:
            p.value -= self.lr * p.grad


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
        out = np.log10(values)
        if clip_max is not None:
            out = np.minimum(out, np.log10(clip_max))
        return out
    if kind == "relhv_clip":
        return np.clip(values, -2.0, 2.0)
    raise ContractError(f"unknown target transform {kind!r}")


@dataclass
class Dataset:
    """Training samples: one or two stack arrays, dimensions, target vectors."""

    stacks: list  # stack_count arrays of shape (n, k, r, r)
    dims: np.ndarray  # (n,)
    targets: np.ndarray  # (n, m)
    tags: list = field(default_factory=list)  # opaque per-sample identifiers

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
    params = model.params()
    opt = Adam(params, config.learning_rate) if config.optimizer == "adam" else Sgd(params, config.learning_rate)
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
# Gradient checking


def grad_check(model: Model, stacks, dims, targets, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter element."""
    model.loss_and_grads(stacks, dims, targets)
    analytic = [p.grad.copy() for p in model.params()]

    def loss_only():
        pred, _ = model.forward_batch(stacks, dims)
        return mse_loss(pred, targets)[0]

    worst = 0.0
    for p, ga in zip(model.params(), analytic):
        flat = p.value.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lo_hi = loss_only()
            flat[i] = orig - h
            lo_lo = loss_only()
            flat[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * h)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


def reduced_gradcheck_spec(variant: str, stack_count: int = 1, residual_blocks: int = 0) -> ModelSpec:
    """Down-scaled architecture used for finite-difference verification."""
    return ModelSpec(
        variant=variant,
        input_resolution=8,
        output_count=3,
        view_count=5,
        stack_count=stack_count,
        encoder_channels=(2, 3),
        residual_blocks=residual_blocks,
        head_widths=(4,),
        target_transform="log10_relert",
    )


def run_grad_check(variant: str, seed: int, stack_count: int = 1, residual_blocks: int = 0) -> float:
    """Build a reduced random model plus sample and return the max error."""
    spec = reduced_gradcheck_spec(variant, stack_count, residual_blocks)
    model = Model(spec, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0xFD]))
    stacks = [rng.random((2, spec.view_count, 8, 8)) for _ in range(stack_count)]
    dims = rng.integers(2, 11, size=2).astype(float)
    targets = rng.normal(size=(2, spec.output_count))
    return grad_check(model, stacks, dims, targets)


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
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not a valid model container: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != MODEL_FORMAT
        or payload.get("version") != MODEL_FORMAT_VERSION
    ):
        raise ParseError(f"{path}: unknown model format")
    try:
        spec = ModelSpec.from_json(payload["spec"])
        stored = payload["params"]
    except KeyError as exc:
        raise ParseError(f"{path}: model container lacks key {exc}") from exc
    if expect_spec is not None and spec != expect_spec:
        raise DataError(f"{path}: model spec does not match the expected spec")
    model = Model(spec, seed=0)
    params = model.params()
    if len(stored) != len(params):
        raise DataError(f"{path}: parameter count mismatch")
    for p, entry in zip(params, stored):
        try:
            name, shape, data = entry["name"], entry["shape"], entry["data"]
        except KeyError as exc:
            raise ParseError(f"{path}: parameter entry lacks key {exc}") from exc
        if name != p.name or tuple(shape) != p.value.shape:
            raise DataError(f"{path}: parameter {name} does not fit the spec")
        arr = np.frombuffer(base64.b64decode(data), dtype="<f8")
        if arr.size != p.value.size:
            raise DataError(f"{path}: parameter {name} has wrong payload size")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: parameter {name} is not finite")
        p.value[...] = arr.reshape(p.value.shape)
    return model
