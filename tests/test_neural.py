import base64
import copy
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contoursel
from contoursel import neural
from contoursel.errors import ContourselError, ContractError, DataError, ParseError, TrainingError
from contoursel.neural import (
    Dataset,
    Model,
    ModelSpec,
    TrainConfig,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    global_avg_pool_backward,
    global_avg_pool_forward,
    load_model,
    maxpool2x2_backward,
    maxpool2x2_forward,
    mse_loss,
    relu_backward,
    relu_forward,
    save_model,
    train,
    transform_targets,
)


def conv2d_reference(x, w, b):
    """Direct six-loop convolution (3x3, stride 1, zero pad 1, channel-last)."""
    n, h, wd, c = x.shape
    o = w.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    y = np.zeros((n, h, wd, o))
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(3):
                            for v in range(3):
                                acc += xp[ni, i + u, j + v, ci] * w[oi, ci, u, v]
                    y[ni, i, j, oi] = acc + b[oi]
    return y


class TestConv:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).random((1, 5, 5, 1))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y, _ = conv2d_forward(x, w, np.zeros(1))
        np.testing.assert_allclose(y, x)

    def test_zero_input_gives_bias(self):
        x = np.zeros((2, 4, 4, 3))
        w = np.random.default_rng(1).random((5, 3, 3, 3))
        b = np.arange(5.0)
        y, _ = conv2d_forward(x, w, b)
        for oi in range(5):
            np.testing.assert_allclose(y[..., oi], b[oi])

    def test_against_loop_reference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4, 1))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        y, _ = conv2d_forward(x, w, b)
        np.testing.assert_allclose(y, conv2d_reference(x, w, b), atol=1e-12)

    def test_against_loop_reference_multichannel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 6, 3))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        y, _ = conv2d_forward(x, w, b)
        np.testing.assert_allclose(y, conv2d_reference(x, w, b), atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ContractError):
            conv2d_forward(np.zeros((1, 4, 4, 2)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_backward_input_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 4, 2))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y, cache = conv2d_forward(x, w, b)
        g = rng.normal(size=y.shape)
        dx, dw, db = conv2d_backward(g, cache)
        h = 1e-6
        for idx in [(0, 0, 0, 0), (0, 2, 3, 1), (0, 3, 1, 0)]:
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            fd = (np.sum(conv2d_forward(xp, w, b)[0] * g) - np.sum(conv2d_forward(xm, w, b)[0] * g)) / (2 * h)
            assert dx[idx] == pytest.approx(fd, rel=1e-5)

    def test_backward_weight_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 4, 2))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y, cache = conv2d_forward(x, w, b)
        g = rng.normal(size=y.shape)
        _, dw, db = conv2d_backward(g, cache)
        h = 1e-6
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2), (1, 0, 1, 1)]:
            wp = w.copy()
            wp[idx] += h
            wm = w.copy()
            wm[idx] -= h
            fd = (np.sum(conv2d_forward(x, wp, b)[0] * g) - np.sum(conv2d_forward(x, wm, b)[0] * g)) / (2 * h)
            assert dw[idx] == pytest.approx(fd, rel=1e-5)

    @given(
        n=st.integers(1, 7), h=st.integers(1, 6), wd=st.integers(1, 6), c=st.integers(1, 5),
        o=st.integers(1, 4), per_chunk=st.sampled_from([0.5, 1, 2, 3]), seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_patch_matrix_against_oracles(self, n, h, wd, c, o, per_chunk, seed):
        """Forward against the loop reference; dx by the adjoint identity
        <conv(x), g> = <x, dx>; dw by central differences; with a patch
        budget of per_chunk samples, so most batches span several chunks and
        a remainder, and half a sample still lowers one sample per chunk."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, h, wd, c))
        w = rng.normal(size=(o, c, 3, 3))
        b = rng.normal(size=o)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "PATCH_MATRIX_BYTES", int(per_chunk * h * wd * 9 * c * 8))
            y, cache = conv2d_forward(x, w, b)
            np.testing.assert_allclose(y, conv2d_reference(x, w, b), rtol=1e-12, atol=1e-12)
            bare, none = conv2d_forward(x, w, b, need_cache=False)
            assert none is None and bare.tobytes() == y.tobytes()
            g = rng.normal(size=y.shape)
            dx, dw, db = conv2d_backward(g, cache)
            y0 = y - b
            assert np.sum(y0 * g) == pytest.approx(np.sum(x * dx), rel=1e-12, abs=1e-12 * np.sum(np.abs(y0 * g)))
            # linear in w: a central difference is exact up to rounding at any step
            idx = tuple(int(rng.integers(s)) for s in w.shape)
            wp, wm = w.copy(), w.copy()
            wp[idx] += 1.0
            wm[idx] -= 1.0
            fd = (np.sum(conv2d_forward(x, wp, b)[0] * g) - np.sum(conv2d_forward(x, wm, b)[0] * g)) / 2.0
            assert dw[idx] == pytest.approx(fd, rel=1e-10, abs=1e-10 * np.sum(np.abs(y0 * g)))
            np.testing.assert_allclose(db, g.sum(axis=(0, 1, 2)), rtol=1e-12)
            no_dx = conv2d_backward(g, cache, need_dx=False)
        assert no_dx[0] is None
        np.testing.assert_array_equal(no_dx[1], dw)
        np.testing.assert_array_equal(no_dx[2], db)

    def test_one_patch_buffer_serves_every_chunk(self, monkeypatch):
        """Sixteen one-sample chunks: besides the padded input and the
        output, the forward holds one chunk's patch matrix at a time (9.4
        MB of patches lowered through one 0.59 MB buffer)."""
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(16, 32, 32, 8)), rng.normal(size=(4, 8, 3, 3)), rng.normal(size=4)
        chunk = 32 * 32 * 9 * 8 * 8
        monkeypatch.setattr(neural, "PATCH_MATRIX_BYTES", chunk)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y, (xp, _, _) = conv2d_forward(x, w, b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = xp.nbytes + y.nbytes
        assert held + chunk <= peak <= held + 1.1 * chunk


def maxpool2x2_forward_oracle(x, *, need_cache=True):
    """Reference 2x2 max pool whose cache keeps the four quadrant views of x
    and the output (None with need_cache=False, as for every primitive)."""
    n, h, w, c = x.shape
    oh, ow = h // 2, w // 2
    xc = x[:, : 2 * oh, : 2 * ow, :]
    quads = (xc[:, 0::2, 0::2], xc[:, 0::2, 1::2], xc[:, 1::2, 0::2], xc[:, 1::2, 1::2])
    y = np.maximum(np.maximum(quads[0], quads[1]), np.maximum(quads[2], quads[3]))
    return y, (x.shape, quads, y) if need_cache else None


def maxpool2x2_backward_oracle(g, cache):
    """Four compare-and-scatter passes into zeros; a tie goes to the first
    quadrant equal to the output."""
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
    taken = np.zeros(y.shape, dtype=bool)
    for quad, slot in zip(quads, slots):
        hit = (quad == y) & ~taken
        slot[...] = g * hit
        taken |= hit
    return dx


def signed_levels(rng, shape, levels):
    """Values on a few quantization levels, so windows tie often, with the
    sign of every zero drawn at random."""
    x = rng.integers(-levels, levels + 1, shape) / levels
    return np.where(x == 0.0, rng.choice([0.0, -0.0], shape), x)


def traced_peak(call) -> int:
    """Bytes that call() allocates at its peak, traced from its first allocation."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


class TestMaxPoolAgainstOracle:
    @given(n=st.integers(1, 3), h=st.integers(2, 9), w=st.integers(2, 9), c=st.sampled_from([1, 5, 16, 64]),
           levels=st.sampled_from([1, 2, 15, 0]), seed=st.integers(0, 2**32 - 1))
    def test_output_and_gradient_are_the_oracle_bits(self, n, h, w, c, levels, seed):
        """Quantized inputs (many ties), +-0.0 in x and g, odd H or W, where
        the dropped rows and columns leave dx's pooled part non-contiguous;
        levels 0 draws plain normal floats instead."""
        rng = np.random.default_rng(seed)
        x = signed_levels(rng, (n, h, w, c), levels) if levels else rng.standard_normal((n, h, w, c))
        want_y, want_cache = maxpool2x2_forward_oracle(x)
        y, cache = maxpool2x2_forward(x)
        assert y.dtype == want_y.dtype and y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
        g = signed_levels(rng, y.shape, 2)
        want_dx = maxpool2x2_backward_oracle(g, want_cache)
        dx = maxpool2x2_backward(g, cache)
        assert dx.dtype == want_dx.dtype and dx.shape == x.shape and dx.tobytes() == want_dx.tobytes()

    @given(n=st.integers(1, 3), h=st.integers(2, 9), w=st.integers(2, 9), c=st.sampled_from([1, 5, 16]),
           levels=st.sampled_from([1, 2, 15]), seed=st.integers(0, 2**32 - 1))
    def test_pool_and_relu_without_cache_give_the_cached_bits(self, n, h, w, c, levels, seed):
        """Signed zeros in x, and negative inputs that the ReLU turns into
        -0.0, come out bit for bit as from the cached calls."""
        x = signed_levels(np.random.default_rng(seed), (n, h, w, c), levels)
        for forward in (maxpool2x2_forward, relu_forward):
            y, _ = forward(x)
            bare, none = forward(x, need_cache=False)
            assert none is None and bare.dtype == y.dtype and bare.tobytes() == y.tobytes()

    @pytest.mark.parametrize("shape", [(2, 8, 8, 16), (1, 7, 9, 5), (3, 2, 2, 1)])
    def test_cache_is_the_shape_and_a_code_that_share_no_memory_with_the_input(self, shape):
        x = np.random.default_rng(0).standard_normal(shape)
        y, cache = maxpool2x2_forward(x)
        assert cache[0] == x.shape
        assert all(not np.shares_memory(part, x) for part in cache[1:])
        assert not np.shares_memory(y, x)
        assert cache[1].dtype == np.uint8 and cache[1].shape == y.shape and cache[1].max() <= 3

    @pytest.mark.parametrize("variant", ["combined", "separate"])
    @pytest.mark.parametrize("resolution", [11, 16])
    def test_training_ends_with_the_oracle_pools_parameters(self, monkeypatch, variant, resolution):
        """Two epochs on quantized stacks (flat regions tie in every pool);
        at 11 px both pools see odd sizes."""
        rng = np.random.default_rng(resolution)
        ds = Dataset(stacks=[np.round(rng.random((5, 5, resolution, resolution)) * 3) / 3],
                     dims=rng.integers(2, 11, size=5).astype(float), targets=rng.normal(size=(5, 2)))
        spec = ModelSpec(variant=variant, input_resolution=resolution, output_count=2, encoder_channels=(4, 6),
                         head_widths=(8,))
        config = TrainConfig(epochs=2, batch_size=2, seed=3)
        fitted = Model(spec, seed=1)
        losses = train(fitted, ds, config)
        # the model looks each primitive up at call time, so this fit runs the oracle pools
        monkeypatch.setattr(neural, "maxpool2x2_forward", maxpool2x2_forward_oracle)
        monkeypatch.setattr(neural, "maxpool2x2_backward", maxpool2x2_backward_oracle)
        oracle = Model(spec, seed=1)
        assert train(oracle, ds, config) == losses
        for p, q in zip(fitted.params(), oracle.params()):
            assert p.value.tobytes() == q.value.tobytes(), p.name

    def test_separate_step_peak_memory(self):
        """One default-spec `separate` loss_and_grads step, batch 8, 64 px,
        traced from its first allocation, peaks at 7.2 MiB: it keeps the
        backward caches of one sample's five images at a time.  Keeping
        the caches of all 40 images peaked at 17.4 MiB, and the encoder run
        over the whole batch at once at 41.0 MiB."""
        model = Model(ModelSpec(variant="separate", input_resolution=64, output_count=3), seed=0)
        rng = np.random.default_rng(0)
        stacks, dims, targets = [rng.random((8, 5, 64, 64))], np.full(8, 2.0), rng.random((8, 3))
        assert traced_peak(lambda: model.loss_and_grads(stacks, dims, targets)) <= 8.25 * 2**20

    def test_separate_prediction_peak_memory(self):
        """The same batch through forward_batch peaks at 3.9 MiB, one
        sample's padded images and feature maps; the whole batch at once
        peaks at 30.1 MiB."""
        model = Model(ModelSpec(variant="separate", input_resolution=64, output_count=3), seed=0)
        rng = np.random.default_rng(0)
        stacks, dims = [rng.random((8, 5, 64, 64))], np.full(8, 2.0)
        assert traced_peak(lambda: model.forward_batch(stacks, dims)) <= 4.5 * 2**20


class TestSmallLayers:
    def test_relu(self):
        y, _ = relu_forward(np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(y, [0.0, 2.0])

    def test_maxpool_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        y, _ = maxpool2x2_forward(x)
        assert y.reshape(()) == 4.0

    def test_maxpool_drops_odd_edge(self):
        x = np.arange(25.0).reshape(1, 5, 5, 1)
        y, _ = maxpool2x2_forward(x)
        assert y.shape == (1, 2, 2, 1)
        assert y[0, 1, 1, 0] == 18.0  # max of rows 2:4, cols 2:4

    def test_maxpool_backward_routes_to_max(self):
        x = np.array([[1.0, 4.0], [2.0, 3.0]]).reshape(1, 2, 2, 1)
        y, cache = maxpool2x2_forward(x)
        from contoursel.neural import maxpool2x2_backward

        dx = maxpool2x2_backward(np.ones_like(y), cache)
        np.testing.assert_array_equal(dx.reshape(2, 2), [[0.0, 1.0], [0.0, 0.0]])

    def test_gap(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        y, cache = global_avg_pool_forward(x)
        np.testing.assert_allclose(y, [[3.0, 4.0]])
        dx = global_avg_pool_backward(np.ones((1, 2)), cache)
        np.testing.assert_allclose(dx, 0.25)

    def test_dense_identity(self):
        x = np.random.default_rng(0).random((3, 4))
        y, _ = dense_forward(x, np.eye(4), np.zeros(4))
        np.testing.assert_allclose(y, x)

    def test_mse(self):
        loss, grad = mse_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
        assert loss == 0.0
        loss, grad = mse_loss(np.array([[2.0, 3.0]]), np.array([[1.0, 2.0]]))
        assert loss == 1.0
        np.testing.assert_allclose(grad, [[1.0, 1.0]])


class TestModelShapes:
    def test_combined_uses_five_input_channels(self):
        spec = ModelSpec(variant="combined", input_resolution=16, output_count=3)
        params = {p.name: p for p in Model(spec, seed=0).params()}
        assert params["encoder.conv0.w"].value.shape == (16, 5, 3, 3)

    def test_separate_head_width(self):
        spec = ModelSpec(variant="separate", input_resolution=16, output_count=3)
        params = {p.name: p for p in Model(spec, seed=0).params()}
        # 5 views x 64 embedding dims + 1 dimension feature
        assert params["head.dense0.w"].value.shape[1] == 5 * 64 + 1

    def test_separate_encoder_params_independent_of_view_count(self):
        base = ModelSpec(variant="separate", input_resolution=16, output_count=3, view_count=5)
        more = ModelSpec(variant="separate", input_resolution=16, output_count=3, view_count=7)
        n_base = sum(p.value.size for p in Model(base, 0).params() if p.name.startswith("encoder."))
        n_more = sum(p.value.size for p in Model(more, 0).params() if p.name.startswith("encoder."))
        assert n_base == n_more

    def test_head_is_resolution_independent(self):
        spec = ModelSpec(variant="combined", input_resolution=16, output_count=4)
        model = Model(spec, seed=1)
        rng = np.random.default_rng(0)
        out16 = model.forward_batch([rng.random((2, 5, 16, 16))], np.array([2.0, 3.0]))[0]
        out32 = model.forward_batch([rng.random((2, 5, 32, 32))], np.array([2.0, 3.0]))[0]
        assert out16.shape == out32.shape == (2, 4)

    def test_forward_deterministic(self):
        spec = ModelSpec(variant="separate", input_resolution=8, output_count=2,
                         encoder_channels=(4, 8))
        model = Model(spec, seed=3)
        x = [np.random.default_rng(5).random((1, 5, 8, 8))]
        a = model.forward_batch(x, np.array([2.0]))[0]
        b = model.forward_batch(x, np.array([2.0]))[0]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", ["combined", "separate"])
    @pytest.mark.parametrize("stack_count", [1, 2])
    def test_prediction_pass_gives_the_training_forward_bits(self, variant, stack_count):
        """forward_batch keeps no cache; its predictions, and embed's head
        inputs, are the bits of the cached encoder and head passes that
        training runs, at an odd resolution where every pool drops a row and
        a column, and a step's loss is the loss of those predictions."""
        spec = ModelSpec(variant=variant, input_resolution=11, output_count=3, stack_count=stack_count,
                         encoder_channels=(4, 6), head_widths=(8,))
        model = Model(spec, seed=2)
        rng = np.random.default_rng(stack_count)
        stacks = [rng.standard_normal((3, 5, 11, 11)) for _ in range(stack_count)]
        dims = np.array([2.0, 5.0, 10.0])
        targets = rng.standard_normal((3, 3))
        pred, none = model.forward_batch(stacks, dims)
        x, encoder = model._encode(stacks, dims, slice(None), need_cache=True)
        want, head = model._head(x, need_cache=True)
        assert none is None and len(encoder) == stack_count and head is not None
        assert pred.tobytes() == want.tobytes()
        assert model.embed(stacks, dims).tobytes() == x.tobytes()
        assert model.loss_and_grads(stacks, dims, targets) == mse_loss(pred, targets)[0]

    def test_a_call_checks_its_batch_once(self, monkeypatch):
        """forward_batch and loss_and_grads check the whole batch once, not
        once more per sample group."""
        monkeypatch.setattr(neural, "ENCODER_CHUNK_BYTES", 1)  # one sample per group
        model = Model(ModelSpec(variant="separate", input_resolution=8, output_count=2, encoder_channels=(2, 3),
                                head_widths=(4,)), seed=0)
        stacks, dims = [np.random.default_rng(0).random((3, 5, 8, 8))], [2.0, 3.0, 4.0]
        assert len(model._groups(3, 8)) == 3
        calls, samples = {}, neural._samples
        monkeypatch.setattr(neural, "_samples", counting(calls, "forward_batch", samples))
        model.forward_batch(stacks, dims)
        monkeypatch.setattr(neural, "_samples", counting(calls, "loss_and_grads", samples))
        model.loss_and_grads(stacks, dims, np.zeros((3, 2)))
        assert calls == {"forward_batch": 1, "loss_and_grads": 1}

    def test_an_empty_batch_is_refused_with_every_gradient_zero(self):
        model = Model(ModelSpec(variant="combined", input_resolution=8, output_count=2, encoder_channels=(2, 3),
                                head_widths=(4,)), seed=0)
        stack = np.random.default_rng(0).random((2, 5, 8, 8))
        model.loss_and_grads([stack], [2.0, 3.0], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ContractError, match="^no predictions to score: "):
            model.loss_and_grads([stack[:0]], [], np.zeros((0, 2)))
        assert not any(p.grad.any() for p in model.params())

    def test_a_model_built_before_a_patch_calls_the_patched_primitives(self, monkeypatch):
        """The model looks each primitive up in neural's globals at call
        time, so the benchmark tracer's wrappers time every model, whenever
        it was built."""
        model = Model(ModelSpec(variant="combined", input_resolution=8, output_count=2, encoder_channels=(2, 3),
                                head_widths=(4,)), seed=0)
        calls = {}
        for name in ("conv2d_forward", "conv2d_backward", "maxpool2x2_forward", "maxpool2x2_backward",
                     "relu_forward", "relu_backward", "global_avg_pool_forward", "global_avg_pool_backward",
                     "dense_forward", "dense_backward", "mse_loss"):
            monkeypatch.setattr(neural, name, counting(calls, name, getattr(neural, name)))
        stacks, dims = [np.random.default_rng(0).random((2, 5, 8, 8))], [2.0, 3.0]
        model.forward_batch(stacks, dims)
        model.loss_and_grads(stacks, dims, [[0.0, 0.0], [1.0, 1.0]])
        # two forward passes and one backward pass through two conv blocks
        # and a head of one hidden and one output dense layer; the step's one
        # sample group runs the head forward and backward, and then the head
        # runs both once more over the whole batch, so the head's dense and
        # ReLU counts hold a third forward and a second backward
        assert calls == {
            "conv2d_forward": 4, "maxpool2x2_forward": 4, "relu_forward": 7, "global_avg_pool_forward": 2,
            "dense_forward": 6, "mse_loss": 1, "dense_backward": 4, "relu_backward": 4,
            "global_avg_pool_backward": 1, "maxpool2x2_backward": 2, "conv2d_backward": 2,
        }

    def test_moo_two_stack_model(self):
        spec = ModelSpec(variant="separate", input_resolution=8, output_count=3,
                         stack_count=2, encoder_channels=(2, 3))
        model = Model(spec, seed=0)
        rng = np.random.default_rng(1)
        pred, _ = model.forward_batch([rng.random((1, 5, 8, 8)), rng.random((1, 5, 8, 8))], np.array([2.0]))
        assert pred[0].shape == (3,)

    def test_paired_stacks_of_different_shapes_rejected(self):
        spec = ModelSpec(variant="separate", input_resolution=8, output_count=3,
                         stack_count=2, encoder_channels=(2, 3))
        model = Model(spec, seed=0)
        with pytest.raises(ContractError, match="share a shape"):
            model.forward_batch([np.zeros((1, 5, 8, 8)), np.zeros((1, 5, 16, 16))], np.array([2.0]))

    def test_two_slots_predict_as_one_slot_of_concatenated_views(self):
        """Embeddings run in slot order and then view order, so a two-slot
        separate model is a one-slot model over twice the views."""
        two = Model(ModelSpec(variant="separate", input_resolution=8, output_count=3,
                              stack_count=2, encoder_channels=(2, 3)), seed=0)
        one = Model(ModelSpec(variant="separate", input_resolution=8, output_count=3,
                              view_count=10, encoder_channels=(2, 3)), seed=1)
        for p, q in zip(two.params(), one.params()):
            q.value[...] = p.value
        rng = np.random.default_rng(2)
        a, b = rng.random((3, 5, 8, 8)), rng.random((3, 5, 8, 8))
        dims = np.array([2.0, 5.0, 10.0])
        np.testing.assert_array_equal(
            two.forward_batch([a, b], dims)[0],
            one.forward_batch([np.concatenate([a, b], axis=1)], dims)[0],
        )

    def test_wrong_stack_count_rejected(self):
        spec = ModelSpec(variant="combined", input_resolution=8, output_count=2,
                         encoder_channels=(2, 3))
        model = Model(spec, seed=0)
        with pytest.raises(ContractError):
            model.forward_batch([np.zeros((1, 5, 8, 8)), np.zeros((1, 5, 8, 8))], np.array([2.0]))

    def test_batch_size_mismatch_rejected(self):
        spec = ModelSpec(variant="separate", input_resolution=8, output_count=2,
                         stack_count=2, encoder_channels=(2, 3))
        model = Model(spec, seed=0)
        two, three = np.zeros((2, 5, 8, 8)), np.zeros((3, 5, 8, 8))
        with pytest.raises(ContractError, match="dimension"):
            model.forward_batch([two, two], np.array([2.0, 3.0, 4.0]))
        with pytest.raises(ContractError, match="dimension"):
            model.forward_batch([two, three], np.array([2.0, 3.0]))

    def test_parameter_names_and_shapes_are_the_persistence_contract(self):
        spec = ModelSpec(variant="separate", input_resolution=8, output_count=3,
                         stack_count=2, encoder_channels=(2, 3), head_widths=(4,))
        # 2 stacks x 5 views x 3 embedding dims + 1 dimension feature
        assert [(p.name, p.value.shape) for p in Model(spec, seed=0).params()] == [
            ("encoder.conv0.w", (2, 1, 3, 3)),
            ("encoder.conv0.b", (2,)),
            ("encoder.conv1.w", (3, 2, 3, 3)),
            ("encoder.conv1.b", (3,)),
            ("head.dense0.w", (4, 31)),
            ("head.dense0.b", (4,)),
            ("head.out.w", (3, 4)),
            ("head.out.b", (3,)),
        ]

    def test_resolution_too_small_for_pools(self):
        with pytest.raises(ContractError):
            ModelSpec(variant="combined", input_resolution=4, output_count=2)

    @pytest.mark.parametrize("field, value", [
        ("output_count", 0), ("view_count", 2.0), ("input_resolution", "64"), ("stack_count", 3),
        ("stack_count", True), ("encoder_channels", (4, 0)), ("encoder_channels", ()), ("head_widths", 5),
    ])
    def test_malformed_spec_field_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            ModelSpec(**{"variant": "combined", "input_resolution": 16, "output_count": 2, field: value})

    @pytest.mark.parametrize("where", ["stack", "dims"])
    def test_nonfinite_input_rejected(self, where):
        model = Model(tiny_spec(), seed=0)
        stack, dims = np.zeros((2, 5, 8, 8)), np.array([2.0, 3.0])
        (stack if where == "stack" else dims)[1, ...] = np.nan
        with pytest.raises(DataError, match="finite"):
            model.forward_batch([stack], dims)


def whole_batch_oracle(model: Model, stacks, dims, targets):
    """Predictions, loss and every parameter gradient (by name) from the
    encoder's layer loop run over all images of the batch at once, as it
    ran before the encoder was chunked; for each conv parameter the sum of
    the magnitudes of the terms its gradient adds up; and the head inputs."""
    spec = model.spec
    views = [x[..., None] if spec.variant == "separate" else x.transpose(0, 2, 3, 1) for x in stacks]
    x = np.stack(views, axis=1).reshape(-1, *views[0].shape[-3:])
    blocks = []
    for w, b in model.convs:
        x, conv = conv2d_forward(x, w.value, b.value)
        x, pool = maxpool2x2_forward(x)
        x, relu = relu_forward(x)
        blocks.append((conv, pool, relu))
    x, gap = global_avg_pool_forward(x)
    x = inputs = np.concatenate([x.reshape(len(dims), spec.embedding_width), dims[:, None] * neural.DIMENSION_SCALE],
                                axis=1)
    hidden = []
    for w, b in model.denses[:-1]:
        x, dense = dense_forward(x, w.value, b.value)
        x, relu = relu_forward(x)
        hidden.append((dense, relu))
    w, b = model.denses[-1]
    pred, out = dense_forward(x, w.value, b.value)
    loss, g = mse_loss(pred, targets)
    grads, scales = {}, {}

    def add(params, dx, dw, db):
        grads[params[0].name], grads[params[1].name] = dw, db
        return dx

    g = add(model.denses[-1], *dense_backward(g, out))
    for params, (dense, relu) in zip(reversed(model.denses[:-1]), reversed(hidden)):
        g = add(params, *dense_backward(relu_backward(g, relu), dense))
    g = global_avg_pool_backward(g[:, :-1].reshape(-1, spec.encoder_channels[-1]), gap)
    for params, (conv, pool, relu) in zip(reversed(model.convs), reversed(blocks)):
        g = maxpool2x2_backward(relu_backward(g, relu), pool)
        xp, xshape, w = conv
        _, *magnitudes = conv2d_backward(np.abs(g), (np.abs(xp), xshape, w), need_dx=False)
        scales.update(zip((p.name for p in params), magnitudes))
        g = add(params, *conv2d_backward(g, conv))
    return pred, loss, grads, scales, inputs


def chunk_cases():
    """(variant, stack_count, samples, resolution, chunk) with 32 conv0
    channels; chunk None keeps the module's budget (8 `combined` samples or
    one `separate` sample at 32 px, and one image alone exceeds it at
    96 px), a number sets the budget to that many images, and the encoder
    rounds it down to whole samples: one slot of 3 samples holds a chunk
    less one image or a chunk (one group of 3), or a chunk and one image
    (groups of 2 and 1)."""
    for variant in ("combined", "separate"):
        for slots in (1, 2):
            per_sample = 5 if variant == "separate" else 1
            name = f"{variant}-{slots}-slot"
            yield pytest.param(variant, slots, 1, 32, None, id=f"{name}-one-sample")
            yield pytest.param(variant, slots, 3, 32, None, id=f"{name}-module-budget")
            for offset, label in ((1, "chunk-1"), (0, "chunk"), (-1, "chunk+1")):
                yield pytest.param(variant, slots, 3, 32, 3 * per_sample + offset, id=f"{name}-{label}-images")
            yield pytest.param(variant, slots, 2, 96, None, id=f"{name}-image-over-budget")
    for samples, label in ((7, "chunk-1"), (8, "chunk"), (9, "chunk+1")):
        yield pytest.param("combined", 1, samples, 32, None, id=f"module-budget-{label}-images")


class TestChunkedEncoder:
    @pytest.mark.parametrize("variant, stack_count, samples, resolution, chunk", chunk_cases())
    def test_chunks_give_the_whole_batch_bits(self, monkeypatch, variant, stack_count, samples, resolution, chunk):
        """Head inputs, predictions, loss and head gradients are the bits of
        the whole-batch oracle, and the predictions are the head over the
        head inputs.  Only the conv weight and bias gradients, sums
        over every pixel of every image, regroup by sample group, and their
        prediction gradients come from each group's own head pass: each
        agrees to 1e-13 of the magnitude of the terms it adds up."""
        image_bytes = resolution**2 * 32 * 8
        if chunk is not None:
            monkeypatch.setattr(neural, "ENCODER_CHUNK_BYTES", chunk * image_bytes)
        per_group = max(1, neural.ENCODER_CHUNK_BYTES // ((5 if variant == "separate" else 1) * image_bytes))
        spec = ModelSpec(variant=variant, input_resolution=resolution, output_count=3, stack_count=stack_count,
                         encoder_channels=(32, 4), head_widths=(8,))
        model = Model(spec, seed=samples)
        rng = np.random.default_rng(resolution + samples)
        stacks = [rng.random((samples, 5, resolution, resolution)) for _ in range(stack_count)]
        dims = rng.integers(2, 11, size=samples).astype(float)
        targets = rng.normal(size=(samples, 3))
        want_pred, want_loss, want_grads, scales, want_inputs = whole_batch_oracle(model, stacks, dims, targets)
        calls = {}
        monkeypatch.setattr(neural, "conv2d_forward", counting(calls, "conv", neural.conv2d_forward))
        pred, _ = model.forward_batch(stacks, dims)
        # a chunk is one slot's images of one group
        assert calls["conv"] == 2 * stack_count * -(-samples // per_group)
        assert pred.tobytes() == want_pred.tobytes()
        inputs = model.embed(stacks, dims)
        assert inputs.tobytes() == want_inputs.tobytes()
        assert model._head(inputs, need_cache=False)[0].tobytes() == pred.tobytes()
        assert model.loss_and_grads(stacks, dims, targets) == want_loss
        for p in model.params():
            if p.name in scales:
                assert np.all(np.abs(p.grad - want_grads[p.name]) <= 1e-13 * scales[p.name]), p.name
            else:
                assert p.grad.tobytes() == want_grads[p.name].tobytes(), p.name

    def test_two_slot_separate_peak_memory(self):
        """A bi-objective `separate` model, 32 samples of two 5-view 64 px
        slots (320 images): a loss_and_grads step peaks at 8.9 MiB and
        forward_batch at 4.1 MiB, against 104.2 MiB for a step that keeps
        the caches of every image, and 318.9 and 240.1 MiB with the whole
        batch at once."""
        model = Model(ModelSpec(variant="separate", input_resolution=64, output_count=3, stack_count=2), seed=0)
        rng = np.random.default_rng(0)
        stacks, dims, targets = [rng.random((32, 5, 64, 64)) for _ in range(2)], np.full(32, 2.0), rng.random((32, 3))
        assert traced_peak(lambda: model.loss_and_grads(stacks, dims, targets)) <= 10 * 2**20
        assert traced_peak(lambda: model.forward_batch(stacks, dims)) <= 4.5 * 2**20

    @pytest.mark.parametrize("variant", ["combined", "separate"])
    @pytest.mark.parametrize("stack_count", [1, 2])
    def test_training_peak_memory_is_flat_in_batch_size(self, variant, stack_count):
        """A loss_and_grads step runs each sample group's forward and
        backward back to back, so 64 samples peak within one chunk budget
        of 8, plus the one-byte finiteness mask of the larger batch.  At
        48 px a group is 7 `combined` samples or one `separate` sample, so
        8 samples fill a group in both variants."""
        model = Model(ModelSpec(variant=variant, input_resolution=48, output_count=3, stack_count=stack_count),
                      seed=0)
        rng = np.random.default_rng(0)
        peaks = []
        for n in (8, 64):
            stacks = [rng.random((n, 5, 48, 48)) for _ in range(stack_count)]
            dims, targets = np.full(n, 2.0), rng.random((n, 3))
            peaks.append(traced_peak(lambda: model.loss_and_grads(stacks, dims, targets)))
        assert abs(peaks[1] - peaks[0]) <= neural.ENCODER_CHUNK_BYTES + sum(x.size for x in stacks)

    @pytest.mark.parametrize("variant", ["combined", "separate"])
    def test_prediction_peak_memory_is_flat_in_batch_size(self, variant):
        """forward_batch reads each chunk's images in place from the
        stacks, so 64 samples peak within one chunk's worth of 8
        (`separate`: 3.9 and 4.1 MiB; `combined`: 4.1 and 4.1 MiB)."""
        model = Model(ModelSpec(variant=variant, input_resolution=64, output_count=3), seed=0)
        rng = np.random.default_rng(0)
        peaks = []
        for n in (8, 64):
            stacks, dims = [rng.random((n, 5, 64, 64))], np.full(n, 2.0)
            peaks.append(traced_peak(lambda: model.forward_batch(stacks, dims)))
        assert abs(peaks[1] - peaks[0]) <= neural.ENCODER_CHUNK_BYTES

    @pytest.mark.parametrize("variant", ["combined", "separate"])
    @pytest.mark.parametrize("stack_count", [1, 2])
    def test_conv0_reads_the_callers_stacks_in_place(self, monkeypatch, variant, stack_count):
        """Every chunk conv0 takes is a view of one caller's stack, so the
        conv padding is the only copy of the images, in a prediction pass
        and in a training step alike; with two samples a group, each group
        gives every slot's images in turn, and no chunk spans two slots."""
        spec = ModelSpec(variant=variant, input_resolution=8, output_count=2, stack_count=stack_count,
                         encoder_channels=(2, 3), head_widths=(4,))
        model = Model(spec, seed=0)
        rng = np.random.default_rng(stack_count)
        stacks = [rng.random((3, 5, 8, 8)) for _ in range(stack_count)]
        images = 5 if variant == "separate" else 1
        # two samples a group: an image is 8 x 8 px of 2 conv0 channels, 8 bytes a value
        monkeypatch.setattr(neural, "ENCODER_CHUNK_BYTES", 2 * images * 8 * 8 * 2 * 8)
        inputs, conv = [], neural.conv2d_forward

        def spy(x, w, b, **kwargs):
            if w is model.convs[0][0].value:
                inputs.append(x)
            return conv(x, w, b, **kwargs)

        monkeypatch.setattr(neural, "conv2d_forward", spy)
        model.forward_batch(stacks, [2.0, 3.0, 5.0])
        model.loss_and_grads(stacks, [2.0, 3.0, 5.0], np.zeros((3, 2)))
        owners = [[slot for slot, s in enumerate(stacks) if np.shares_memory(x, s)] for x in inputs]
        assert owners == 2 * [[slot] for _ in range(2) for slot in range(stack_count)]
        assert [len(x) for x in inputs] == 2 * ([2 * images] * stack_count + [images] * stack_count)

    @pytest.mark.parametrize("variant", ["combined", "separate"])
    def test_stack_views_give_the_bits_of_their_contiguous_copies(self, variant):
        """Stacks that are strided, offset or reversed views of a larger
        array, whose sample and view axes cannot merge without a copy,
        predict and train as their contiguous copies, bit for bit."""
        spec = ModelSpec(variant=variant, input_resolution=8, output_count=2, stack_count=2,
                         encoder_channels=(2, 3), head_widths=(4,))
        model = Model(spec, seed=1)
        base = np.random.default_rng(1).random((6, 7, 9, 9))
        views = [base[::2, :5, :8, :8], base[::-2, 2:, 1:, ::-1][:, :, :, :8]]
        copies = [np.ascontiguousarray(v) for v in views]
        dims, targets = np.array([2.0, 3.0, 10.0]), np.arange(6.0).reshape(3, 2)
        assert model.forward_batch(views, dims)[0].tobytes() == model.forward_batch(copies, dims)[0].tobytes()
        loss = model.loss_and_grads(views, dims, targets)
        grads = [p.grad.copy() for p in model.params()]
        assert model.loss_and_grads(copies, dims, targets) == loss
        assert all(g.tobytes() == p.grad.tobytes() for g, p in zip(grads, model.params()))


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


def reduced_gradcheck_spec(variant: str, stack_count: int = 1) -> ModelSpec:
    """Down-scaled architecture used for finite-difference verification."""
    return ModelSpec(
        variant=variant,
        input_resolution=8,
        output_count=3,
        view_count=5,
        stack_count=stack_count,
        encoder_channels=(2, 3),
        head_widths=(4,),
    )


def run_grad_check(variant: str, seed: int, stack_count: int = 1) -> float:
    """Build a reduced random model plus sample and return the max error."""
    spec = reduced_gradcheck_spec(variant, stack_count)
    model = Model(spec, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0xFD]))
    stacks = [rng.random((2, spec.view_count, 8, 8)) for _ in range(stack_count)]
    dims = rng.integers(2, 11, size=2).astype(float)
    targets = rng.normal(size=(2, spec.output_count))
    return grad_check(model, stacks, dims, targets)


class TestGradCheck:
    @pytest.mark.parametrize("variant", ["combined", "separate"])
    def test_both_variants(self, variant):
        assert run_grad_check(variant, seed=0) < 1e-4

    def test_two_stack_variant(self):
        assert run_grad_check("separate", seed=1, stack_count=2) < 1e-4

    def test_two_stack_combined(self):
        assert run_grad_check("combined", seed=3, stack_count=2) < 1e-4

    def test_zero_input_bias_gradients(self):
        spec = reduced_gradcheck_spec("combined")
        model = Model(spec, seed=4)
        stacks = [np.zeros((1, 5, 8, 8))]
        targets = np.random.default_rng(0).normal(size=(1, 3))
        err = grad_check(model, stacks, np.array([2.0]), targets)
        assert err < 1e-4
        # conv bias gradients are nonzero even for a zero input
        bias_grads = [p.grad for p in model.params() if p.name == "encoder.conv0.b"]
        assert np.any(bias_grads[0] != 0.0)


def tiny_dataset(n=3, m=2, seed=0, stack_count=1):
    rng = np.random.default_rng(seed)
    return Dataset(
        stacks=[rng.random((n, 5, 8, 8)) for _ in range(stack_count)],
        dims=rng.integers(2, 11, size=n).astype(float),
        targets=rng.normal(size=(n, m)),
        tags=[f"s{i}" for i in range(n)],
    )


def tiny_spec(variant="combined", m=2, stack_count=1):
    return ModelSpec(
        variant=variant,
        input_resolution=8,
        output_count=m,
        stack_count=stack_count,
        encoder_channels=(2, 3),
        head_widths=(4,),
    )


class TestTraining:
    @pytest.mark.parametrize("stack_count, views", [(1, 4), (1, 6), (2, 5)], ids=["4-views", "6-views", "2-slots"])
    def test_a_dataset_of_another_layout_is_refused_before_training(self, stack_count, views):
        """With 4 views the view gather leaked numpy's IndexError, with 6 a
        fit trained on 5 of them, and 2 slots failed only at the first batch."""
        rng = np.random.default_rng(0)
        ds = Dataset(stacks=[rng.random((3, views, 8, 8)) for _ in range(stack_count)], dims=[2.0, 3.0, 5.0],
                     targets=rng.normal(size=(3, 2)))
        model = Model(tiny_spec(), seed=0)
        before = [p.value.copy() for p in model.params()]
        with pytest.raises(ContractError, match=rf"1 stack\(s\) of shape \(n, 5, r, r\), got {stack_count} of shape "
                                                rf"\(3, {views}, 8, 8\)"):
            train(model, ds, TrainConfig(epochs=1))
        assert all(np.array_equal(b, p.value) for b, p in zip(before, model.params()))

    def test_single_sample_memorization(self):
        """One view repeated five times, so every view order gives the same stack."""
        ds = tiny_dataset(n=1)
        ds.stacks[0][:] = ds.stacks[0][:, :1]
        model = Model(tiny_spec(), seed=0)
        losses = train(model, ds, TrainConfig(epochs=500, batch_size=1, seed=0))
        assert losses[-1] < 1e-4

    def test_seeded_determinism(self):
        ds = tiny_dataset(n=4)
        cfg = TrainConfig(epochs=10, seed=11)
        m1 = Model(tiny_spec(), seed=7)
        m2 = Model(tiny_spec(), seed=7)
        l1 = train(m1, ds, cfg)
        l2 = train(m2, ds, cfg)
        assert l1 == l2
        for p1, p2 in zip(m1.params(), m2.params()):
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_each_epoch_draws_a_new_view_order_per_sample(self, monkeypatch):
        """View v of sample s holds 10 * s + v everywhere, so each batch that
        loss_and_grads receives shows the view order of every sample in it:
        a permutation, one for both slots, that changes between epochs."""
        n, k, epochs = 4, 5, 3
        marks = 10.0 * np.arange(n)[:, None] + np.arange(k)
        stack = np.broadcast_to(marks[:, :, None, None], (n, k, 8, 8)).copy()
        ds = Dataset(stacks=[stack, stack], dims=[2.0] * n, targets=np.zeros((n, 2)))
        model = Model(tiny_spec(stack_count=2), seed=0)
        orders = {s: [] for s in range(n)}

        def record(stacks, dims, targets):
            first, second = (x[:, :, 0, 0] for x in stacks)
            assert np.array_equal(first, second)
            for row in first.astype(int):
                orders[row[0] // 10].append(tuple(row % 10))
            return 0.0

        monkeypatch.setattr(model, "loss_and_grads", record)
        train(model, ds, TrainConfig(epochs=epochs, batch_size=3, seed=1))
        assert all(len(seen) == epochs and all(sorted(o) == list(range(k)) for o in seen) for seen in orders.values())
        assert any(len(set(seen)) > 1 for seen in orders.values())

    def test_nonfinite_target_rejected(self):
        ds = tiny_dataset(n=2)
        ds.targets[0, 0] = np.nan
        with pytest.raises(DataError):
            train(Model(tiny_spec(), 0), ds, TrainConfig(epochs=1))

    def test_divergence_reports_epoch(self):
        ds = tiny_dataset(n=2)
        ds.targets *= 1e150  # overflow the loss within a few steps
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch"):
            train(Model(tiny_spec(), 0), ds,
                  TrainConfig(epochs=5, learning_rate=1e100, seed=0))

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ContractError, match="batch_size"):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("batch_size", 2.5), ("seed", 1.5), ("seed", True),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", "0.1"),
        ("learning_rate", True),
    ])
    def test_malformed_config_field_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            TrainConfig(**{field: value})

    def test_fit_agrees_across_blas_thread_counts(self, tmp_path):
        """Bit-exactness holds at a fixed BLAS thread count only; across
        thread counts a fit agrees within the benchmark's tolerance for
        BLAS-dependent outputs (rtol 1e-10, atol 1e-12)."""
        script = (
            "import sys, numpy as np\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from test_neural import tiny_dataset, tiny_spec\n"
            "from contoursel.neural import Model, TrainConfig, train\n"
            "model = Model(tiny_spec('separate'), seed=5)\n"
            "train(model, tiny_dataset(n=6), TrainConfig(epochs=3, seed=2))\n"
            "np.savez(sys.argv[1], *[p.value for p in model.params()])\n"
        )
        src = os.path.dirname(os.path.dirname(contoursel.__file__))
        params = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"params{threads}.npz"
            subprocess.run(
                [sys.executable, "-c", script, str(out), os.path.dirname(__file__)],
                env=env, check=True, timeout=120,
            )
            with np.load(out) as data:
                params.append([data[k] for k in data.files])
        assert len(params[0]) == len(params[1]) > 0
        for a, b in zip(*params):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_dataset_with_fewer_dims_than_samples_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError, match="2 dims"):
            Dataset(stacks=[rng.random((3, 5, 8, 8))], dims=np.array([2.0, 3.0]),
                    targets=rng.normal(size=(3, 2)))

    def test_dataset_with_fewer_stacks_than_dims_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError, match="3 dims"):
            Dataset(stacks=[rng.random((2, 5, 8, 8))], dims=np.array([2.0, 3.0, 5.0]),
                    targets=rng.normal(size=(3, 2)))

    def test_dataset_with_tags_not_matching_dims_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError, match="3 dims but 1 tags"):
            Dataset(stacks=[rng.random((3, 5, 8, 8))], dims=np.array([2.0, 3.0, 5.0]),
                    targets=rng.normal(size=(3, 2)), tags=["a"])

    def test_dataset_subset_keeps_tags(self):
        ds = tiny_dataset(n=4)
        sub = ds.subset([2, 0])
        assert sub.tags == ["s2", "s0"]
        assert len(sub) == 2

    def test_dataset_subset_of_no_indices_is_empty(self):
        assert len(tiny_dataset(n=4).subset([])) == 0


class TestSeeds:
    @pytest.mark.parametrize("variant", ["combined", "separate"])
    @pytest.mark.parametrize("seed, numpy_seed", [
        (3, np.int64(3)), (-1, np.int8(-1)), (2**63 + 5, np.uint64(2**63 + 5)),
    ])
    def test_numpy_integer_seed_gives_the_same_parameters(self, variant, seed, numpy_seed):
        want = [p.value.tobytes() for p in Model(tiny_spec(variant), seed).params()]
        assert [p.value.tobytes() for p in Model(tiny_spec(variant), numpy_seed).params()] == want

    def test_numpy_integer_seed_gives_the_same_loss_curve(self):
        ds = tiny_dataset(n=4)
        curves = [train(Model(tiny_spec(), 0), ds, TrainConfig(epochs=3, seed=s)) for s in (5, np.int64(5))]
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("seed", [1.5, np.float64(1.0), "3", True, None])
    def test_non_integer_model_seed_rejected(self, seed):
        with pytest.raises(ContractError, match="seed"):
            Model(tiny_spec(), seed)


class TestDatasetConversion:
    def test_lists_train_like_arrays(self):
        ds = tiny_dataset(n=4)
        listed = Dataset(stacks=[s.tolist() for s in ds.stacks], dims=ds.dims.tolist(), targets=ds.targets.tolist())
        cfg = TrainConfig(epochs=2, batch_size=3, seed=1)
        assert train(Model(tiny_spec(), 0), listed, cfg) == train(Model(tiny_spec(), 0), ds, cfg)
        assert listed.subset([2, 0]).dims.tolist() == [ds.dims[2], ds.dims[0]]

    def test_float64_arrays_are_not_copied(self):
        ds = tiny_dataset(n=4)
        again = Dataset(stacks=tuple(ds.stacks), dims=ds.dims, targets=ds.targets)
        assert again.stacks[0] is ds.stacks[0] and again.dims is ds.dims and again.targets is ds.targets

    @pytest.mark.parametrize("field, value, error", [
        ("stacks", None, ContractError), ("stacks", np.zeros((2, 5, 8, 8)), ContractError),
        ("targets", [["a", "b"], ["c", "d"]], DataError), ("dims", ["2", "x"], DataError),
        ("stacks", [[[1.0], [2.0, 3.0]]], DataError),
    ])
    def test_unconvertible_fields_rejected(self, field, value, error):
        fields = dict(stacks=[np.zeros((2, 5, 8, 8))], dims=[2.0, 3.0], targets=np.zeros((2, 2))) | {field: value}
        with pytest.raises(error):
            Dataset(**fields)


# (stacks, dims) pairs that Dataset and Model.forward_batch both refuse; dims
# must be one value per sample in a 1-D array, never a column or a scalar
BAD_SAMPLES = {
    "scalar-dims": ([np.zeros((1, 5, 8, 8))], 2.0, ContractError),
    "column-dims": ([np.zeros((2, 5, 8, 8))], [[2.0], [3.0]], ContractError),
    "3d-stack": ([np.zeros((5, 8, 8))], [2.0] * 5, ContractError),
    "5d-stack": ([np.zeros((1, 1, 5, 8, 8))], [2.0], ContractError),
    "array-of-stacks": (np.zeros((1, 2, 5, 8, 8)), [2.0, 3.0], ContractError),
    "short-dims": ([np.zeros((2, 5, 8, 8))], [2.0], ContractError),
    "non-square-stack": ([np.zeros((1, 5, 8, 16))], [2.0], ContractError),
    "nan-stack": ([np.full((1, 5, 8, 8), np.nan)], [2.0], DataError),
    "inf-dims": ([np.zeros((1, 5, 8, 8))], [np.inf], DataError),
}


class TestSamples:
    @pytest.mark.parametrize("stacks, dims, error", BAD_SAMPLES.values(), ids=BAD_SAMPLES.keys())
    def test_dataset_and_forward_batch_refuse_alike(self, stacks, dims, error):
        with pytest.raises(error) as refused:
            Dataset(stacks=stacks, dims=dims, targets=np.zeros((np.size(dims), 2)))
        with pytest.raises(error) as forwarded:
            Model(tiny_spec(), seed=0).forward_batch(stacks, dims)
        assert str(refused.value) == str(forwarded.value)

    @pytest.mark.parametrize("targets", [[0.0, 0.0], [[[0.0, 0.0]], [[0.0, 0.0]]], np.zeros((3, 2))],
                             ids=["1d", "3d", "three-rows"])
    def test_targets_must_be_one_row_per_sample(self, targets):
        with pytest.raises(ContractError, match="targets"):
            Dataset(stacks=[np.zeros((2, 5, 8, 8))], dims=[2.0, 3.0], targets=targets)

    @pytest.mark.parametrize("targets", [np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2)), np.zeros((2, 2, 1))],
                             ids=["flat", "wide", "short", "3d"])
    def test_wrong_shaped_targets_leave_every_gradient_at_zero(self, targets):
        """The targets' shape is checked before the first sample group
        runs, so a refused step adds nothing to the zeroed gradients."""
        model = Model(tiny_spec(), seed=0)
        stacks, dims = [np.random.default_rng(0).random((2, 5, 8, 8))], [2.0, 3.0]
        model.loss_and_grads(stacks, dims, np.ones((2, 2)))
        assert all(p.grad.any() for p in model.params())
        with pytest.raises(ContractError, match="targets"):
            model.loss_and_grads(stacks, dims, targets)
        assert not any(p.grad.any() for p in model.params())

    def test_view_count_is_checked_against_the_spec(self):
        with pytest.raises(ContractError, match=r"\(n, 5, r, r\)"):
            Model(tiny_spec(), seed=0).forward_batch([np.zeros((1, 4, 8, 8))], [2.0])


class TestTransforms:
    def test_log10_relert(self):
        out = transform_targets("log10_relert", [1.0, 100.0, 1e4])
        np.testing.assert_allclose(out, [0.0, 2.0, 4.0])

    def test_relhv_clip(self):
        out = transform_targets("relhv_clip", [-10.0, 0.5, 10.0])
        np.testing.assert_allclose(out, [-2.0, 0.5, 2.0])

    @pytest.mark.parametrize("kind, value", [
        ("log10_relert", 0.0), ("log10_relert", -1.0), ("log10_relert", np.nan), ("log10_relert", np.inf),
        ("relhv_clip", np.nan),
    ])
    def test_invalid_value_rejected(self, kind, value):
        with pytest.raises(DataError):
            transform_targets(kind, [1.0, value])

    def test_argmin_preserved_by_log(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.uniform(1.0, 1e4, size=5)
            assert np.argmin(vals) == np.argmin(transform_targets("log10_relert", vals))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = Model(tiny_spec("separate"), seed=9)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for p, q in zip(model.params(), loaded.params()):
            assert p.name == q.name
            np.testing.assert_array_equal(p.value, q.value)
        x = [np.random.default_rng(0).random((1, 5, 8, 8))]
        np.testing.assert_array_equal(
            model.forward_batch(x, np.array([2.0]))[0],
            loaded.forward_batch(x, np.array([2.0]))[0],
        )

    def test_saved_spec_lists_every_field_in_order(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(Model(tiny_spec("separate", stack_count=2), seed=0), path)
        assert (
            '"spec": {"variant": "separate", "input_resolution": 8, "output_count": 2, "view_count": 5, '
            '"stack_count": 2, "encoder_channels": [2, 3], "head_widths": [4]}'
        ) in path.read_text()

    def test_container_with_target_transform_field(self, tmp_path):
        """Containers that still list the deleted target_transform field load
        and predict bit-exactly."""
        model = Model(tiny_spec("separate", stack_count=2), seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["spec"]["target_transform"] = "relhv_clip"
        path.write_text(json.dumps(payload))
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert all(p.value.tobytes() == q.value.tobytes() for p, q in zip(model.params(), loaded.params()))
        x = [np.random.default_rng(0).random((2, 5, 8, 8)) for _ in range(2)]
        dims = np.array([2.0, 5.0])
        assert loaded.forward_batch(x, dims)[0].tobytes() == model.forward_batch(x, dims)[0].tobytes()

    def test_container_with_residual_blocks_field(self, tmp_path):
        """Containers that still list the deleted residual_blocks field: with
        0 blocks the model loads and predicts bit-exactly; with 1 block the
        two residual convolutions have no place in the model."""
        model = Model(tiny_spec("separate", stack_count=2), seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["spec"]["residual_blocks"] = 0
        path.write_text(json.dumps(payload))
        x = [np.random.default_rng(0).random((2, 5, 8, 8)) for _ in range(2)]
        dims = np.array([2.0, 5.0])
        np.testing.assert_array_equal(load_model(path).forward_batch(x, dims)[0], model.forward_batch(x, dims)[0])
        payload["spec"]["residual_blocks"] = 1
        residual = [{"name": f"encoder.res0{ab}.{wb}", "shape": shape,
                     "data": base64.b64encode(np.zeros(np.prod(shape)).tobytes()).decode("ascii")}
                    for ab in "ab" for wb, shape in (("w", [3, 3, 3, 3]), ("b", [3]))]
        payload["params"][4:4] = residual
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="parameter count mismatch"):
            load_model(path)

    @pytest.mark.parametrize("key", list(tiny_spec().to_json()))
    def test_spec_missing_key_is_named(self, key):
        data = tiny_spec().to_json()
        del data[key]
        with pytest.raises(ContractError, match=f"missing key '{key}'"):
            ModelSpec.from_json(data)

    def test_not_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": "\xff"}\n')
        with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8 text")):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = Model(tiny_spec(), seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        data = path.read_text()
        path.write_text(data[: len(data) // 2])
        with pytest.raises(ParseError):
            load_model(path)

    def test_list_container_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("key", ["spec", "params"])
    def test_missing_container_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.json"
        save_model(Model(tiny_spec(), seed=0), path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("key", ["name", "shape", "data"])
    def test_missing_entry_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.json"
        save_model(Model(tiny_spec(), seed=0), path)
        payload = json.loads(path.read_text())
        del payload["params"][1][key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_model(path)

    def test_nonfinite_parameter_rejected(self, tmp_path):
        model = Model(tiny_spec(), seed=0)
        model.params()[0].value.flat[3] = np.nan
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(DataError, match="not finite"):
            load_model(path)

    @pytest.mark.parametrize("mutate", [
        lambda c: c.update(spec=5),
        lambda c: c["spec"].update(input_resolution="sixty-four"),
        lambda c: c.update(params=7),
        lambda c: c["params"].__setitem__(1, ["encoder.conv0.b", [2]]),
        lambda c: c["params"][1].update(shape=None),
        lambda c: c.update(version=True),
        lambda c: c.update(version=1.0),
    ], ids=["spec-not-object", "resolution-not-integer", "params-not-list", "entry-not-object", "shape-null",
            "version-true", "version-float"])
    def test_malformed_container_rejected(self, tmp_path, mutate):
        path = tmp_path / "model.json"
        save_model(Model(tiny_spec(), seed=0), path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_model(path)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=6),
    st.lists(st.integers(-2, 4), max_size=4), st.dictionaries(st.text(max_size=4), st.integers(0, 4), max_size=2),
)


@pytest.fixture(scope="module")
def saved_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("container") / "model.json"
    save_model(Model(tiny_spec("separate", stack_count=2), seed=0), path)
    return json.loads(path.read_text())


@given(data=st.data())
def test_mutated_container_raises_only_toolkit_errors(saved_container, tmp_path_factory, data):
    """Drop, retype or corrupt one key or entry of a saved model: load_model
    either loads it or raises a ContourselError, never a bare exception."""
    payload = copy.deepcopy(saved_container)
    slots = [(payload, k) for k in payload] + [(payload["spec"], k) for k in payload["spec"]]
    slots += [(payload["params"], i) for i in range(len(payload["params"]))]
    slots += [(entry, k) for entry in payload["params"] for k in entry]
    container, key = data.draw(st.sampled_from(slots))
    value = container[key]
    action = data.draw(st.sampled_from(["drop", "retype", "corrupt"]))
    if action == "drop":
        del container[key]
    elif action == "retype" or isinstance(value, (dict, bool)) or value is None:
        container[key] = data.draw(_JUNK)
    elif isinstance(value, (str, list)):
        cut = data.draw(st.integers(0, len(value)))
        container[key] = value[:cut] + value[cut + 1:] if data.draw(st.booleans()) else value[:cut] + value[:1]
    else:
        container[key] = value + data.draw(st.integers(-40, 3))
    path = tmp_path_factory.mktemp("mutated") / "model.json"
    path.write_text(json.dumps(payload))
    try:
        load_model(path)
    except ContourselError:
        pass
