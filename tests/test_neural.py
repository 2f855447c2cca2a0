import copy
import json
import os
import re
import subprocess
import sys

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
    dense_forward,
    global_avg_pool_backward,
    global_avg_pool_forward,
    load_model,
    maxpool2x2_forward,
    mse_loss,
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
        o=st.integers(1, 4), per_chunk=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_patch_matrix_against_oracles(self, n, h, wd, c, o, per_chunk, seed):
        """Forward against the loop reference; dx by the adjoint identity
        <conv(x), g> = <x, dx>; dw by central differences; with chunks of
        per_chunk samples, so most batches span several chunks and a
        remainder."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, h, wd, c))
        w = rng.normal(size=(o, c, 3, 3))
        b = rng.normal(size=o)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "PATCH_MATRIX_BYTES", per_chunk * h * wd * 9 * c * 8)
            y, cache = conv2d_forward(x, w, b)
            np.testing.assert_allclose(y, conv2d_reference(x, w, b), rtol=1e-12, atol=1e-12)
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
        n_base = sum(p.value.size for p in Model(base, 0).encoder.params)
        n_more = sum(p.value.size for p in Model(more, 0).encoder.params)
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

    def test_moo_two_stack_model(self):
        spec = ModelSpec(variant="separate", input_resolution=8, output_count=3,
                         stack_count=2, encoder_channels=(2, 3))
        model = Model(spec, seed=0)
        rng = np.random.default_rng(1)
        pred = model.predict([rng.random((5, 8, 8)), rng.random((5, 8, 8))], 2.0)
        assert pred.shape == (3,)

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
                         stack_count=2, encoder_channels=(2, 3), residual_blocks=1,
                         head_widths=(4,))
        # 2 stacks x 5 views x 3 embedding dims + 1 dimension feature
        assert [(p.name, p.value.shape) for p in Model(spec, seed=0).params()] == [
            ("encoder.conv0.w", (2, 1, 3, 3)),
            ("encoder.conv0.b", (2,)),
            ("encoder.conv1.w", (3, 2, 3, 3)),
            ("encoder.conv1.b", (3,)),
            ("encoder.res0a.w", (3, 3, 3, 3)),
            ("encoder.res0a.b", (3,)),
            ("encoder.res0b.w", (3, 3, 3, 3)),
            ("encoder.res0b.b", (3,)),
            ("head.dense0.w", (4, 31)),
            ("head.dense0.b", (4,)),
            ("head.out.w", (3, 4)),
            ("head.out.b", (3,)),
        ]

    def test_resolution_too_small_for_pools(self):
        with pytest.raises(ContractError):
            ModelSpec(variant="combined", input_resolution=4, output_count=2)

    @pytest.mark.parametrize("field, value", [
        ("output_count", 0), ("view_count", 2.0), ("input_resolution", "64"), ("residual_blocks", -1),
        ("stack_count", True), ("encoder_channels", (4, 0)), ("head_widths", 5),
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


class TestGradCheck:
    @pytest.mark.parametrize("variant", ["combined", "separate"])
    def test_both_variants(self, variant):
        assert run_grad_check(variant, seed=0) < 1e-4

    def test_two_stack_variant(self):
        assert run_grad_check("separate", seed=1, stack_count=2) < 1e-4

    def test_residual_encoder(self):
        assert run_grad_check("combined", seed=2, residual_blocks=1) < 1e-4

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
    def test_single_sample_memorization(self):
        ds = tiny_dataset(n=1)
        model = Model(tiny_spec(), seed=0)
        losses = train(model, ds, TrainConfig(epochs=500, batch_size=1, seed=0, augment=False))
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

    def test_augmentation_changes_curve(self):
        ds = tiny_dataset(n=4)
        on = train(Model(tiny_spec(), 0), ds, TrainConfig(epochs=5, seed=1, augment=True))
        off = train(Model(tiny_spec(), 0), ds, TrainConfig(epochs=5, seed=1, augment=False))
        assert on != off

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
        ("augment", "no"), ("augment", 0),
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

    def test_dataset_subset_keeps_tags(self):
        ds = tiny_dataset(n=4)
        sub = ds.subset([2, 0])
        assert sub.tags == ["s2", "s0"]
        assert len(sub) == 2


class TestTransforms:
    def test_log10_relert(self):
        out = transform_targets("log10_relert", [1.0, 100.0, 1e6], clip_max=1e4)
        np.testing.assert_allclose(out, [0.0, 2.0, 4.0])

    def test_relhv_clip(self):
        out = transform_targets("relhv_clip", [-10.0, 0.5, 10.0])
        np.testing.assert_allclose(out, [-2.0, 0.5, 2.0])

    @pytest.mark.parametrize("kind, value", [
        ("log10_relert", 0.0), ("log10_relert", -1.0), ("log10_relert", np.nan), ("relhv_clip", np.nan),
    ])
    def test_invalid_value_rejected(self, kind, value):
        with pytest.raises(DataError):
            transform_targets(kind, [1.0, value])

    @pytest.mark.parametrize("clip_max", [0.0, -1.0, np.nan, np.inf, "a"])
    def test_invalid_clip_max_rejected(self, clip_max):
        with pytest.raises(ContractError, match="clip_max"):
            transform_targets("log10_relert", [1.0, 10.0], clip_max=clip_max)

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
            '"stack_count": 2, "encoder_channels": [2, 3], "residual_blocks": 0, "head_widths": [4], '
            '"target_transform": "log10_relert"}'
        ) in path.read_text()

    def test_spec_mismatch_rejected(self, tmp_path):
        model = Model(tiny_spec("combined"), seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(DataError):
            load_model(path, expect_spec=tiny_spec("separate"))

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
