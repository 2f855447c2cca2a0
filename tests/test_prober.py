import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contoursel.errors import ContractError, DataError
from contoursel.prober import (
    EvalCounter,
    SlicePlan,
    Window,
    build_moo_stacks,
    build_soo_stack,
    normalize,
    plan_slice,
    probe_grid,
    probe_grid_moo,
    quantize_levels,
    resize_bilinear,
    sample_window,
    write_pgm,
)
from contoursel.suite import ProblemId, make_instance


def sphere_instance(d=2, seed=0, idx=0):
    pid = ProblemId(kind="soo", function_code="sphere", dimension=d, instance_index=idx)
    return make_instance(pid, seed)


class TestPlanSlice:
    def test_d2_is_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert plan_slice(2, rng).axes == (0, 1)

    def test_reproducible(self):
        a = plan_slice(5, np.random.default_rng(7))
        b = plan_slice(5, np.random.default_rng(7))
        assert a == b
        assert a.axes[0] < a.axes[1] < 5

    def test_uniform_over_pairs_d3(self):
        rng = np.random.default_rng(123)
        counts = {}
        n = 10_000
        for _ in range(n):
            axes = plan_slice(3, rng).axes
            counts[axes] = counts.get(axes, 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        for c in counts.values():
            assert abs(c / n - 1 / 3) < 0.02

    def test_d1_invalid(self):
        with pytest.raises(ContractError):
            plan_slice(1, np.random.default_rng(0))


class TestProbeGrid:
    def test_grid_coordinates_r3(self):
        inst = sphere_instance()
        inst.x_opt[:] = 0.0
        object.__setattr__(inst, "f_opt", 0.0)
        f = probe_grid(inst, SlicePlan(axes=(0, 1)), 3)
        # endpoint-inclusive grid over [-5, 5]: coordinates {-5, 0, 5}
        expected = np.array(
            [[50.0, 25.0, 50.0], [25.0, 0.0, 25.0], [50.0, 25.0, 50.0]]
        )
        np.testing.assert_allclose(f, expected)

    def test_minimum_on_grid_center(self):
        inst = sphere_instance()
        inst.x_opt[:] = 0.0
        f = probe_grid(inst, SlicePlan(axes=(0, 1)), 5)
        b, a = np.unravel_index(np.argmin(f), f.shape)
        assert (b, a) == (2, 2)
        assert f[b, a] == pytest.approx(inst.f_opt)

    def test_evaluation_counter(self):
        inst = sphere_instance()
        counter = EvalCounter()
        probe_grid(inst, SlicePlan(axes=(0, 1)), 300, counter=counter)
        assert counter.spent == 90_000

    def test_row_is_second_coordinate(self):
        # a function increasing in x_1 only must vary along rows
        inst = sphere_instance(d=2)
        inst.x_opt[:] = [0.0, -100.0]  # optimum far below in x_1 direction
        f = probe_grid(inst, SlicePlan(axes=(0, 1)), 4)
        col = f[:, 0]
        assert np.all(np.diff(col) > 0)

    def test_moo_shared_grid_and_counter(self):
        pid = ProblemId(kind="moo", function_code="bi_sphere", dimension=2, instance_index=0)
        inst = make_instance(pid, 1)
        counter = EvalCounter()
        f1, f2 = probe_grid_moo(inst, 16, counter=counter)
        assert counter.spent == 2 * 16 * 16
        assert f1.shape == f2.shape == (16, 16)


class TestNormalize:
    def test_simple(self):
        f = normalize([[0.0, 2.0], [4.0, 4.0]])
        np.testing.assert_allclose(f, [[0.0, 0.5], [1.0, 1.0]])

    def test_constant_becomes_half(self):
        f = normalize([[3.0, 3.0], [3.0, 3.0]])
        assert np.all(f == 0.5)

    def test_output_hits_exact_bounds(self):
        rng = np.random.default_rng(0)
        f = normalize(rng.normal(size=(8, 8)))
        assert f.min() == 0.0
        assert f.max() == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        once = normalize(rng.normal(size=(6, 6)))
        twice = normalize(once)
        np.testing.assert_array_equal(once, twice)

    def test_overflowing_range_stays_finite(self):
        f = normalize([[-1e308, 0.0], [1.0, 1e308]])
        assert np.all(np.isfinite(f))
        assert f.min() == 0.0 and f.max() == 1.0
        np.testing.assert_allclose(f, [[0.0, 0.5], [0.5, 1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            normalize([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(DataError):
            normalize([[0.0, np.inf], [1.0, 2.0]])


class TestQuantize:
    def test_two_levels(self):
        f = quantize_levels([[0.3, 0.9]], 2)
        np.testing.assert_allclose(f, [[0.25, 0.75]])

    def test_zero_levels_identity(self):
        raw = [[0.12, 0.98]]
        f = quantize_levels(raw, 0)
        np.testing.assert_array_equal(f, raw)

    def test_values_outside_unit_interval_rejected(self):
        for vals in ([[5.0, 0.5]], [[-3.0, 0.5]], [[np.nan, 0.5]]):
            with pytest.raises(ContractError, match="normalized"):
                quantize_levels(vals, 4)

    def test_top_value_clamps_into_last_band(self):
        f = quantize_levels([[1.0, 0.0]], 4)
        np.testing.assert_allclose(f, [[0.875, 0.125]])


class TestResize:
    def test_hand_bilinear_2x2_to_3x3(self):
        f = resize_bilinear([[0.0, 1.0], [2.0, 3.0]], 3)
        expected = [[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]]
        np.testing.assert_allclose(f, expected)

    def test_identity_resize(self):
        vals = np.random.default_rng(0).random((5, 5))
        f = resize_bilinear(vals, 5)
        np.testing.assert_array_equal(f, vals)

    def test_constant_stays_constant(self):
        f = resize_bilinear(np.full((4, 4), 0.7), 9)
        np.testing.assert_allclose(f, 0.7)

    def test_corners_preserved(self):
        vals = np.random.default_rng(3).random((7, 7))
        out = resize_bilinear(vals, 13)
        assert out[0, 0] == vals[0, 0]
        assert out[0, -1] == vals[0, -1]
        assert out[-1, 0] == vals[-1, 0]
        assert out[-1, -1] == vals[-1, -1]

    def test_downscale_stays_in_range(self):
        vals = np.random.default_rng(4).random((30, 30))
        out = resize_bilinear(vals, 8)
        assert out.min() >= vals.min() - 1e-12
        assert out.max() <= vals.max() + 1e-12

    @pytest.mark.parametrize("shape", [(3, 5), (4,), (2, 3, 3), (0, 0)])
    def test_non_square_field_rejected(self, shape):
        with pytest.raises(ContractError, match="square"):
            resize_bilinear(np.zeros(shape), 4)


# the extremes are drawn on their own too, so that a field's range overflows
_FINITE = st.one_of(st.floats(-1e308, 1e308, allow_nan=False), st.sampled_from([-1e308, 1e308]))
_SQUARE_FIELDS = st.integers(1, 8).flatmap(lambda n: arrays(np.float64, (n, n), elements=_FINITE))


@given(_SQUARE_FIELDS, st.integers(0, 40), st.integers(2, 12))
def test_views_stay_in_unit_interval(raw, levels, r_out):
    """normalize spans [0, 1] exactly (a constant field is all 0.5), and
    quantizing and resizing the result keep it inside [0, 1]."""
    norm = normalize(raw)
    if np.all(raw == raw.flat[0]):
        assert np.all(norm == 0.5)
    else:
        assert norm.min() == 0.0 and norm.max() == 1.0
    quantized = quantize_levels(norm, levels)
    for out in (norm, quantized, resize_bilinear(quantized, r_out)):
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestSampleWindow:
    def test_side_from_lambda(self):
        w = sample_window(0.1, np.random.default_rng(0))
        assert w.side == (1.0, 1.0)

    def test_lambda_one_is_full_domain(self):
        w = sample_window(1.0, np.random.default_rng(0))
        assert w.lo == (-5.0, -5.0)
        assert w.side == (10.0, 10.0)

    def test_containment(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            w = sample_window(0.25, rng)
            for k in range(2):
                assert w.lo[k] >= -5.0
                assert w.lo[k] + w.side[k] <= 5.0

    def test_invalid_lambda(self):
        with pytest.raises(ContractError):
            sample_window(0.0, np.random.default_rng(0))
        with pytest.raises(ContractError):
            sample_window(1.5, np.random.default_rng(0))


class TestStacks:
    def test_soo_budget_and_range(self):
        stack = build_soo_stack(
            "rastrigin", 3, instance_seeds=[1, 2, 3, 4, 5], slice_seed=7,
            r_probe=50, r_out=16, levels=8,
        )
        assert stack.evaluations_spent == 5 * 50 * 50
        arr = stack.as_array()
        assert arr.shape == (5, 16, 16)
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_soo_full_budget_accounting(self):
        stack = build_soo_stack(
            "sphere", 2, instance_seeds=[0, 1, 2, 3, 4], slice_seed=0,
            r_probe=300, r_out=64,
        )
        assert stack.evaluations_spent == 450_000

    def test_soo_deterministic(self):
        kwargs = dict(instance_seeds=[9, 8, 7, 6, 5], slice_seed=3, r_probe=40, r_out=16)
        a = build_soo_stack("ackley", 5, **kwargs)
        b = build_soo_stack("ackley", 5, **kwargs)
        np.testing.assert_array_equal(a.as_array(), b.as_array())
        assert a.source == b.source

    def test_resize_does_not_change_budget(self):
        common = dict(instance_seeds=[1, 2, 3, 4, 5], slice_seed=0, r_probe=40)
        small = build_soo_stack("sphere", 2, r_out=16, **common)
        large = build_soo_stack("sphere", 2, r_out=32, **common)
        assert small.evaluations_spent == large.evaluations_spent == 5 * 40 * 40

    @pytest.mark.parametrize("bad", [dict(r_out=2.5), dict(r_probe=2.5), dict(levels=2.5), dict(r_out="16")])
    def test_non_integer_resolution_or_levels_rejected(self, bad):
        kwargs = dict(instance_seeds=[1, 2, 3, 4, 5], slice_seed=0, r_probe=10, r_out=4, levels=4) | bad
        with pytest.raises(ContractError, match="integer"):
            build_soo_stack("sphere", 2, **kwargs)
        pid = ProblemId(kind="moo", function_code="zdt1", dimension=2, instance_index=0)
        kwargs = {k: v for k, v in kwargs.items() if k not in ("instance_seeds", "slice_seed")}
        with pytest.raises(ContractError, match="integer"):
            build_moo_stacks(make_instance(pid, 0), np.random.default_rng(0), **kwargs)

    def test_views_are_one_array(self):
        stack = build_soo_stack("sphere", 2, instance_seeds=[1, 2, 3, 4, 5], slice_seed=0, r_probe=10, r_out=4)
        assert stack.views.shape == (5, 4, 4) and stack.resolution == 4
        copy = stack.as_array()
        copy[...] = -1.0
        assert stack.views.min() >= 0.0

    def test_needs_five_seeds(self):
        with pytest.raises(ContractError):
            build_soo_stack("sphere", 2, instance_seeds=[1, 2], slice_seed=0, r_probe=10, r_out=4)

    def test_moo_stacks_share_windows(self):
        pid = ProblemId(kind="moo", function_code="zdt1", dimension=2, instance_index=0)
        inst = make_instance(pid, 0)
        s1, s2 = build_moo_stacks(inst, np.random.default_rng(0), r_probe=30, r_out=12)
        assert s1.source == s2.source
        assert len(s1.views) == len(s2.views) == 5
        assert s1.evaluations_spent == s2.evaluations_spent == 5 * 30 * 30

    def test_moo_repetitions_distinct(self):
        pid = ProblemId(kind="moo", function_code="zdt3", dimension=2, instance_index=0)
        inst = make_instance(pid, 0)
        seen = set()
        for rep in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([11, rep]))
            s1, _ = build_moo_stacks(inst, rng, r_probe=20, r_out=8)
            seen.add(json.dumps(s1.source))
        assert len(seen) == 20


class TestWritePgm:
    def test_constant_half_bytes(self, tmp_path):
        path = tmp_path / "half.pgm"
        write_pgm(np.full((4, 4), 0.5), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 4\n255\n")
        assert data[len(b"P5\n4 4\n255\n"):] == bytes([128] * 16)

    def test_extreme_values(self, tmp_path):
        path = tmp_path / "ramp.pgm"
        write_pgm([[0.0, 1.0], [0.0, 1.0]], path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert body == bytes([0, 255, 0, 255])

    def test_row_zero_is_top(self, tmp_path):
        # values[1, :] (larger second coordinate) must land in the first row
        path = tmp_path / "flip.pgm"
        write_pgm([[0.0, 0.0], [1.0, 1.0]], path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert body == bytes([255, 255, 0, 0])

    def test_byte_identical_rewrites(self, tmp_path):
        vals = np.random.default_rng(0).random((9, 9))
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        write_pgm(vals, p1)
        write_pgm(vals, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_unnormalized(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm([[-0.2, 0.5]], tmp_path / "bad.pgm")
        with pytest.raises(DataError):
            write_pgm([[np.nan, 0.5]], tmp_path / "nan.pgm")

    def test_rejects_a_stack(self, tmp_path):
        with pytest.raises(ContractError, match="2-D"):
            write_pgm(np.full((5, 4, 4), 0.5), tmp_path / "stack.pgm")


@pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
@pytest.mark.parametrize("step", ["normalize", "quantize_levels", "write_pgm"])
def test_empty_field_rejected(step, shape, tmp_path):
    calls = {
        "normalize": normalize,
        "quantize_levels": lambda f: quantize_levels(f, 4),
        "write_pgm": lambda f: write_pgm(f, tmp_path / "empty.pgm"),
    }
    with pytest.raises(ContractError, match="empty"):
        calls[step](np.zeros(shape))
