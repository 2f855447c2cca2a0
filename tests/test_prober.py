import copy
import dataclasses
import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_neural import traced_peak
from test_suite import (
    SOO_CONFIGS,
    assert_matches_row_major_oracle,
    assert_same_bits,
    moo_row_major_oracle,
    row_major_oracle,
)

from contoursel import prober
from contoursel.errors import ContractError, DataError
from contoursel.prober import (
    FULL_DOMAIN,
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
from contoursel.suite import (
    MOO_FUNCTIONS, SOO_FUNCTIONS, ProblemId, evaluate_moo_batch, evaluate_soo_batch, make_instance,
)


def sphere_instance(d=2, seed=0, idx=0):
    pid = ProblemId(kind="soo", function_code="sphere", dimension=d, instance_index=idx)
    return make_instance(pid, seed)


def moo_instance(code, seed=0):
    return make_instance(ProblemId(kind="moo", function_code=code, dimension=2, instance_index=0), seed)


# The grid and the three finishing steps as first written, out of place.
# The prober's versions fill preallocated arrays and are pinned to these.
def grid_points_oracle(inst, axes, r, window):
    ax_a = np.linspace(window.lo[0], window.lo[0] + window.side[0], r)
    ax_b = np.linspace(window.lo[1], window.lo[1] + window.side[1], r)
    pts = np.zeros((inst.dimension, r * r))
    pts[axes[0]] = np.tile(ax_a, r)
    pts[axes[1]] = np.repeat(ax_b, r)
    return pts.T


def normalize_oracle(field):
    vals = np.asarray(field, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DataError("cannot normalize a field with NaN or inf values")
    lo, hi = vals.min(), vals.max()
    with np.errstate(over="ignore"):
        span = hi - lo
    if hi == lo:
        return np.full_like(vals, 0.5)
    if np.isfinite(span):
        return (vals - lo) / span
    return (vals * 0.5 - lo * 0.5) / (hi * 0.5 - lo * 0.5)


def quantize_levels_oracle(field, levels):
    v = np.minimum(np.asarray(field, dtype=float), 1.0 - 1e-12)
    return (np.floor(v * levels) + 0.5) / levels


def resize_bilinear_oracle(field, r_out):
    vals = np.asarray(field, dtype=float)
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


class TestPlanSlice:
    def test_d2_is_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert plan_slice(2, rng) == (0, 1)

    def test_reproducible(self):
        a = plan_slice(5, np.random.default_rng(7))
        b = plan_slice(5, np.random.default_rng(7))
        assert a == b
        assert a[0] < a[1] < 5
        assert type(a) is tuple and all(type(axis) is int for axis in a)

    def test_uniform_over_pairs_d3(self):
        rng = np.random.default_rng(123)
        counts = {}
        n = 10_000
        for _ in range(n):
            axes = plan_slice(3, rng)
            counts[axes] = counts.get(axes, 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        for c in counts.values():
            assert abs(c / n - 1 / 3) < 0.02

    def test_d1_invalid(self):
        with pytest.raises(ContractError):
            plan_slice(1, np.random.default_rng(0))

    @pytest.mark.parametrize("d", [3.0, "3", None, True])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(ContractError, match="slice dimension"):
            plan_slice(d, np.random.default_rng(0))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rng", [7, None, np.random.RandomState(0)])
    def test_rng_must_be_a_generator(self, d, rng):
        with pytest.raises(ContractError, match="Generator"):
            plan_slice(d, rng)

    # the pair plan_slice returns is what probe_grid takes and checks
    @pytest.mark.parametrize("axes", [(0,), (0, 1, 2), 5, [0, 1], None, (1, 1)])
    def test_axes_must_be_a_pair(self, axes):
        with pytest.raises(ContractError, match="slice axes"):
            probe_grid(sphere_instance(d=3), axes, 4)


class TestProbeGrid:
    def test_grid_coordinates_r3(self):
        inst = dataclasses.replace(sphere_instance(), x_opt=np.zeros(2), f_opt=0.0)
        f = probe_grid(inst, (0, 1), 3)
        # endpoint-inclusive grid over [-5, 5]: coordinates {-5, 0, 5}
        expected = np.array(
            [[50.0, 25.0, 50.0], [25.0, 0.0, 25.0], [50.0, 25.0, 50.0]]
        )
        np.testing.assert_allclose(f, expected)

    def test_minimum_on_grid_center(self):
        inst = dataclasses.replace(sphere_instance(), x_opt=np.zeros(2))
        f = probe_grid(inst, (0, 1), 5)
        b, a = np.unravel_index(np.argmin(f), f.shape)
        assert (b, a) == (2, 2)
        assert f[b, a] == pytest.approx(inst.f_opt)

    def test_row_is_second_coordinate(self):
        # a function increasing in x_1 only must vary along rows
        # optimum far below in x_1 direction
        inst = dataclasses.replace(sphere_instance(d=2), x_opt=np.array([0.0, -100.0]))
        f = probe_grid(inst, (0, 1), 4)
        col = f[:, 0]
        assert np.all(np.diff(col) > 0)

    @pytest.mark.parametrize("axes", [(2, -1), (-1, 0), (0, 3), (0, 5), (0.0, 1)])
    def test_slice_axes_outside_the_dimension_rejected(self, axes):
        with pytest.raises(ContractError, match="slice axes"):
            probe_grid(sphere_instance(d=3), axes, 4)

    @pytest.mark.parametrize("code, d", SOO_CONFIGS)
    def test_matches_row_major_oracle_on_the_old_grid(self, code, d):
        # the grid as first built: meshgrid, then row-major (r*r, d) points
        r = 41
        ax = np.linspace(-5.0, 5.0, r)
        grid_b, grid_a = np.meshgrid(ax, ax, indexing="ij")
        for idx, axes in enumerate([(0, 1), (0, d - 1), (d - 2, d - 1)]):
            inst = make_instance(ProblemId(kind="soo", function_code=code, dimension=d, instance_index=idx), 3)
            pts = np.zeros((r * r, d))
            pts[:, axes[0]] = grid_a.ravel()
            pts[:, axes[1]] = grid_b.ravel()
            assert_matches_row_major_oracle(probe_grid(inst, axes, r).ravel(), inst, pts)

    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_grid_equals_the_tile_repeat_grid(self, d):
        windows = [FULL_DOMAIN, sample_window(0.1, np.random.default_rng(d))]
        inst = sphere_instance(d=d)
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                for window in windows:
                    got = prober._grid(inst, (i, j), 7, window).points()
                    assert_same_bits(got, grid_points_oracle(inst, (i, j), 7, window))

    @pytest.mark.parametrize("code, d", SOO_CONFIGS)
    def test_open_grid_evaluates_to_the_bits_of_its_points(self, code, d):
        inst = make_instance(ProblemId(kind="soo", function_code=code, dimension=d, instance_index=1), 8)
        windows = [FULL_DOMAIN, sample_window(0.1, np.random.default_rng(d))]
        for axes, r, window in itertools.product(itertools.permutations(range(d), 2), (2, 7, 41), windows):
            grid = prober._grid(inst, axes, r, window)
            got = evaluate_soo_batch(inst, grid)
            assert len(grid) == r * r and got.shape == (r, r)
            assert_same_bits(got, evaluate_soo_batch(inst, grid.points()).reshape(r, r))

    @pytest.mark.parametrize("code", SOO_FUNCTIONS)
    def test_probing_memory_does_not_grow_with_dimension(self, code):
        """The grid goes to the evaluator in open form, so a 300 x 300 probe
        holds no (r*r, d) point matrix: its peak at d = 10, over every
        slice, is that of d = 2 up to small arrays, and under 3 MiB."""
        def peak(d, axes):
            inst = make_instance(ProblemId(kind="soo", function_code=code, dimension=d, instance_index=0), 1)
            return traced_peak(lambda: probe_grid(inst, axes, 300))

        base = peak(2, (0, 1))
        worst = max(peak(10, axes) for axes in itertools.permutations(range(10), 2))
        assert abs(worst - base) <= 64 * 1024 and worst < 3 * 2**20

    @pytest.mark.parametrize("code", MOO_FUNCTIONS)
    def test_moo_open_grid_evaluates_to_the_bits_of_its_points(self, code):
        inst = moo_instance(code, 8)
        for r, window in itertools.product((2, 7, 41), [FULL_DOMAIN, sample_window(0.1, np.random.default_rng(3))]):
            grid = prober._grid(inst, (0, 1), r, window)
            got = evaluate_moo_batch(inst, grid)
            assert got.shape == (r, r, 2)
            assert_same_bits(got, evaluate_moo_batch(inst, grid.points()).reshape(r, r, 2))
            assert all(plane.flags.c_contiguous for plane in probe_grid_moo(inst, r, window))

    @pytest.mark.parametrize("code", MOO_FUNCTIONS)
    def test_moo_probing_holds_no_point_matrix(self, code):
        """The window goes to the evaluator in open form and its terms are
        written in place: a 300 x 300 probe holds its (2, r, r) output and
        at most one more (r, r) array, not a (r*r, 2) point matrix."""
        inst = moo_instance(code, 1)
        window = sample_window(0.1, np.random.default_rng(0))
        assert traced_peak(lambda: probe_grid_moo(inst, 300, window)) < 2.5 * 2**20

    @pytest.mark.parametrize("code", MOO_FUNCTIONS)
    def test_moo_grid_matches_row_major_oracle(self, code):
        r = 41
        rng = np.random.default_rng(5)
        inst = moo_instance(code, 3)
        for window in [FULL_DOMAIN] + [sample_window(lam, rng) for lam in (0.1, 0.5, 1.0)]:
            ax_a = np.linspace(window.lo[0], window.lo[0] + window.side[0], r)
            ax_b = np.linspace(window.lo[1], window.lo[1] + window.side[1], r)
            grid_b, grid_a = np.meshgrid(ax_b, ax_a, indexing="ij")
            want = moo_row_major_oracle(inst, np.stack([grid_a.ravel(), grid_b.ravel()], axis=-1))
            f1, f2 = probe_grid_moo(inst, r, window=window)
            assert_same_bits(f1, want[:, 0].reshape(r, r))
            assert_same_bits(f2, want[:, 1].reshape(r, r))

    def test_moo_shared_grid_and_counter(self, monkeypatch):
        # both fields come from one evaluator call on one 16 x 16 grid
        calls = []
        evaluate = prober.evaluate_moo_batch
        monkeypatch.setattr(prober, "evaluate_moo_batch", lambda inst, xs: calls.append(len(xs)) or evaluate(inst, xs))
        f1, f2 = probe_grid_moo(moo_instance("bi_sphere", 1), 16)
        assert calls == [16 * 16]
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

    def test_zero_levels_rejected(self):
        with pytest.raises(ContractError, match="levels must be an integer >= 1"):
            quantize_levels([[0.12, 0.98]], 0)

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


@given(_SQUARE_FIELDS, st.integers(1, 40), st.integers(2, 12))
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


_CONSTANT_FIELDS = st.builds(np.full, st.sampled_from([(1, 1), (2, 2), (5, 5)]), _FINITE)


@given(st.one_of(_SQUARE_FIELDS, _CONSTANT_FIELDS), st.integers(1, 40), st.integers(2, 12))
@example(np.array([[-1e308, 0.0], [1.0, 1e308]]), 4, 3)  # the range overflows
@example(np.full((3, 3), -2.5), 16, 5)
def test_finishing_steps_byte_equal_to_out_of_place_oracles(raw, levels, r_out):
    norm = normalize(raw)
    assert_same_bits(norm, normalize_oracle(raw))
    quantized = quantize_levels(norm, levels)
    assert_same_bits(quantized, quantize_levels_oracle(norm, levels))
    assert_same_bits(resize_bilinear(quantized, r_out), resize_bilinear_oracle(quantized, r_out))


class TestWindow:
    @pytest.mark.parametrize("lo, side", [
        ((0.0, 0.0), (-1.0, -1.0)), ((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0)), (("0", 0.0), (1.0, 1.0)),
        ((np.nan, 0.0), (1.0, 1.0)), ((0.0, 0.0), (np.inf, 1.0)), ((0.0,), (1.0, 1.0)), ([0.0, 0.0], (1.0, 1.0)),
        ((0.0, 0.0), None), ((True, 0.0), (1.0, 1.0)),
    ])
    def test_bad_corner_or_side_rejected(self, lo, side):
        with pytest.raises(ContractError, match="window"):
            Window(lo=lo, side=side)

    @pytest.mark.parametrize("window", [None, ((0.0, 0.0), (1.0, 1.0)), {"lo": [0, 0], "side": [1, 1]}])
    def test_probe_grid_moo_needs_a_window(self, window):
        with pytest.raises(ContractError, match="Window"):
            probe_grid_moo(moo_instance("zdt1"), 4, window=window)

    def test_integer_corner_probes_like_floats(self):
        a = probe_grid_moo(moo_instance("bi_sphere"), 5, window=Window(lo=(-1, 0), side=(2, 3)))
        b = probe_grid_moo(moo_instance("bi_sphere"), 5, window=Window(lo=(-1.0, 0.0), side=(2.0, 3.0)))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


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
        for lam in (0.0, 1.5, True, "a", None):
            with pytest.raises(ContractError, match="window scale"):
                sample_window(lam, np.random.default_rng(0))

    @pytest.mark.parametrize("rng", [7, None, np.random.RandomState(0)])
    def test_rng_must_be_a_generator(self, rng):
        with pytest.raises(ContractError, match="Generator"):
            sample_window(0.1, rng)
        with pytest.raises(ContractError, match="Generator"):
            build_moo_stacks(moo_instance("zdt1"), rng, r_probe=8, r_out=4)


class TestStacks:
    def test_soo_budget_and_range(self):
        stack = build_soo_stack(
            "rastrigin", 3, instance_seeds=[1, 2, 3, 4, 5], slice_seed=7,
            r_probe=50, r_out=16,
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

    def test_evaluations_spent_is_what_the_evaluators_received(self, monkeypatch):
        received = []

        def counting(evaluate):
            return lambda inst, xs: received.append(len(xs)) or evaluate(inst, xs)

        monkeypatch.setattr(prober, "evaluate_soo_batch", counting(prober.evaluate_soo_batch))
        monkeypatch.setattr(prober, "evaluate_moo_batch", counting(prober.evaluate_moo_batch))
        for code, d in SOO_CONFIGS:
            received.clear()
            stack = build_soo_stack(code, d, [1, 2, 3, 4, 5], 7, r_probe=12, r_out=4)
            assert stack.evaluations_spent == sum(received) == 5 * 12 * 12
        for code in MOO_FUNCTIONS:
            received.clear()
            pair = build_moo_stacks(moo_instance(code), np.random.default_rng(0), r_probe=12, r_out=4)
            assert [s.evaluations_spent for s in pair] == [sum(received)] * 2 == [5 * 12 * 12] * 2

    def test_resize_does_not_change_budget(self):
        common = dict(instance_seeds=[1, 2, 3, 4, 5], slice_seed=0, r_probe=40)
        small = build_soo_stack("sphere", 2, r_out=16, **common)
        large = build_soo_stack("sphere", 2, r_out=32, **common)
        assert small.evaluations_spent == large.evaluations_spent == 5 * 40 * 40

    @pytest.mark.parametrize("bad", [dict(r_out=2.5), dict(r_probe=2.5), dict(r_out="16")])
    def test_non_integer_resolution_or_levels_rejected(self, bad):
        kwargs = dict(instance_seeds=[1, 2, 3, 4, 5], slice_seed=0, r_probe=10, r_out=4) | bad
        with pytest.raises(ContractError, match="integer"):
            build_soo_stack("sphere", 2, **kwargs)
        pid = ProblemId(kind="moo", function_code="zdt1", dimension=2, instance_index=0)
        kwargs = {k: v for k, v in kwargs.items() if k not in ("instance_seeds", "slice_seed")}
        with pytest.raises(ContractError, match="integer"):
            build_moo_stacks(make_instance(pid, 0), np.random.default_rng(0), **kwargs)

    def test_soo_stacks_byte_equal_to_row_major_oracle(self, monkeypatch):
        fast = [build_soo_stack(code, d, [11, 12, 13, 14, 15], 7, r_probe=24, r_out=8) for code, d in SOO_CONFIGS]
        monkeypatch.setattr(prober, "evaluate_soo_batch", row_major_oracle)
        for (code, d), new in zip(SOO_CONFIGS, fast):
            old = build_soo_stack(code, d, [11, 12, 13, 14, 15], 7, r_probe=24, r_out=8)
            assert new.views.tobytes() == old.views.tobytes()
            assert (new.source, new.evaluations_spent) == (old.source, old.evaluations_spent)

    def test_views_are_one_array(self):
        stack = build_soo_stack("sphere", 2, instance_seeds=[1, 2, 3, 4, 5], slice_seed=0, r_probe=10, r_out=4)
        assert stack.views.shape == (5, 4, 4)
        view = stack.as_array()
        with pytest.raises(ValueError, match="read-only"):
            view[...] = -1.0
        assert stack.views.min() >= 0.0

    def test_as_array_is_a_read_only_view_of_the_views(self):
        stack = build_soo_stack("sphere", 2, instance_seeds=[1, 2, 3, 4, 5], slice_seed=0, r_probe=10, r_out=4)
        view = stack.as_array()
        assert np.shares_memory(view, stack.views) and view.tobytes() == stack.views.tobytes()
        assert view.dtype == np.float64 and view.shape == (5, 4, 4) and not view.flags.writeable
        assert stack.views.flags.writeable

    def test_needs_five_seeds(self):
        with pytest.raises(ContractError):
            build_soo_stack("sphere", 2, instance_seeds=[1, 2], slice_seed=0, r_probe=10, r_out=4)

    @pytest.mark.parametrize("seeds", [[1.5] * 5, 5, None, [1, 2, 3, 4, True], "abcde"])
    def test_instance_seeds_must_be_five_integers(self, seeds):
        with pytest.raises(ContractError, match="instance_seeds"):
            build_soo_stack("sphere", 2, instance_seeds=seeds, slice_seed=0, r_probe=10, r_out=4)

    @pytest.mark.parametrize("slice_seed, numpy_seed", [(7, np.int64(7)), (-3, np.int32(-3))])
    def test_numpy_integer_slice_seed_gives_the_same_stack(self, slice_seed, numpy_seed):
        want, got = (build_soo_stack("ackley", 10, [1, 2, 3, 4, 5], s, r_probe=12, r_out=8)
                     for s in (slice_seed, numpy_seed))
        assert got.views.tobytes() == want.views.tobytes() and got.source == want.source

    @pytest.mark.parametrize("slice_seed", [0.5, "0", None, True])
    def test_slice_seed_must_be_an_integer(self, slice_seed):
        with pytest.raises(ContractError, match="slice_seed"):
            build_soo_stack("sphere", 2, instance_seeds=[1, 2, 3, 4, 5], slice_seed=slice_seed, r_probe=10, r_out=4)

    def test_seeds_may_be_numpy_integers(self):
        plain = build_soo_stack("sphere", 3, [1, 2, 3, 4, 5], 6, r_probe=10, r_out=4)
        numpy = build_soo_stack("sphere", 3, np.arange(1, 6), np.int64(6), r_probe=10, r_out=4)
        assert plain.views.tobytes() == numpy.views.tobytes() and plain.source == numpy.source

    def test_moo_stacks_byte_equal_to_out_of_place_oracles(self, monkeypatch):
        def stacks():
            return [
                build_moo_stacks(moo_instance(code, 9), np.random.default_rng(4), lam=lam, r_probe=24, r_out=8)
                for code in MOO_FUNCTIONS
                for lam in (0.1, 1.0)
            ]

        def evaluate_points(inst, grid):
            """The oracle on the grid's points, its pairs in the grid's (r, r) shape."""
            pts = grid.points()
            r = math.isqrt(len(pts))
            return moo_row_major_oracle(inst, pts).reshape(r, r, 2)

        fast = stacks()
        monkeypatch.setattr(prober, "evaluate_moo_batch", evaluate_points)
        monkeypatch.setattr(prober, "_grid",
                            lambda *args: types.SimpleNamespace(points=lambda: grid_points_oracle(*args)))
        monkeypatch.setattr(prober, "normalize", normalize_oracle)
        monkeypatch.setattr(prober, "quantize_levels", quantize_levels_oracle)
        monkeypatch.setattr(prober, "resize_bilinear", resize_bilinear_oracle)
        for new_pair, old_pair in zip(fast, stacks(), strict=True):
            for new, old in zip(new_pair, old_pair):
                assert new.views.tobytes() == old.views.tobytes()
                assert (new.source, new.evaluations_spent) == (old.source, old.evaluations_spent)

    def test_moo_stacks_share_windows(self):
        pid = ProblemId(kind="moo", function_code="zdt1", dimension=2, instance_index=0)
        inst = make_instance(pid, 0)
        s1, s2 = build_moo_stacks(inst, np.random.default_rng(0), r_probe=30, r_out=12)
        assert s1.source == s2.source
        assert len(s1.views) == len(s2.views) == 5
        assert s1.evaluations_spent == s2.evaluations_spent == 5 * 30 * 30

    def test_moo_stacks_share_no_source_object(self):
        """Provenance written into one stack's source stays out of the other's."""
        s1, s2 = build_moo_stacks(moo_instance("bi_sphere"), np.random.default_rng(0), r_probe=8, r_out=4)
        assert s1.source == s2.source and s1.source is not s2.source
        before = copy.deepcopy(s2.source)
        for entry in s1.source:
            entry["raw_range"] = [0.0, 1.0]
            entry["window"]["lo"][0] = 99.0
            entry["window"]["side"].append(1.0)
        assert s2.source == before

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
