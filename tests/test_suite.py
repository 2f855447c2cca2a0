import dataclasses

import numpy as np
import pytest

from contoursel import suite
from contoursel.errors import ContractError, DataError, InvalidProblemError
from contoursel.perfdata import nondominated_2d
from contoursel.suite import (
    MOO_FUNCTIONS,
    SOO_DIMENSIONS,
    SOO_FUNCTIONS,
    OpenGrid,
    ProblemId,
    evaluate_moo_batch,
    evaluate_soo_batch,
    make_instance,
    pareto_front_points,
    true_group,
)


def soo_id(code="sphere", d=2, idx=0):
    return ProblemId(kind="soo", function_code=code, dimension=d, instance_index=idx)


SOO_CONFIGS = [(code, d) for code in SOO_FUNCTIONS for d in SOO_DIMENSIONS]


# The eight formulas as first written: row-major (n, d) shifted points,
# reduced over the last axis, the whole batch at once.  evaluate_soo_batch
# evaluates coordinate-major blocks instead and is pinned to this oracle.
def _row_major_formulas():
    def ellipsoid(z):
        d = z.shape[-1]
        return np.sum(10.0 ** (6.0 * np.arange(d) / (d - 1)) * z * z, axis=-1)

    def rastrigin(z):
        return 10.0 * (z.shape[-1] - np.sum(np.cos(2.0 * np.pi * z), axis=-1)) + np.sum(z * z, axis=-1)

    def rosenbrock(z):
        a, b = z[..., :-1], z[..., 1:]
        return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=-1)

    def griewank(z):
        idx = np.sqrt(np.arange(1, z.shape[-1] + 1, dtype=float))
        return np.sum(z * z, axis=-1) / 4000.0 - np.prod(np.cos(z / idx), axis=-1) + 1.0

    def ackley(z):
        d = z.shape[-1]
        rms = np.sqrt(np.sum(z * z, axis=-1) / d)
        mean_cos = np.sum(np.cos(2.0 * np.pi * z), axis=-1) / d
        return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + np.e

    return {
        "sphere": lambda z: np.sum(z * z, axis=-1),
        "ellipsoid": ellipsoid,
        "rastrigin": rastrigin,
        "rosenbrock": rosenbrock,
        "discus": lambda z: 1e6 * z[..., 0] ** 2 + np.sum(z[..., 1:] ** 2, axis=-1),
        "bent_cigar": lambda z: z[..., 0] ** 2 + 1e6 * np.sum(z[..., 1:] ** 2, axis=-1),
        "griewank": griewank,
        "ackley": ackley,
    }


_ROW_MAJOR = _row_major_formulas()


def row_major_oracle(inst, xs):
    """evaluate_soo_batch of a (n, d) batch, row-major and unblocked; an
    OpenGrid is expanded into its points, and the values take its shape."""
    if isinstance(xs, OpenGrid):
        return row_major_oracle(inst, xs.points()).reshape(xs.shape)
    z = np.asarray(xs, dtype=float, order="C") - inst.x_opt
    if inst.id.function_code == "rosenbrock":
        z = z + 1.0
    return _ROW_MAJOR[inst.id.function_code](z) + inst.f_opt


# Below eight terms numpy sums the last axis in order, as the formulas' sum
# over rows does, so d <= 5 agrees bit for bit.  At d = 10 the last-axis sum
# adds eight partial sums, and values may move by a few units in the last
# place (ulps) of the terms' scale |f - f_opt| + |f_opt|; 4 was the largest
# seen on random points and probe grids.
ORACLE_ULPS = 4


def assert_matches_row_major_oracle(values, inst, xs):
    want = row_major_oracle(inst, xs)
    if inst.dimension < 8:
        np.testing.assert_array_equal(values, want)
    else:
        scale = np.abs(want - inst.f_opt) + abs(inst.f_opt)
        assert np.all(np.abs(values - want) <= ORACLE_ULPS * np.spacing(scale))


def moo_row_major_oracle(inst, xs):
    """evaluate_moo_batch as first written: row-major (n, 2) points, the two
    objectives summed over the last axis and interleaved by np.stack."""
    xs = np.asarray(xs, dtype=float)
    code = inst.id.function_code
    if code == "bi_sphere":
        a, b = inst.centers
        return np.stack([np.sum((xs - a) ** 2, axis=-1), np.sum((xs - b) ** 2, axis=-1)], axis=-1)
    u = (xs - suite.DOMAIN_LO) / (suite.DOMAIN_HI - suite.DOMAIN_LO)
    f1, g = u[:, 0], 1.0 + 9.0 * u[:, 1]
    return np.stack([f1, moo_row_major_f2(code, f1, g)], axis=-1)


def moo_row_major_f2(code, f1, g):
    """ZDT's second objective out of place, as first written."""
    ratio = f1 / g
    if code == "zdt1":
        return g * (1.0 - np.sqrt(ratio))
    if code == "zdt2":
        return g * (1.0 - ratio**2)
    return g * (1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * f1))


def assert_same_bits(got, want):
    """Same shape and the same float64 bytes (unlike ==, -0.0 differs from 0.0)."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def moo_id(code="zdt1", idx=0):
    return ProblemId(kind="moo", function_code=code, dimension=2, instance_index=idx)


def test_make_instance_deterministic():
    a = make_instance(soo_id(), 1234)
    b = make_instance(soo_id(), 1234)
    assert np.array_equal(a.x_opt, b.x_opt)
    assert a.f_opt == b.f_opt


def test_function_order_is_fixed():
    # a function's index in this order salts the stream of each of its
    # instances, so reordering the list would move every shift and optimum
    assert SOO_FUNCTIONS + MOO_FUNCTIONS == (
        "sphere", "ellipsoid", "rastrigin", "rosenbrock", "discus", "bent_cigar", "griewank", "ackley",
        "zdt1", "zdt2", "zdt3", "bi_sphere",
    )


def test_different_seeds_give_different_shifts():
    a = make_instance(soo_id(), 1)
    b = make_instance(soo_id(), 2)
    assert not np.array_equal(a.x_opt, b.x_opt)


def test_different_instance_indices_differ():
    a = make_instance(soo_id(idx=0), 7)
    b = make_instance(soo_id(idx=1), 7)
    assert not np.array_equal(a.x_opt, b.x_opt)


def test_optimum_value_at_x_opt():
    for code in SOO_FUNCTIONS:
        for d in (2, 3, 5, 10):
            inst = make_instance(soo_id(code, d), 99)
            assert evaluate_soo_batch(inst, inst.x_opt[None])[0] == pytest.approx(inst.f_opt, abs=1e-12)


def test_shift_sampling_range():
    coords = []
    for seed in range(1000):
        inst = make_instance(soo_id("rastrigin", 3), seed)
        coords.append(inst.x_opt)
    coords = np.concatenate(coords)
    assert coords.min() >= -4.0 and coords.max() <= 4.0
    # the empirical range should nearly fill [-4, 4]
    assert coords.min() < -3.9 and coords.max() > 3.9


def unshifted(inst):
    """inst with a zero shift in decision and objective space."""
    return dataclasses.replace(inst, x_opt=np.zeros(inst.dimension), f_opt=0.0)


def test_sphere_hand_value():
    # a zero shift checks the raw formula
    inst = unshifted(make_instance(soo_id(), 0))
    assert evaluate_soo_batch(inst, [[3.0, 4.0]])[0] == 25.0


def test_rosenbrock_hand_value():
    inst = unshifted(make_instance(soo_id("rosenbrock", 2), 0))
    # z = x - x_opt + 1 = (1, 1) at the origin, so the valley bottom sits there
    assert evaluate_soo_batch(inst, [[0.0, 0.0]])[0] == 0.0
    # hand evaluation at x = (1, 0): z = (2, 1) -> 100*(4-1)^2 + (2-1)^2 = 901
    assert evaluate_soo_batch(inst, [[1.0, 0.0]])[0] == pytest.approx(901.0)


def test_shift_covariance():
    rng = np.random.default_rng(5)
    for code in SOO_FUNCTIONS:
        shifted = make_instance(soo_id(code, 3), 11)
        base = unshifted(make_instance(soo_id(code, 3), 12))
        xs = rng.uniform(-1, 1, size=(20, 3))
        lhs = evaluate_soo_batch(shifted, xs + shifted.x_opt)
        rhs = evaluate_soo_batch(base, xs) + shifted.f_opt
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-9)


@pytest.mark.parametrize("code, d", SOO_CONFIGS)
def test_batch_matches_row_major_oracle_on_random_points(code, d):
    rng = np.random.default_rng(d)
    for idx in range(3):
        inst = make_instance(soo_id(code, d, idx), 17)
        xs = rng.uniform(-5.0, 5.0, size=(3000, d))
        assert_matches_row_major_oracle(evaluate_soo_batch(inst, xs), inst, xs)


@pytest.mark.parametrize("code, d", SOO_CONFIGS)
def test_memory_layout_and_block_boundaries_change_no_bit(code, d):
    block = suite.BLOCK_POINTS
    inst = make_instance(soo_id(code, d), 5)
    xs = np.random.default_rng(1).uniform(-5.0, 5.0, size=(block + 2, d))
    whole = evaluate_soo_batch(inst, xs)
    np.testing.assert_array_equal(evaluate_soo_batch(inst, np.asfortranarray(xs)), whole)
    for n in (0, 1, block - 1, block + 1):
        np.testing.assert_array_equal(evaluate_soo_batch(inst, xs[:n]), whole[:n])
        np.testing.assert_array_equal(evaluate_soo_batch(inst, xs[n:]), whole[n:])
    singles = [evaluate_soo_batch(inst, xs[i : i + 1]) for i in range(block - 2, block + 2)]
    np.testing.assert_array_equal(np.concatenate(singles), whole[block - 2 : block + 2])


@pytest.mark.parametrize("code", MOO_FUNCTIONS)
def test_moo_batch_matches_row_major_oracle_on_random_points(code):
    rng = np.random.default_rng(len(code))
    for idx in range(3):
        inst = make_instance(moo_id(code, idx), 17)
        xs = rng.uniform(-5.0, 5.0, size=(3000, 2))
        xs[:4] = [[-5.0, -5.0], [5.0, 5.0], [-5.0, 5.0], [0.0, -5.0]]  # the domain's corners and edges
        assert_same_bits(evaluate_moo_batch(inst, xs), moo_row_major_oracle(inst, xs))


@pytest.mark.parametrize("code", MOO_FUNCTIONS)
def test_moo_memory_layout_and_block_boundaries_change_no_bit(code):
    block = suite.BLOCK_POINTS
    inst = make_instance(moo_id(code), 5)
    xs = np.random.default_rng(2).uniform(-5.0, 5.0, size=(block + 2, 2))
    whole = evaluate_moo_batch(inst, xs)
    assert_same_bits(evaluate_moo_batch(inst, np.asfortranarray(xs)), whole)
    for n in (0, 1, block - 1, block + 1):
        assert_same_bits(evaluate_moo_batch(inst, xs[:n]), whole[:n])
        assert_same_bits(evaluate_moo_batch(inst, xs[n:]), whole[n:])
    singles = [evaluate_moo_batch(inst, xs[i : i + 1]) for i in range(block - 2, block + 2)]
    assert_same_bits(np.concatenate(singles), whole[block - 2 : block + 2])


@pytest.mark.parametrize("code", MOO_FUNCTIONS)
def test_moo_batch_objective_columns_are_contiguous(code):
    pairs = evaluate_moo_batch(make_instance(moo_id(code), 1), np.zeros((10, 2)))
    assert pairs.shape == (10, 2)
    assert pairs[:, 0].flags.c_contiguous and pairs[:, 1].flags.c_contiguous


@pytest.mark.parametrize("code", ["zdt1", "zdt2", "zdt3"])
@pytest.mark.parametrize("point", [(-6.0, -6.0), (5.5, 0.0), (0.0, -5.000001), (0.0, 5.000001)])
def test_zdt_points_outside_the_domain_rejected(code, point):
    inst = make_instance(moo_id(code), 0)
    xs = np.zeros((suite.BLOCK_POINTS + 1, 2))
    xs[-1] = point  # in the second block, so every block is checked
    for bad in (xs, [point]):
        with pytest.raises(DataError, match=r"domain \[-5.0, 5.0\]\^2"):
            evaluate_moo_batch(inst, bad)


def test_bi_sphere_is_defined_outside_the_domain():
    inst = make_instance(moo_id("bi_sphere"), 0)
    xs = np.array([[-6.0, -6.0], [50.0, 0.0]])
    assert_same_bits(evaluate_moo_batch(inst, xs), moo_row_major_oracle(inst, xs))


@pytest.mark.parametrize("seed", [1.5, "a", True, None, np.float64(1.0)])
def test_non_integer_instance_seed_rejected(seed):
    with pytest.raises(ContractError, match="instance seed"):
        make_instance(soo_id(), seed)
    with pytest.raises(ContractError, match="instance seed"):
        make_instance(moo_id("bi_sphere"), seed)


@pytest.mark.parametrize("seed, numpy_seed", [(3, np.int64(3)), (-1, np.int16(-1)), (2**63 + 5, np.uint64(2**63 + 5))])
@pytest.mark.parametrize("pid", [soo_id("rastrigin", 5), moo_id("bi_sphere")], ids=["soo", "bi_sphere"])
def test_numpy_integer_instance_seed_gives_the_same_instance(pid, seed, numpy_seed):
    want, got = make_instance(pid, seed), make_instance(pid, numpy_seed)
    assert type(got.seed) is int and got.seed == seed
    for a, b in ((want.x_opt, got.x_opt), (want.f_opt, got.f_opt), *zip(want.centers or (), got.centers or ())):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("pid", [soo_id("rastrigin", 5), moo_id("bi_sphere")], ids=["soo", "bi_sphere"])
def test_instance_arrays_are_read_only(pid):
    """A write to a shift would silently move every later evaluation."""
    def shifts(inst):
        return [inst.x_opt] if pid.kind == "soo" else list(inst.centers)

    inst = make_instance(pid, 3)
    for arr in shifts(inst):
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = 0.0
    assert [a.tobytes() for a in shifts(inst)] == [a.tobytes() for a in shifts(make_instance(pid, 3))]


def test_open_grid_keeps_read_only_copies():
    ax = np.linspace(-1.0, 1.0, 3)
    grid = OpenGrid((ax[None, :], 0.5, ax[:, None]))
    ax[:] = 9.0
    assert grid.shape == (3, 3) and len(grid) == 9 and grid.coords[1].shape == (1,)
    assert grid.coords[0].max() == 1.0 and not any(c.flags.writeable for c in grid.coords)
    pts = grid.points()
    assert pts.shape == (9, 3) and pts[:, 0].flags.c_contiguous
    np.testing.assert_array_equal(pts[:4], [[-1.0, 0.5, -1.0], [0.0, 0.5, -1.0], [1.0, 0.5, -1.0], [-1.0, 0.5, 0.0]])
    # rosenbrock shifts its rows in place, which a number coordinate must survive
    inst = make_instance(soo_id("rosenbrock", 3), 2)
    assert_same_bits(evaluate_soo_batch(inst, grid), evaluate_soo_batch(inst, pts).reshape(3, 3))


def test_batch_matches_scalar():
    inst = make_instance(soo_id("ackley", 5), 3)
    xs = np.random.default_rng(0).uniform(-5, 5, size=(10, 5))
    batch = evaluate_soo_batch(inst, xs)
    singles = [evaluate_soo_batch(inst, xs[i : i + 1])[0] for i in range(len(xs))]
    np.testing.assert_allclose(batch, singles)


def test_dimension_mismatch_raises():
    inst = make_instance(soo_id(), 0)
    with pytest.raises(ContractError):
        evaluate_soo_batch(inst, np.zeros((1, 3)))
    with pytest.raises(ContractError):
        evaluate_soo_batch(inst, np.zeros((4, 5)))


@pytest.mark.parametrize("dimension, instance_index", [(2.0, 0), ("2", 0), (True, 0), (2, "a"), (2, 1.0), (2, -1)])
def test_non_integer_dimension_or_index_rejected(dimension, instance_index):
    with pytest.raises(InvalidProblemError, match="integer"):
        ProblemId(kind="soo", function_code="sphere", dimension=dimension, instance_index=instance_index)


def test_invalid_problem_combinations():
    with pytest.raises(InvalidProblemError):
        ProblemId(kind="soo", function_code="sphere", dimension=4, instance_index=0)
    with pytest.raises(InvalidProblemError):
        ProblemId(kind="soo", function_code="zdt1", dimension=2, instance_index=0)
    with pytest.raises(InvalidProblemError):
        ProblemId(kind="moo", function_code="zdt1", dimension=3, instance_index=0)
    with pytest.raises(InvalidProblemError):
        ProblemId(kind="moo", function_code="sphere", dimension=2, instance_index=0)


def test_zdt1_endpoints():
    inst = make_instance(moo_id("zdt1"), 0)
    # native (-5, -5) maps to unit (0, 0): g = 1, f = (0, 1)
    assert tuple(evaluate_moo_batch(inst, [[-5.0, -5.0]])[0]) == pytest.approx((0.0, 1.0))
    # native (5, -5) maps to unit (1, 0): the other Pareto endpoint
    assert tuple(evaluate_moo_batch(inst, [[5.0, -5.0]])[0]) == pytest.approx((1.0, 0.0))


def test_bi_sphere_at_center():
    inst = make_instance(moo_id("bi_sphere"), 4)
    a, b = inst.centers
    f1, f2 = evaluate_moo_batch(inst, a[None])[0]
    assert f1 == pytest.approx(0.0, abs=1e-12)
    assert f2 == pytest.approx(float(np.sum((a - b) ** 2)))


def test_zdt1_front_nondominated():
    inst = make_instance(moo_id("zdt1"), 0)
    x1 = np.linspace(-5, 5, 50)
    pts = evaluate_moo_batch(inst, np.stack([x1, np.full(50, -5.0)], axis=-1))
    # pairwise: no point weakly dominates another
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            assert not (np.all(pts[i] <= pts[j]) and np.any(pts[i] < pts[j]))


@pytest.mark.parametrize("code", MOO_FUNCTIONS)
def test_pareto_front_points_keep_the_bits_of_the_out_of_place_formulas(code):
    """pareto_front_points as first written: ZDT's f2 out of place at g = 1."""
    inst = make_instance(moo_id(code, 2), 4)
    for n in (2, 11, 2001):
        t = np.linspace(0.0, 1.0, n)
        if code == "bi_sphere":
            a, b = inst.centers
            gap = np.sum((b - a) ** 2)
            want = np.stack([t**2 * gap, (1.0 - t) ** 2 * gap], axis=-1)
        else:
            want = np.stack([t, moo_row_major_f2(code, t, 1.0)], axis=-1)
            if code == "zdt3":
                want = want[nondominated_2d(want)]
        assert_same_bits(pareto_front_points(inst, n), want)


def test_pareto_front_points_match_direct_evaluation():
    inst = make_instance(moo_id("zdt2"), 0)
    front = pareto_front_points(inst, n=11)
    # front parameterized by f1 = t with g = 1
    np.testing.assert_allclose(front[:, 1], 1.0 - front[:, 0] ** 2)


@pytest.mark.parametrize("n", [0, 1, 2.5, True, "11"])
def test_pareto_front_sample_count_is_an_integer_of_at_least_two(n):
    with pytest.raises(ContractError, match="sample count"):
        pareto_front_points(make_instance(moo_id("zdt1"), 0), n=n)
    assert pareto_front_points(make_instance(moo_id("zdt1"), 0), n=2).shape == (2, 2)


def test_true_group_mapping():
    assert true_group("sphere") == 1
    assert true_group("ellipsoid") == 1
    assert true_group("rastrigin") == 1
    assert true_group("rosenbrock") == 2
    assert true_group("discus") == 3
    assert true_group("bent_cigar") == 3
    assert true_group("griewank") == 4
    assert true_group("ackley") == 5
    with pytest.raises(InvalidProblemError):
        true_group("zdt1")
