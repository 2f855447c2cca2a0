import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contoursel import perfdata
from contoursel.errors import ContourselError, ContractError, DataError, ParseError
from contoursel.perfdata import (
    MooHvRecord,
    RunRecord,
    build_moo_table,
    emit_moo_hv,
    emit_relert_table,
    emit_runs,
    ert,
    ert_table,
    hypervolume_2d,
    ingest_moo_hv,
    ingest_runs,
    nondominated_2d,
    reference_point,
    rel_hv,
    relert_matrix,
    sbs,
    vbs_mean,
)
from contoursel.suite import MOO_FUNCTIONS, ProblemId, make_instance, pareto_front_points


def rec(alg, fn="sphere", d=2, idx=0, fe=100, success=True):
    return RunRecord(alg, fn, d, idx, fe, success)


def grid_count_hv(points, ref, cells_per_axis=1000):
    """Independent oracle: count dominated cell centers on a uniform grid.

    Returns the estimate and a bound on its error: the dominated region's
    boundary is a monotone staircase, which crosses at most 2 * cells_per_axis
    cells, and only a crossed cell can be miscounted.
    """
    pts = np.asarray(points, float).reshape(-1, 2)
    ref = np.asarray(ref, float)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0, 0.0
    lo = pts.min(axis=0)
    step = (ref - lo) / cells_per_axis
    c1 = lo[0] + (np.arange(cells_per_axis) + 0.5) * step[0]
    c2 = lo[1] + (np.arange(cells_per_axis) + 0.5) * step[1]
    dominated = np.zeros((cells_per_axis, cells_per_axis), dtype=bool)
    for p in pts:
        dominated |= (c1[:, None] >= p[0]) & (c2[None, :] >= p[1])
    cell = step[0] * step[1]
    return dominated.sum() * cell, 2 * cells_per_axis * cell


def nondominated_mask_oracle(points):
    """Independent O(n^2) oracle: drop each point some kept point dominates.

    Exact duplicates do not dominate each other, so all copies stay.
    """
    points = np.asarray(points, float).reshape(-1, 2)
    keep = np.ones(len(points), dtype=bool)
    for i in range(len(points)):
        dominated = np.all(points <= points[i], axis=1) & np.any(points < points[i], axis=1)
        if np.any(dominated & keep):
            keep[i] = False
    return keep


def relert_oracle(erts, penalty_override=None):
    """Independent per-key loops over the ERT dict, as relert_matrix ran
    before the table became a matrix.  Returns the kept configurations, the
    algorithms, relERT per (function, dimension, algorithm), the penalty, the
    per-algorithm means, the SBS and the VBS mean."""
    algorithms = tuple(sorted({a for (_, _, a) in erts}))
    kept, relert, undefined = [], {}, []
    for f, d in sorted({(f, d) for (f, d, _) in erts}):
        values = {a: erts.get((f, d, a)) for a in algorithms}
        finite = [v for v in values.values() if v is not None]
        if not finite:
            continue
        best = min(finite)
        kept.append((f, d))
        for a, v in values.items():
            if v is None:
                undefined.append((f, d, a))
            else:
                relert[(f, d, a)] = v / best
    penalty = penalty_override if penalty_override is not None else 10.0 * max(relert.values())
    for key in undefined:
        relert[key] = penalty
    means = {a: float(np.mean([relert[(f, d, a)] for f, d in kept])) for a in algorithms}
    sbs_algorithm = min(a for a, m in means.items() if m == min(means.values()))
    vbs = float(np.mean([min(relert[(f, d, a)] for a in algorithms) for f, d in kept]))
    return tuple(kept), algorithms, relert, penalty, means, sbs_algorithm, vbs


def moo_table_oracle(records, hv_best):
    """Independent per-key loops over the MOO records, as build_moo_table ran
    before the table became a matrix.  Returns the instances, the
    algorithms, hv_norm and relHV per (instance, algorithm), and the SBS."""
    groups = {}
    for r in records:
        groups.setdefault((r.instance, r.algorithm), []).append(r.hv)
    instances = tuple(sorted({i for i, _ in groups}))
    algorithms = tuple(sorted({a for _, a in groups}))
    hv_norm = {(i, a): float(np.mean(groups[(i, a)])) / hv_best[i] for i in instances for a in algorithms}
    means = {a: float(np.mean([hv_norm[(i, a)] for i in instances])) for a in algorithms}
    sbs_algorithm = min(a for a, m in means.items() if m == max(means.values()))
    relhv = {
        (i, a): rel_hv(hv_norm[(i, a)], hv_norm[(i, sbs_algorithm)], max(hv_norm[(i, b)] for b in algorithms))
        for i in instances
        for a in algorithms
    }
    return instances, algorithms, hv_norm, relhv, sbs_algorithm


def cell(matrix, rows, columns, row, column):
    """The entry of a labelled performance matrix."""
    return matrix[rows.index(row), columns.index(column)]


class TestErt:
    def test_mixed_successes(self):
        records = [
            rec("a", fe=100, success=True),
            rec("a", fe=200, success=False),
            rec("a", fe=300, success=True),
        ]
        assert ert(records) == 300.0

    def test_all_succeed(self):
        assert ert([rec("a", fe=100) for _ in range(5)]) == 100.0

    def test_all_fail_is_undefined(self):
        assert ert([rec("a", success=False) for _ in range(3)]) is None

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ert([])

    @pytest.mark.parametrize("records", [[1, 2], None, 5, [rec("a"), "b"]], ids=["numbers", "none", "int", "mixed"])
    def test_records_not_run_records_rejected(self, records):
        with pytest.raises(DataError, match="records must be an iterable of RunRecord"):
            ert(records)

    @pytest.mark.parametrize("field, value", [
        ("algorithm", ""), ("algorithm", 3), ("function_code", ""), ("function_code", None),
        ("dimension", 0), ("dimension", 2.0), ("instance_index", -1), ("instance_index", True),
        ("evaluations_used", 0), ("evaluations_used", "5"), ("success", "yes"), ("success", 1),
    ])
    def test_malformed_record_field_rejected(self, field, value):
        fields = {"algorithm": "a", "function_code": "sphere", "dimension": 2, "instance_index": 0,
                  "evaluations_used": 100, "success": True}
        with pytest.raises(ContractError, match=field):
            RunRecord(**{**fields, field: value})

    def test_grouping(self):
        records = [
            rec("a", "sphere", 2, 0, 100, True),
            rec("a", "sphere", 2, 1, 200, True),
            rec("b", "sphere", 2, 0, 50, True),
        ]
        table = ert_table(records)
        assert table[("sphere", 2, "a")] == 150.0
        assert table[("sphere", 2, "b")] == 50.0


class TestRelErt:
    def test_direct_formula(self):
        erts = {("f", 2, "a"): 100.0, ("f", 2, "b"): 250.0}
        t = relert_matrix(erts)
        assert t.relert.dtype == np.float64 and t.relert.shape == (1, 2)
        assert cell(t.relert, t.configs, t.algorithms, ("f", 2), "a") == 1.0
        assert cell(t.relert, t.configs, t.algorithms, ("f", 2), "b") == 2.5

    def test_best_is_one_per_config(self):
        erts = {
            ("f", 2, "a"): 30.0,
            ("f", 2, "b"): 90.0,
            ("g", 3, "a"): 500.0,
            ("g", 3, "b"): 100.0,
        }
        t = relert_matrix(erts)
        for f, d in t.configs:
            assert t.row(f, d).min() == 1.0

    def test_penalty_ten_times_max(self):
        erts = {
            ("f", 2, "a"): 100.0,
            ("f", 2, "b"): 366_903.0,
            ("g", 2, "a"): None,
            ("g", 2, "b"): 10.0,
        }
        t = relert_matrix(erts)
        assert cell(t.relert, t.configs, t.algorithms, ("f", 2), "b") == pytest.approx(3669.03)
        assert t.penalty == pytest.approx(36_690.3)
        assert cell(t.relert, t.configs, t.algorithms, ("g", 2), "a") == t.penalty

    def test_penalty_override(self):
        erts = {("f", 2, "a"): 10.0, ("f", 2, "b"): None}
        t = relert_matrix(erts, penalty_override=36_690.3)
        assert cell(t.relert, t.configs, t.algorithms, ("f", 2), "b") == 36_690.3

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, 0, 0.5, float("inf"), "x", True])
    def test_malformed_penalty_override_rejected(self, bad):
        with pytest.raises(ContractError, match="penalty_override"):
            relert_matrix({("f", 2, "a"): 10.0, ("f", 2, "b"): None}, penalty_override=bad)

    def test_cell_without_runs_rejected(self):
        # a missing cell is not a failed run: it has no ERT to impute
        with pytest.raises(DataError, match=r"\('f', 2, 'b'\)"):
            relert_matrix({("f", 2, "a"): 10.0, ("g", 2, "b"): 7.0})

    def test_unknown_row_rejected(self):
        t = relert_matrix({("f", 2, "a"): 10.0, ("g", 2, "a"): None})
        with pytest.raises(DataError, match="'g', 2"):
            t.row("g", 2)

    def test_scaling_invariance(self):
        erts = {("f", 2, "a"): 123.0, ("f", 2, "b"): 456.0, ("f", 2, "c"): 789.0}
        scaled = {k: v * 17.5 for k, v in erts.items()}
        a = relert_matrix(erts)
        b = relert_matrix(scaled)
        assert a.relert.shape == b.relert.shape == (1, 3)
        assert a.relert == pytest.approx(b.relert)

    def test_dead_config_dropped(self, caplog):
        erts = {
            ("f", 2, "a"): 100.0,
            ("f", 2, "b"): 200.0,
            ("g", 2, "a"): None,
            ("g", 2, "b"): None,
        }
        with caplog.at_level("WARNING"):
            t = relert_matrix(erts)
        assert t.configs == (("f", 2),)
        assert "dropping configuration" in caplog.text

    def test_nothing_finite_rejected(self):
        with pytest.raises(DataError):
            relert_matrix({("f", 2, "a"): None})

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan"), "10", True])
    def test_nonpositive_or_nonfinite_ert_rejected(self, bad):
        with pytest.raises(DataError, match=r"\('f', 2, 'b'\)"):
            relert_matrix({("f", 2, "a"): 10.0, ("f", 2, "b"): bad})

    @pytest.mark.parametrize("erts, named", [
        ([(("f", 2, "a"), 10.0)], "dict"),
        ({("f", 2): 10.0}, r"\('f', 2\)"),
        ({"f2a": 10.0}, "'f2a'"),
        ({("f", 2, "a", 0): 10.0}, r"\('f', 2, 'a', 0\)"),
    ], ids=["list", "pair-key", "text-key", "quadruple-key"])
    def test_malformed_table_rejected(self, erts, named):
        with pytest.raises(DataError, match=named):
            relert_matrix(erts)

    @pytest.mark.parametrize("key", [
        ("f", 2, 1), (1, 2, "a"), ("f", "2", "a"), ("f", 2.5, "a"), ("f", 0, "a"), ("f", True, "a"), ("", 2, "a"),
        ("f", 2, ""),
    ])
    def test_key_label_types_checked(self, key):
        with pytest.raises(DataError, match="triple"):
            relert_matrix({("f", 2, "a"): 1.0, key: 2.0})

    def test_numpy_integer_dimension_accepted(self):
        table = relert_matrix({("f", np.int64(2), "a"): 1.0, ("f", np.int64(2), "b"): 2.0})
        assert table.relert.tolist() == [[1.0, 2.0]]


class TestSbsVbs:
    def test_sbs_lowest_mean(self):
        erts = {
            ("f", 2, "a"): 100.0,
            ("f", 2, "b"): 10.0,
            ("g", 2, "a"): 10.0,
            ("g", 2, "b"): 20.0,
        }
        t = relert_matrix(erts)
        # means: a -> (10 + 1)/2 = 5.5, b -> (1 + 2)/2 = 1.5
        assert sbs(t) == "b"

    def test_single_algorithm(self):
        t = relert_matrix({("f", 2, "only"): 42.0})
        assert sbs(t) == "only"

    def test_tie_breaks_lexicographically(self):
        erts = {("f", 2, "zeta"): 100.0, ("f", 2, "alpha"): 100.0}
        assert sbs(relert_matrix(erts)) == "alpha"

    def test_vbs_mean_is_one(self):
        erts = {
            ("f", 2, "a"): 100.0,
            ("f", 2, "b"): 10.0,
            ("g", 2, "a"): 10.0,
            ("g", 2, "b"): None,
        }
        assert vbs_mean(relert_matrix(erts)) == 1.0


# coordinates on a coarse grid produce ties in either objective and exact
# duplicates; free floats produce general position
_coordinate = st.integers(0, 4).map(float) | st.floats(0.0, 1.0)


# finite floats of either sign over many magnitudes, small enough that no
# difference or product of two of them overflows
_wide = st.floats(-1e150, 1e150)


def np_diff_hv(points, ref):
    """hypervolume_2d as np.diff formed its strip widths: the O(n^2)
    oracle's mask, the kept points in ascending f1, then
    np.diff(f1, append=ref[0]) times the heights, summed left to right."""
    pts = np.asarray(points, float).reshape(-1, 2)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if not len(pts):
        return 0.0
    front = pts[nondominated_mask_oracle(pts)]
    front = front[np.argsort(front[:, 0], kind="stable")]
    areas = np.diff(front[:, 0], append=ref[0]) * (ref[1] - front[:, 1])
    return float(np.cumsum(areas)[-1])


class TestHypervolume:
    def test_three_point_staircase(self):
        assert hypervolume_2d([(1, 3), (2, 2), (3, 1)], (4, 4)) == 6.0

    def test_single_point(self):
        assert hypervolume_2d([(1, 1)], (2, 2)) == 1.0

    def test_point_outside_ref(self):
        assert hypervolume_2d([(3, 3)], (2, 2)) == 0.0
        assert hypervolume_2d([(1, 2)], (2, 2)) == 0.0  # touching ref edge

    def test_empty(self):
        assert hypervolume_2d([], (1, 1)) == 0.0

    def test_order_invariance(self):
        pts = [(1, 3), (3, 1), (2, 2), (0.5, 3.5)]
        ref = (4, 4)
        base = hypervolume_2d(pts, ref)
        rng = np.random.default_rng(0)
        for _ in range(10):
            perm = rng.permutation(len(pts))
            assert hypervolume_2d([pts[i] for i in perm], ref) == base

    def test_dominated_points_ignored(self):
        ref = (4, 4)
        base = hypervolume_2d([(1, 3), (2, 2), (3, 1)], ref)
        with_dominated = hypervolume_2d([(1, 3), (2, 2), (3, 1), (2.5, 2.5), (3, 3)], ref)
        assert with_dominated == base

    def test_duplicate_points(self):
        assert hypervolume_2d([(1, 1), (1, 1)], (2, 2)) == 1.0

    def test_matches_grid_oracle_random_fronts(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(1, 21)
            pts = rng.random((n, 2))
            ref = (1.1, 1.1)
            exact = hypervolume_2d(pts, ref)
            approx, _ = grid_count_hv(pts, ref)
            assert exact == pytest.approx(approx, rel=0.01)

    @given(st.lists(st.tuples(_coordinate, _coordinate), max_size=30),
           st.tuples(_coordinate, _coordinate).map(lambda r: (r[0] + 0.5, r[1] + 0.5)))
    def test_matches_grid_oracle_within_staircase_bound(self, points, ref):
        """Fronts with ties, exact duplicates and points on or beyond the
        reference edges."""
        estimate, bound = grid_count_hv(points, ref, cells_per_axis=256)
        assert abs(hypervolume_2d(points, ref) - estimate) <= bound + 1e-12

    @given(st.lists(st.tuples(_coordinate, _coordinate), max_size=30),
           st.tuples(_coordinate, _coordinate).map(lambda r: (r[0] + 0.5, r[1] + 0.5)))
    def test_matches_mask_then_argsort_formula_bit_for_bit(self, points, ref):
        """The formula that sorted the front a second time: the O(n^2)
        oracle's mask, then the kept points in ascending f1.  The oracle
        keeps every copy of a duplicate; a copy adds a zero-width strip, and
        x + 0.0 is x, so the sums agree to the bit."""
        assert same_bits(hypervolume_2d(points, ref), np_diff_hv(points, ref))

    @given(st.lists(st.tuples(_wide, _wide), max_size=60), st.tuples(_wide, _wide))
    def test_strip_widths_are_the_np_diff_bits(self, points, ref):
        """Free floats across many magnitudes, so nearly every strip width
        rounds: one subtraction into a preallocated array gives the bits
        np.diff(f1, append=ref[0]) gave."""
        assert same_bits(hypervolume_2d(points, ref), np_diff_hv(points, ref))

    @pytest.mark.parametrize("points, ref, message", [
        ([(0.5, 0.5)], (np.nan, 1.0), "reference point"),
        ([(0.5, 0.5)], (1.0, np.inf), "reference point"),
        ([(0.5, 0.5)], (1.0,), "reference point"),
        ([(0.5, 0.5)], (1.0, 1.0, 1.0), "reference point"),
        ([(0.5, 0.5)], "ab", "reference point"),
        ([(0.5, 0.5)], ("a", 1.0), "reference point"),
        ([(0.5, 0.5)], [[1.0], [1.0, 2.0]], "reference point"),
        ([(np.nan, 0.5), (0.2, 0.3)], (1.0, 1.0), "finite points"),
        ([(0.2, 0.3), (0.5, np.inf)], (1.0, 1.0), "finite points"),
    ], ids=["ref-nan", "ref-inf", "ref-short", "ref-long", "ref-text", "ref-text-coordinate", "ref-ragged",
            "point-nan", "point-inf"])
    def test_nonfinite_or_malformed_input_rejected(self, points, ref, message):
        with pytest.raises(DataError, match=message):
            hypervolume_2d(points, ref)


class TestNondominated:
    @given(st.lists(st.tuples(_coordinate, _coordinate), max_size=30))
    def test_keeps_oracle_set_first_duplicate_only(self, points):
        keep = nondominated_2d(points)
        assert keep.shape == (len(points),)
        kept = [points[i] for i in np.flatnonzero(keep)]
        oracle = nondominated_mask_oracle(points)
        assert set(kept) == {points[i] for i in np.flatnonzero(oracle)}
        assert all(points.index(points[i]) == i for i in np.flatnonzero(keep))

    @pytest.mark.parametrize("code", MOO_FUNCTIONS)
    def test_pareto_front_points_match_oracle(self, code):
        inst = make_instance(ProblemId(kind="moo", function_code=code, dimension=2, instance_index=0), 3)
        front = pareto_front_points(inst, n=501)
        assert np.all(nondominated_mask_oracle(front))
        if code == "zdt3":
            # the sampled curve minus what the oracle drops, in curve order
            t = np.linspace(0.0, 1.0, 501)
            curve = np.stack([t, 1.0 - np.sqrt(t) - t * np.sin(10.0 * np.pi * t)], axis=-1)
            np.testing.assert_array_equal(front, curve[nondominated_mask_oracle(curve)])
        else:
            assert len(front) == 501


class TestRelHv:
    def test_vbs_maps_to_one(self):
        assert rel_hv(0.9, 0.5, 0.9) == pytest.approx(1.0)

    def test_sbs_maps_to_near_zero(self):
        assert rel_hv(0.5, 0.5, 0.9) == pytest.approx(1e-8 / (0.4 + 1e-8))

    def test_worse_than_sbs_is_negative(self):
        assert rel_hv(0.3, 0.5, 0.9) < 0.0

    def test_collapsed_gap_returns_one(self):
        assert rel_hv(0.7, 0.7, 0.7) == 1.0

    def test_monotone_in_hv(self):
        vals = [rel_hv(h, 0.4, 0.8) for h in np.linspace(0, 1, 20)]
        assert np.all(np.diff(vals) > 0)


class TestReferencePoint:
    def test_componentwise_max_inflated(self):
        fronts = [[(1.0, 3.0)], [(2.0, 1.0)]]
        assert reference_point(fronts) == pytest.approx((2.2, 3.3))

    def test_dominates_all_points(self):
        rng = np.random.default_rng(1)
        fronts = [rng.random((5, 2)) * 10 for _ in range(3)]
        ref = reference_point(fronts)
        allpts = np.concatenate(fronts)
        assert np.all(allpts[:, 0] < ref[0]) and np.all(allpts[:, 1] < ref[1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            reference_point([])

    @pytest.mark.parametrize("bad", [(np.nan, 1.0), (1.0, -np.inf), (1.0,), (1.0, 2.0, 3.0), "ab", ("a", 1.0)],
                             ids=["nan", "inf", "short", "long", "text", "text-coordinate"])
    def test_malformed_prespecified_rejected(self, bad):
        # a caller's own reference point, used in place of reference_point's, enters through hypervolume_2d's ref
        with pytest.raises(DataError, match="two finite numbers"):
            hypervolume_2d([(1.0, 1.0)], bad)

    @pytest.mark.parametrize("fronts, objective", [
        ([[(-2.0, -3.0), (-1.0, -4.0)]], "objective 1"),
        ([[(1.0, -3.0)], [(2.0, -4.0)]], "objective 2"),
        ([[(0.0, 5.0)]], "objective 1"),
    ], ids=["both-negative", "second-negative", "first-zero"])
    def test_nonpositive_worst_corner_rejected(self, fronts, objective):
        # inflating a coordinate <= 0 moves it onto or inside the fronts, so their worst points add no hypervolume
        with pytest.raises(DataError, match=objective):
            reference_point(fronts)

    def test_positive_corner_is_the_inflated_product(self):
        fronts = [[(0.3, 7.0)], [(1e-300, 2.0)]]
        assert reference_point(fronts) == (0.3 * 1.1, 7.0 * 1.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_front_rejected(self, bad):
        with pytest.raises(DataError, match="NaN or inf"):
            reference_point([[(1.0, bad)], [(2.0, 1.0)]])


class TestMooTable:
    def make_records(self):
        # two instances, two algorithms, two repetitions
        data = {
            ("i1", "a"): [0.8, 0.9],
            ("i1", "b"): [0.5, 0.5],
            ("i2", "a"): [0.2, 0.2],
            ("i2", "b"): [0.9, 0.7],
        }
        return [
            MooHvRecord(alg, inst, rep, hv)
            for (inst, alg), hvs in data.items()
            for rep, hv in enumerate(hvs)
        ]

    def test_sbs_and_relhv(self):
        table = build_moo_table(self.make_records(), hv_best={"i1": 1.0, "i2": 1.0})
        # means over instances: a -> (0.85 + 0.2)/2 = 0.525, b -> (0.5 + 0.8)/2 = 0.65
        assert table.sbs_algorithm == "b"
        relhv = table.relhv
        assert relhv.dtype == np.float64 and relhv.shape == (2, 2)
        assert cell(relhv, table.instances, table.algorithms, "i1", "a") == pytest.approx(1.0)  # VBS on i1
        assert cell(relhv, table.instances, table.algorithms, "i1", "b") == pytest.approx(0.0, abs=1e-6)
        assert cell(relhv, table.instances, table.algorithms, "i2", "a") < 0.0  # far worse than SBS on i2

    def test_normalization_by_best_known(self):
        table = build_moo_table(self.make_records(), hv_best={"i1": 2.0, "i2": 1.0})
        assert table.hv_norm.dtype == np.float64 and table.hv_norm.shape == (2, 2)
        assert cell(table.hv_norm, table.instances, table.algorithms, "i1", "a") == pytest.approx(0.425)

    def test_missing_best_rejected(self):
        with pytest.raises(DataError):
            build_moo_table(self.make_records(), hv_best={"i1": 1.0})

    def test_cell_without_runs_rejected(self):
        records = [r for r in self.make_records() if (r.instance, r.algorithm) != ("i2", "a")]
        with pytest.raises(DataError, match=r"\(i2, a\)"):
            build_moo_table(records, hv_best={"i1": 1.0, "i2": 1.0})

    def test_no_records_rejected(self):
        with pytest.raises(DataError, match="no MOO run records"):
            build_moo_table([], hv_best={})

    def test_unknown_row_rejected(self):
        table = build_moo_table(self.make_records(), hv_best={"i1": 1.0, "i2": 1.0})
        with pytest.raises(DataError, match="i3"):
            table.relhv_row("i3")

    @pytest.mark.parametrize("field, value", [
        ("algorithm", None), ("algorithm", ""), ("instance", 3), ("instance", ""),
        ("repetition", -1), ("repetition", 0.5), ("repetition", True), ("repetition", "0"),
    ])
    def test_record_label_fields_checked(self, field, value):
        fields = dict(algorithm="a", instance="i", repetition=0, hv=0.5) | {field: value}
        with pytest.raises(ContractError, match=field):
            MooHvRecord(**fields)

    @pytest.mark.parametrize("hv", [np.nan, -np.inf, "0.5", None, True])
    def test_record_hv_must_be_finite(self, hv):
        with pytest.raises(DataError, match="finite"):
            MooHvRecord("a", "i", 0, hv)

    def test_record_takes_numpy_scalars(self):
        record = MooHvRecord("a", "i", np.int64(2), np.float64(0.5))
        assert build_moo_table([record], {"i": 1.0}).hv_norm.tolist() == [[0.5]]

    @pytest.mark.parametrize("records, hv_best, match", [
        (None, {"i": 1.0}, "records"),
        ([RunRecord("a", "sphere", 2, 0, 10, True)], {"i": 1.0}, "MooHvRecord"),
        ([MooHvRecord("a", "i", 0, 0.5)], ["i"], "hv_best"),
        ([MooHvRecord("a", "i", 0, 0.5)], None, "hv_best"),
    ])
    def test_containers_checked(self, records, hv_best, match):
        with pytest.raises(DataError, match=match):
            build_moo_table(records, hv_best)

    @pytest.mark.parametrize("where, value", [
        ("hv", np.nan), ("hv", np.inf), ("best", np.nan), ("best", np.inf), ("hv", "0.5"), ("best", "1.0"),
    ])
    def test_nonfinite_hv_rejected(self, where, value):
        records = self.make_records()
        hv_best = {"i1": 1.0, "i2": 1.0}
        with pytest.raises(DataError, match="finite"):
            if where == "hv":
                records[3] = MooHvRecord(records[3].algorithm, records[3].instance, records[3].repetition, value)
            else:
                hv_best["i2"] = value
            build_moo_table(records, hv_best)


# portfolio names whose sorted order differs from the drawn order; coarse
# values make ties within a row and between column means
_names = st.permutations(["zeta", "alpha", "mid", "beta", "omega"])
_ert = st.none() | st.sampled_from([1.0, 3.0, 10.0]) | st.floats(1.0, 1e6)
_hv = st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 2.0)


@st.composite
def ert_tables(draw):
    """A complete ERT table; about one configuration in four is dead (no
    algorithm succeeded).  Up to 12 rows, because numpy sums 8 or more
    values pairwise and fewer in a plain loop."""
    algorithms = draw(_names)[: draw(st.integers(1, 5))]
    erts = {}
    for i in range(draw(st.integers(1, 12))):
        dead = draw(st.integers(0, 3)) == 0
        for a in algorithms:
            erts[(f"f{i // 2}", 2 + i % 2, a)] = None if dead else draw(_ert)
    return erts


@st.composite
def moo_runs(draw):
    """MOO run records with 1-3 repetitions per cell, in a drawn order."""
    algorithms = draw(_names)[: draw(st.integers(1, 5))]
    instances = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    records = [
        MooHvRecord(a, i, rep, draw(_hv))
        for i in instances
        for a in algorithms
        for rep in range(draw(st.integers(1, 3)))
    ]
    hv_best = {i: draw(st.sampled_from([1.0, 0.5]) | st.floats(0.1, 10.0)) for i in instances}
    return draw(st.permutations(records)), hv_best


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMatricesAgainstOracles:
    @given(ert_tables(), st.none() | st.floats(1.0, 1e6))
    def test_relert_matrix_matches_oracle_bit_for_bit(self, erts, penalty_override):
        if all(v is None for v in erts.values()):
            with pytest.raises(DataError):
                relert_matrix(erts, penalty_override)
            return
        configs, algorithms, relert, penalty, means, sbs_algorithm, vbs = relert_oracle(erts, penalty_override)
        t = relert_matrix(erts, penalty_override)
        assert t.configs == configs and t.algorithms == algorithms
        rows = [[relert[(f, d, a)] for a in algorithms] for f, d in configs]
        assert same_bits(t.relert, rows)
        assert all(same_bits(t.row(f, d), row) for (f, d), row in zip(configs, rows))
        assert repr(t.penalty) == repr(float(penalty))
        # column means add in np.mean's order, so a near tie resolves alike
        assert same_bits(perfdata._column_means(t.relert), [means[a] for a in algorithms])
        assert sbs(t) == sbs_algorithm
        assert type(vbs_mean(t)) is float and repr(vbs_mean(t)) == repr(vbs)

    @given(ert_tables(), st.data())
    def test_relert_row_invariant_to_scaling_one_configuration(self, erts, data):
        configs = sorted({(f, d) for f, d, _ in erts})
        f, d = data.draw(st.sampled_from(configs))
        scale = 2.0 ** data.draw(st.integers(-20, 20))
        scaled = {k: v * scale if k[:2] == (f, d) and v is not None else v for k, v in erts.items()}
        if all(v is None for v in erts.values()):
            return
        a, b = relert_matrix(erts), relert_matrix(scaled)
        assert a.configs == b.configs and same_bits(a.relert, b.relert)

    @given(moo_runs())
    def test_build_moo_table_matches_oracle_bit_for_bit(self, runs):
        records, hv_best = runs
        instances, algorithms, hv_norm, relhv, sbs_algorithm = moo_table_oracle(records, hv_best)
        table = build_moo_table(records, hv_best)
        assert table.instances == instances and table.algorithms == algorithms
        assert same_bits(table.hv_norm, [[hv_norm[(i, a)] for a in algorithms] for i in instances])
        relhv_rows = [[relhv[(i, a)] for a in algorithms] for i in instances]
        assert same_bits(table.relhv, relhv_rows)
        assert all(same_bits(table.relhv_row(i), row) for i, row in zip(instances, relhv_rows))
        assert table.sbs_algorithm == sbs_algorithm


class TestCsv:
    def test_runs_round_trip(self, tmp_path):
        records = [
            rec("a", "sphere", 2, 0, 123, True),
            rec("b", "ackley", 10, 4, 50_000, False),
        ]
        path = tmp_path / "runs.csv"
        emit_runs(path, records)
        assert ingest_runs(path) == records

    def test_runs_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("algorithm,function\nx,y\n")
        with pytest.raises(ParseError):
            ingest_runs(path)

    def test_runs_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "algorithm,function,dimension,instance,evaluations,success\n"
            "a,sphere,2,0,100,1\n"
            "a,sphere,2,0,not_a_number,1\n"
        )
        with pytest.raises(ParseError, match=":3:"):
            ingest_runs(path)

    @pytest.mark.parametrize("row", ["a,sphere,2,0,100,7", "a,sphere,2,0,0,1", "a,sphere,2,0,100",
                                     ",no_such_fn,-3,-7,5,1", "a,sphere,0,0,100,1", "a,sphere,2,-1,100,1"])
    def test_runs_bad_field_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "algorithm,function,dimension,instance,evaluations,success\n"
            "a,sphere,2,0,100,1\n"
            "\n"
            f"{row}\n"
        )
        with pytest.raises(ParseError, match=f"{path.name}:4:"):
            ingest_runs(path)

    def test_empty_file_gives_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("algorithm,function,dimension,instance,evaluations,success\n")
        assert ingest_runs(path) == []

    def test_moo_round_trip(self, tmp_path):
        records = [MooHvRecord("a", "zdt1_0", 3, 0.123456789012345)]
        path = tmp_path / "hv.csv"
        emit_moo_hv(path, records)
        assert ingest_moo_hv(path) == records

    def test_moo_numpy_hv_written_as_a_number(self, tmp_path):
        path = tmp_path / "hv.csv"
        emit_moo_hv(path, [MooHvRecord("a", "zdt1_0", np.int64(3), np.float64(0.1) + np.float64(0.2))])
        assert path.read_text().splitlines()[1] == "a,zdt1_0,3,0.30000000000000004"
        assert ingest_moo_hv(path) == [MooHvRecord("a", "zdt1_0", 3, 0.1 + 0.2)]

    @pytest.mark.parametrize("row", [",zdt1_0,0,0.5", "a,,0,0.5", "a,zdt1_0,-1,0.5", "a,zdt1_0,0,x"])
    def test_moo_bad_field_names_line(self, tmp_path, row):
        path = tmp_path / "hv.csv"
        path.write_text(f"algorithm,instance,repetition,hv\na,zdt1_0,0,0.5\n{row}\n")
        with pytest.raises(ParseError, match=f"{path.name}:3:"):
            ingest_moo_hv(path)

    @pytest.mark.parametrize("records", [None, 5, [1], [MooHvRecord("a", "i", 0, 0.5)]])
    def test_runs_container_checked(self, tmp_path, records):
        with pytest.raises(DataError, match="records"):
            ert_table(records)
        with pytest.raises(DataError, match="records"):
            emit_runs(tmp_path / "runs.csv", records)
        assert not (tmp_path / "runs.csv").exists()

    @pytest.mark.parametrize("hv", ["nan", "inf", "-inf"])
    def test_moo_nonfinite_hv_names_line(self, tmp_path, hv):
        path = tmp_path / "hv.csv"
        path.write_text(f"algorithm,instance,repetition,hv\na,zdt1_0,0,0.5\na,zdt1_0,1,{hv}\n")
        with pytest.raises(ParseError, match=f"{path.name}:3:"):
            ingest_moo_hv(path)

    def test_invalid_utf8_names_path(self, tmp_path):
        path = tmp_path / "hv.csv"
        path.write_bytes(b"algorithm,instance,repetition,hv\na,zdt1_0,0,0.5\n\xff\xfe,zdt1_0,1,0.5\n")
        with pytest.raises(ParseError, match=f"{path.name}: not UTF-8"):
            ingest_moo_hv(path)

    def test_overlong_field_names_line(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(
            "algorithm,function,dimension,instance,evaluations,success\n"
            "a,sphere,2,0,100,1\n"
            f"\"{'x' * 140_000}\",sphere,2,0,100,1\n"
        )
        with pytest.raises(ParseError, match=f"{path.name}:3:"):
            ingest_runs(path)

    def test_relert_table_emission(self, tmp_path):
        t = relert_matrix({("f", 2, "a"): 10.0, ("f", 2, "b"): 25.0})
        path = tmp_path / "relert.csv"
        emit_relert_table(path, t)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "function,dimension,a,b"
        assert lines[1] == "f,2,1.0,2.5"


# fields a hand-edited or damaged CSV file may hold: quotes, NULs, a field
# past the csv module's 131,072-character limit, numbers that do not parse
# or do not fit, and any short text
_csv_field = st.sampled_from([
    '"', '""', '"a,b"', 'a"b', "\0", "x" * 140_000, "nan", "inf", "-inf", "1e400", "0", "-1", "2.5",
    " 3", "1_0", "0x10", "1" * 5000, "", "\r", "\n",
]) | st.text(max_size=6) | st.integers(-(10**20), 10**20).map(str)
_csv_line = st.lists(_csv_field, max_size=7).map(",".join).map(lambda t: t.encode("utf-8", "surrogatepass"))
_csv_body = st.lists(_csv_line | st.binary(max_size=24), max_size=6)


@given(
    st.sampled_from([perfdata.RUN_CSV_HEADER, perfdata.MOO_CSV_HEADER]),
    _csv_body,
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
)
def test_fuzzed_csv_raises_only_toolkit_errors(tmp_path_factory, header, body, newline):
    """Both ingesters return records or raise a ContourselError, whatever
    follows a valid header."""
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(newline.join([",".join(header).encode(), *body]))
    for ingest in (ingest_runs, ingest_moo_hv):
        try:
            records = ingest(path)
        except ContourselError:
            continue
        assert isinstance(records, list)
