import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contoursel import perfdata
from contoursel.errors import ContractError, DataError, ParseError
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
    """Independent oracle: count dominated cell centers on a uniform grid."""
    pts = np.asarray(points, float).reshape(-1, 2)
    ref = np.asarray(ref, float)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0
    lo = pts.min(axis=0)
    step = (ref - lo) / cells_per_axis
    c1 = lo[0] + (np.arange(cells_per_axis) + 0.5) * step[0]
    c2 = lo[1] + (np.arange(cells_per_axis) + 0.5) * step[1]
    dominated = np.zeros((cells_per_axis, cells_per_axis), dtype=bool)
    for p in pts:
        dominated |= (c1[:, None] >= p[0]) & (c2[None, :] >= p[1])
    return dominated.sum() * step[0] * step[1]


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

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_ert_rejected(self, bad):
        with pytest.raises(DataError, match=r"\('f', 2, 'b'\)"):
            relert_matrix({("f", 2, "a"): 10.0, ("f", 2, "b"): bad})


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
            approx = grid_count_hv(pts, ref)
            assert exact == pytest.approx(approx, rel=0.01)


# coordinates on a coarse grid produce ties in either objective and exact
# duplicates; free floats produce general position
_coordinate = st.integers(0, 4).map(float) | st.floats(0.0, 1.0)


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

    def test_prespecified_passthrough(self):
        assert reference_point([], prespecified=(11.0, 12.0)) == (11.0, 12.0)

    def test_dominates_all_points(self):
        rng = np.random.default_rng(1)
        fronts = [rng.random((5, 2)) * 10 for _ in range(3)]
        ref = reference_point(fronts)
        allpts = np.concatenate(fronts)
        assert np.all(allpts[:, 0] < ref[0]) and np.all(allpts[:, 1] < ref[1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            reference_point([])

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

    @pytest.mark.parametrize("where, value", [("hv", np.nan), ("hv", np.inf), ("best", np.nan), ("best", np.inf)])
    def test_nonfinite_hv_rejected(self, where, value):
        records = self.make_records()
        hv_best = {"i1": 1.0, "i2": 1.0}
        if where == "hv":
            records[3] = MooHvRecord(records[3].algorithm, records[3].instance, records[3].repetition, value)
        else:
            hv_best["i2"] = value
        with pytest.raises(DataError, match="finite"):
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

    @pytest.mark.parametrize("row", ["a,sphere,2,0,100,7", "a,sphere,2,0,0,1", "a,sphere,2,0,100"])
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

    @pytest.mark.parametrize("hv", ["nan", "inf", "-inf"])
    def test_moo_nonfinite_hv_names_line(self, tmp_path, hv):
        path = tmp_path / "hv.csv"
        path.write_text(f"algorithm,instance,repetition,hv\na,zdt1_0,0,0.5\na,zdt1_0,1,{hv}\n")
        with pytest.raises(ParseError, match=f"{path.name}:3:"):
            ingest_moo_hv(path)

    def test_relert_table_emission(self, tmp_path):
        t = relert_matrix({("f", 2, "a"): 10.0, ("f", 2, "b"): 25.0})
        path = tmp_path / "relert.csv"
        emit_relert_table(path, t)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "function,dimension,a,b"
        assert lines[1] == "f,2,1.0,2.5"
