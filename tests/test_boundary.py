"""Every public array entry point refuses bad input with a ContourselError:
text, ragged nesting, point arrays of the wrong width, and NaN or inf where
a non-finite value would otherwise flow through as a silent NaN."""

import numpy as np
import pytest

from contoursel.errors import ContourselError, ContractError
from contoursel.neural import Dataset, Model, ModelSpec, TrainConfig, mse_loss, save_model, train, transform_targets
from contoursel.perfdata import (
    MooHvRecord,
    RunRecord,
    build_moo_table,
    emit_moo_hv,
    emit_runs,
    ert,
    ert_table,
    hypervolume_2d,
    nondominated_2d,
    reference_point,
    relert_matrix,
)
from contoursel.prober import (
    Window,
    build_moo_stacks,
    normalize,
    probe_grid,
    probe_grid_moo,
    quantize_levels,
    resize_bilinear,
    write_pgm,
)
from contoursel.suite import (
    ProblemId,
    evaluate_moo,
    evaluate_moo_batch,
    evaluate_soo,
    evaluate_soo_batch,
    make_instance,
    pareto_front_points,
)

SOO = make_instance(ProblemId(kind="soo", function_code="sphere", dimension=2, instance_index=0), 0)
MOO = make_instance(ProblemId(kind="moo", function_code="zdt1", dimension=2, instance_index=0), 0)
SPEC = ModelSpec(variant="combined", input_resolution=8, output_count=2, encoder_channels=(2, 3), head_widths=(4,))
MODEL = Model(SPEC, seed=0)
STACK = np.zeros((1, 5, 8, 8))
TWO = Dataset(stacks=[np.zeros((2, 5, 8, 8))], dims=[2.0, 3.0], targets=[[0.0, 0.0], [1.0, 1.0]])

TEXT = "ab"
RAGGED = [[0.1, 0.2], [0.3]]
TEXT_IN_PAIRS = [(0.1, 0.2), ("a", 0.3)]
WIDE = np.full((2, 3), 0.5)  # two rows of three, not three points
NAN_FIELD = np.array([[0.0, 0.5], [np.nan, 1.0]])
INF_FIELD = np.array([[0.0, 0.5], [np.inf, 1.0]])
NAN_POINTS = np.array([[0.1, 0.2], [np.nan, 0.3]])
INF_POINTS = np.array([[0.1, 0.2], [0.3, -np.inf]])


def forward(stack=STACK, dims=(2.0,)):
    return MODEL.forward_batch([stack], dims)


CASES = {
    "normalize-text": lambda tmp: normalize(TEXT),
    "normalize-ragged": lambda tmp: normalize(RAGGED),
    "quantize-text": lambda tmp: quantize_levels(TEXT, 4),
    "quantize-ragged": lambda tmp: quantize_levels(RAGGED, 4),
    "resize-text": lambda tmp: resize_bilinear(TEXT, 4),
    "resize-ragged": lambda tmp: resize_bilinear(RAGGED, 4),
    "resize-nan": lambda tmp: resize_bilinear(NAN_FIELD, 4),
    "resize-inf": lambda tmp: resize_bilinear(INF_FIELD, 4),
    "resize-nan-same-size": lambda tmp: resize_bilinear(NAN_FIELD, 2),
    "pgm-text": lambda tmp: write_pgm(TEXT, tmp / "f.pgm"),
    "pgm-ragged": lambda tmp: write_pgm(RAGGED, tmp / "f.pgm"),
    "soo-batch-text": lambda tmp: evaluate_soo_batch(SOO, TEXT),
    "soo-batch-ragged": lambda tmp: evaluate_soo_batch(SOO, RAGGED),
    "soo-batch-nan": lambda tmp: evaluate_soo_batch(SOO, NAN_POINTS),
    "soo-batch-inf": lambda tmp: evaluate_soo_batch(SOO, INF_POINTS),
    "soo-text": lambda tmp: evaluate_soo(SOO, TEXT),
    "soo-ragged": lambda tmp: evaluate_soo(SOO, RAGGED),
    "soo-nan": lambda tmp: evaluate_soo(SOO, [np.nan, 0.0]),
    "moo-batch-text": lambda tmp: evaluate_moo_batch(MOO, TEXT),
    "moo-batch-ragged": lambda tmp: evaluate_moo_batch(MOO, RAGGED),
    "moo-batch-wide": lambda tmp: evaluate_moo_batch(MOO, WIDE),
    "moo-batch-nan": lambda tmp: evaluate_moo_batch(MOO, NAN_POINTS),
    "moo-batch-inf": lambda tmp: evaluate_moo_batch(MOO, INF_POINTS),
    "moo-text": lambda tmp: evaluate_moo(MOO, TEXT),
    "moo-ragged": lambda tmp: evaluate_moo(MOO, RAGGED),
    "moo-inf": lambda tmp: evaluate_moo(MOO, [0.0, np.inf]),
    "nondominated-text": lambda tmp: nondominated_2d(TEXT),
    "nondominated-text-in-pairs": lambda tmp: nondominated_2d(TEXT_IN_PAIRS),
    "nondominated-ragged": lambda tmp: nondominated_2d(RAGGED),
    "nondominated-wide": lambda tmp: nondominated_2d(WIDE),
    "nondominated-triples": lambda tmp: nondominated_2d([(0.1, 0.2, 0.3)]),
    "nondominated-nan": lambda tmp: nondominated_2d([(np.nan, 1.0), (0.5, 0.5)]),
    "nondominated-inf": lambda tmp: nondominated_2d(INF_POINTS),
    "hv-text": lambda tmp: hypervolume_2d(TEXT, (1.0, 1.0)),
    "hv-text-in-pairs": lambda tmp: hypervolume_2d(TEXT_IN_PAIRS, (1.0, 1.0)),
    "hv-ragged": lambda tmp: hypervolume_2d(RAGGED, (1.0, 1.0)),
    "hv-wide": lambda tmp: hypervolume_2d(WIDE, (1.0, 1.0)),
    "hv-triples": lambda tmp: hypervolume_2d([(0.1, 0.2, 0.3)], (1.0, 1.0)),
    "ref-text": lambda tmp: reference_point([TEXT]),
    "ref-text-in-pairs": lambda tmp: reference_point([TEXT_IN_PAIRS]),
    "ref-ragged": lambda tmp: reference_point([RAGGED]),
    "ref-wide": lambda tmp: reference_point([WIDE]),
    "forward-stack-text": lambda tmp: forward(stack=TEXT),
    "forward-stack-ragged": lambda tmp: forward(stack=[STACK[0], STACK[0, :2]]),
    "forward-dims-text": lambda tmp: forward(dims=TEXT),
    "forward-dims-ragged": lambda tmp: forward(dims=RAGGED),
    "targets-text": lambda tmp: transform_targets("log10_relert", TEXT),
    "targets-ragged": lambda tmp: transform_targets("log10_relert", RAGGED),
    "targets-relhv-text": lambda tmp: transform_targets("relhv_clip", TEXT),
    "relert-not-a-dict": lambda tmp: relert_matrix([(("f", 2, "a"), 10.0)]),
    "relert-pair-key": lambda tmp: relert_matrix({("f", 2): 10.0}),
    "relert-text-ert": lambda tmp: relert_matrix({("f", 2, "a"): "10"}),
    "moo-table-text-hv": lambda tmp: build_moo_table([MooHvRecord("a", "i", 0, "0.5")], {"i": 1.0}),
    "moo-table-text-best": lambda tmp: build_moo_table([MooHvRecord("a", "i", 0, 0.5)], {"i": "1.0"}),
    "model-seed-float": lambda tmp: Model(SPEC, 1.5),
    "model-seed-text": lambda tmp: Model(SPEC, "a"),
    "model-seed-bool": lambda tmp: Model(SPEC, True),
    "model-seed-none": lambda tmp: Model(SPEC, None),
    "moo-record-no-algorithm": lambda tmp: MooHvRecord(None, "i", 0, 0.5),
    "moo-record-empty-instance": lambda tmp: MooHvRecord("a", "", 0, 0.5),
    "moo-record-negative-repetition": lambda tmp: MooHvRecord("a", "i", -1, 0.5),
    "moo-record-float-repetition": lambda tmp: MooHvRecord("a", "i", 0.5, 0.5),
    "moo-record-nan-hv": lambda tmp: MooHvRecord("a", "i", 0, np.nan),
    "relert-mixed-algorithms": lambda tmp: relert_matrix({("f", 2, "a"): 1.0, ("f", 2, 1): 2.0}),
    "relert-mixed-dimensions": lambda tmp: relert_matrix({("f", 2, "a"): 1.0, ("f", "2", "a"): 2.0}),
    "relert-zero-dimension": lambda tmp: relert_matrix({("f", 0, "a"): 1.0}),
    "ert-table-none": lambda tmp: ert_table(None),
    "ert-table-numbers": lambda tmp: ert_table([1, 2]),
    "moo-table-none": lambda tmp: build_moo_table(None, {}),
    "moo-table-list-best": lambda tmp: build_moo_table([MooHvRecord("a", "i", 0, 0.5)], ["i"]),
    "emit-runs-none": lambda tmp: emit_runs(tmp / "runs.csv", None),
    "emit-runs-numbers": lambda tmp: emit_runs(tmp / "runs.csv", [1]),
    "emit-moo-hv-numbers": lambda tmp: emit_moo_hv(tmp / "hv.csv", [1]),
    "probe-grid-moo-window-none": lambda tmp: probe_grid_moo(MOO, 4, window=None),
    "probe-grid-moo-window-tuple": lambda tmp: probe_grid_moo(MOO, 4, window=((0.0, 0.0), (1.0, 1.0))),
    "window-negative-side": lambda tmp: Window(lo=(0.0, 0.0), side=(-1.0, -1.0)),
    "window-zero-side": lambda tmp: Window(lo=(0.0, 0.0), side=(0.0, 0.0)),
    "window-text-corner": lambda tmp: Window(lo=("0", 0.0), side=(1.0, 1.0)),
    "dataset-text-targets": lambda tmp: Dataset(stacks=[STACK], dims=[2.0], targets=[["a", "b"]]),
    "dataset-stacks-none": lambda tmp: Dataset(stacks=None, dims=[2.0], targets=[[0.0, 0.0]]),
    "ert-none": lambda tmp: ert(None),
    "ert-numbers": lambda tmp: ert([1, 2]),
    "subset-out-of-range": lambda tmp: TWO.subset([5]),
    "subset-negative": lambda tmp: TWO.subset([-1]),
    "subset-text": lambda tmp: TWO.subset("a"),
    "subset-floats": lambda tmp: TWO.subset([0.5]),
    "subset-bools": lambda tmp: TWO.subset([True, False]),
    "subset-nested": lambda tmp: TWO.subset([[0]]),
    "loss-targets-text": lambda tmp: MODEL.loss_and_grads([STACK], [2.0], TEXT),
    "loss-targets-flat": lambda tmp: MODEL.loss_and_grads([STACK], [2.0], [0.0, 0.0]),
    "loss-targets-wide": lambda tmp: MODEL.loss_and_grads([STACK], [2.0], [[0.0, 0.0, 0.0]]),
    "loss-targets-nan": lambda tmp: MODEL.loss_and_grads([STACK], [2.0], [[np.nan, 0.0]]),
    "mse-empty": lambda tmp: mse_loss(np.zeros((0, 2)), np.zeros((0, 2))),
    "loss-empty-batch": lambda tmp: MODEL.loss_and_grads([STACK[:0]], [], np.zeros((0, 2))),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_a_toolkit_error(call, tmp_path):
    with pytest.raises(ContourselError):
        call(tmp_path)


@pytest.mark.parametrize("call, name", [
    (lambda: reference_point(5), "fronts"),
    (lambda: reference_point(None), "fronts"),
    (lambda: MODEL.forward_batch(5, [2.0]), "stacks"),
    (lambda: ert_table(None), "records"),
    (lambda: ert_table([1, 2]), "records"),
    (lambda: build_moo_table(None, {}), "records"),
    (lambda: build_moo_table([MooHvRecord("a", "i", 0, 0.5)], ["i"]), "hv_best"),
    (lambda: emit_runs("unused.csv", None), "records"),
    (lambda: emit_moo_hv("unused.csv", [1]), "records"),
    (lambda: Model(SPEC, "a"), "seed"),
    (lambda: Dataset(stacks=None, dims=[2.0], targets=[[0.0, 0.0]]), "stacks"),
    (lambda: ert(None), "records"),
    (lambda: ert([1, 2]), "records"),
    (lambda: train(None, TWO, TrainConfig(epochs=1)), "model"),
    (lambda: train(MODEL, None, TrainConfig(epochs=1)), "dataset"),
    (lambda: train(MODEL, TWO, None), "config"),
    (lambda: Model(None, 0), "spec"),
    (lambda: save_model(None, "unused.json"), "model"),
], ids=["ref-number", "ref-none", "forward-stacks-number", "ert-table-none", "ert-table-numbers", "moo-table-none",
        "moo-table-list-best", "emit-runs-none", "emit-moo-hv-numbers", "model-seed-text", "dataset-stacks-none",
        "ert-none", "ert-numbers", "train-model-none", "train-dataset-none", "train-config-none", "model-spec-none",
        "save-model-none"])
def test_a_non_sequence_argument_is_named(call, name):
    with pytest.raises(ContourselError, match=name):
        call()


@pytest.mark.parametrize("indices, index", [([5], "5"), ([1, -1], "-1"), ([0, 2, 3], "2")],
                         ids=["past-the-end", "negative", "first-of-two"])
def test_subset_names_the_index_out_of_range(indices, index):
    with pytest.raises(ContractError, match=f"sample index {index} is out of range for 2 samples"):
        TWO.subset(indices)


def test_loss_and_grads_takes_list_targets_like_arrays():
    listed = MODEL.loss_and_grads([STACK], [2.0], [[0.5, -0.5]])
    grads = [p.grad.copy() for p in MODEL.params()]
    assert MODEL.loss_and_grads([STACK], np.array([2.0]), np.array([[0.5, -0.5]])) == listed
    assert all(np.array_equal(g, p.grad) for g, p in zip(grads, MODEL.params()))


@pytest.mark.parametrize("emit, record", [
    (emit_runs, RunRecord("a", "sphere", 2, 0, 100, True)),
    (emit_moo_hv, MooHvRecord("a", "i", 0, 0.5)),
], ids=["runs", "moo-hv"])
@pytest.mark.parametrize("bad", [None, [1], ["a"]], ids=["none", "numbers", "text"])
def test_a_refused_emit_leaves_the_file_unchanged(emit, record, bad, tmp_path):
    path = tmp_path / "records.csv"
    emit(path, [record, record])
    before = path.read_bytes()
    with pytest.raises(ContourselError, match="records"):
        emit(path, bad)
    assert path.read_bytes() == before


@pytest.mark.parametrize("call", [
    lambda inst: evaluate_soo_batch(inst, [[0.0, 0.0]]),
    lambda inst: evaluate_soo(inst, [0.0, 0.0]),
    lambda inst: probe_grid(inst, (0, 1), 4),
], ids=["soo-batch", "soo", "probe-grid"])
@pytest.mark.parametrize("inst", [None, "sphere", MOO], ids=["none", "text", "moo-instance"])
def test_soo_entry_points_need_a_soo_instance(call, inst):
    with pytest.raises(ContractError, match="soo ProblemInstance"):
        call(inst)


@pytest.mark.parametrize("call", [
    lambda inst: evaluate_moo_batch(inst, [[0.0, 0.0]]),
    lambda inst: evaluate_moo(inst, [0.0, 0.0]),
    lambda inst: pareto_front_points(inst),
    lambda inst: probe_grid_moo(inst, 4),
    lambda inst: build_moo_stacks(inst, np.random.default_rng(0), r_probe=4, r_out=4),
], ids=["moo-batch", "moo", "pareto-front", "probe-grid-moo", "moo-stacks"])
@pytest.mark.parametrize("inst", [None, "zdt1", SOO], ids=["none", "text", "soo-instance"])
def test_moo_entry_points_need_a_moo_instance(call, inst):
    with pytest.raises(ContractError, match="moo ProblemInstance"):
        call(inst)


@pytest.mark.parametrize("pid", [("soo", "sphere", 2, 0), None, "sphere"], ids=["tuple", "none", "text"])
def test_make_instance_needs_a_problem_id(pid):
    with pytest.raises(ContractError, match="pid"):
        make_instance(pid, 3)
