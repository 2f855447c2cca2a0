"""Every public entry point refuses bad input with a ContourselError: text,
ragged nesting, point arrays of the wrong width, NaN or inf where a
non-finite value would otherwise flow through as a silent NaN, arguments of
the wrong type, and paths that cannot be opened.  A rule at the end checks
that a call here names every public function, class and method of suite,
prober, perfdata and neural, or that EXEMPT says why not."""

import ast
import base64
import inspect
import json
import pathlib
import re
import types

import numpy as np
import pytest

from contoursel import neural, perfdata, prober, suite
from contoursel.errors import ContourselError, ContractError, DataError, InvalidProblemError, ParseError
from contoursel.neural import (
    Dataset, Model, ModelSpec, TrainConfig, conv2d_forward, dense_forward, global_avg_pool_forward, load_model,
    maxpool2x2_forward, mse_loss, relu_forward, save_model, train, transform_targets,
)
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
from contoursel.prober import (
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
    OpenGrid,
    ProblemId,
    evaluate_moo_batch,
    evaluate_soo_batch,
    make_instance,
    pareto_front_points,
    require_instance,
    true_group,
)

SOO = make_instance(ProblemId(kind="soo", function_code="sphere", dimension=2, instance_index=0), 0)
MOO = make_instance(ProblemId(kind="moo", function_code="zdt1", dimension=2, instance_index=0), 0)
SPEC = ModelSpec(variant="combined", input_resolution=8, output_count=2, encoder_channels=(2, 3), head_widths=(4,))
MODEL = Model(SPEC, seed=0)
STACK = np.zeros((1, 5, 8, 8))
TWO = Dataset(stacks=[np.zeros((2, 5, 8, 8))], dims=[2.0, 3.0], targets=[[0.0, 0.0], [1.0, 1.0]])
TABLE = relert_matrix({("f", 2, "a"): 1.0})
MOO_TABLE = build_moo_table([MooHvRecord("a", "i", 0, 0.5)], {"i": 1.0})

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


def mutated(field, value):
    """TWO rebuilt, then one field reassigned after construction."""
    dataset = TWO.subset([0, 1])
    setattr(dataset, field, value)
    return dataset


# every entry point that reads or writes a file, called on the path it gets
FILE_CALLS = {
    "save-model": lambda path: save_model(MODEL, path),
    "load-model": load_model,
    "emit-runs": lambda path: emit_runs(path, [RunRecord("a", "sphere", 2, 0, 100, True)]),
    "ingest-runs": ingest_runs,
    "emit-moo-hv": lambda path: emit_moo_hv(path, [MooHvRecord("a", "i", 0, 0.5)]),
    "ingest-moo-hv": lambda path: ingest_moo_hv(path),  # a call, so the coverage rule below sees it
    "emit-relert-table": lambda path: emit_relert_table(path, TABLE),
    "write-pgm": lambda path: write_pgm(np.zeros((2, 2)), path),
}


# counts that no C long, float or array dimension holds, each refused by the
# name of its argument
TOO_LARGE = {
    "plan-slice-huge-dimension": (lambda: plan_slice(2**64, np.random.default_rng(0)), "slice dimension"),
    "quantize-huge-levels": (lambda: quantize_levels(np.zeros((2, 2)), 10**400), "levels"),
    "resize-huge-resolution": (lambda: resize_bilinear(np.zeros((2, 2)), 2**64), "output resolution"),
    "soo-stack-huge-r-out": (lambda: build_soo_stack("sphere", 2, range(5), 0, r_probe=4, r_out=2**64), "r_out"),
    "soo-stack-huge-r-probe": (lambda: build_soo_stack("sphere", 2, range(5), 0, r_probe=2**64, r_out=4),
                               "grid resolution"),
    "moo-stacks-huge-r-out": (lambda: build_moo_stacks(MOO, np.random.default_rng(0), r_probe=4, r_out=2**64),
                              "r_out"),
    "pareto-front-huge-count": (lambda: pareto_front_points(MOO, 2**64), "pareto front sample count"),
    "model-spec-huge-output-count": (lambda: ModelSpec("combined", 16, 2**64), "output_count"),
    "model-spec-huge-channels": (lambda: ModelSpec("combined", 16, 2, encoder_channels=(2**64,)), "encoder_channels"),
}


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
    "moo-batch-text": lambda tmp: evaluate_moo_batch(MOO, TEXT),
    "moo-batch-ragged": lambda tmp: evaluate_moo_batch(MOO, RAGGED),
    "moo-batch-wide": lambda tmp: evaluate_moo_batch(MOO, WIDE),
    "moo-batch-nan": lambda tmp: evaluate_moo_batch(MOO, NAN_POINTS),
    "moo-batch-inf": lambda tmp: evaluate_moo_batch(MOO, INF_POINTS),
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
    "forward-empty-images": lambda tmp: forward(stack=np.zeros((1, 5, 0, 0))),
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
    "sbs-none": lambda tmp: sbs(None),
    "vbs-mean-none": lambda tmp: vbs_mean(None),
    "rel-hv-text": lambda tmp: rel_hv("a", 1.0, 2.0),
    "true-group-list": lambda tmp: true_group(["sphere"]),
    "emit-relert-table-number": lambda tmp: emit_relert_table(tmp / "relert.csv", 5),
    "relert-row-unknown": lambda tmp: TABLE.row("g", 2),
    "relhv-row-unknown": lambda tmp: MOO_TABLE.relhv_row("x"),
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
    "spec-missing-key": lambda tmp: ModelSpec.from_json({k: v for k, v in SPEC.to_json().items() if k != "view_count"}),
    "train-mutated-stacks": lambda tmp: train(MODEL, mutated("stacks", 5), TrainConfig(epochs=1)),
    "train-mutated-dims": lambda tmp: train(MODEL, mutated("dims", [2.0]), TrainConfig(epochs=1)),
    "train-mutated-targets": lambda tmp: train(MODEL, mutated("targets", [[0.0, 0.0]]), TrainConfig(epochs=1)),
    **{f"{name}-missing-directory": lambda tmp, call=call: call(tmp / "missing" / "file")
       for name, call in FILE_CALLS.items()},
    **{f"{name}-directory": lambda tmp, call=call: call(tmp) for name, call in FILE_CALLS.items()},
    # open takes an integer as a file descriptor: 0 would read or write standard input
    **{f"{name}-path-{label}": lambda tmp, call=call, path=path: call(path)
       for name, call in FILE_CALLS.items() for label, path in (("none", None), ("float", 3.5), ("int", 0))},
    **{name: lambda tmp, call=call: call() for name, (call, _) in TOO_LARGE.items()},
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
    (lambda: plan_slice(3, 0), "rng"),
    (lambda: sample_window(0.5, None), "rng"),
    (lambda: probe_grid_moo(MOO, 4, window=None), "window"),
    (lambda: make_instance(None, 3), "pid"),
    (lambda: Dataset(stacks=[STACK], dims=[2.0], targets=[[0.0, 0.0]], tags=5), "tags"),
    (lambda: sbs(None), "table"),
    (lambda: vbs_mean(None), "table"),
    (lambda: emit_relert_table("unused.csv", 5), "table"),
    (lambda: true_group(["sphere"]), "function_code"),
], ids=["ref-number", "ref-none", "forward-stacks-number", "ert-table-none", "ert-table-numbers", "moo-table-none",
        "moo-table-list-best", "emit-runs-none", "emit-moo-hv-numbers", "model-seed-text", "dataset-stacks-none",
        "ert-none", "ert-numbers", "train-model-none", "train-dataset-none", "train-config-none", "model-spec-none",
        "save-model-none", "plan-slice-rng", "sample-window-rng", "probe-grid-moo-window", "make-instance-pid",
        "dataset-tags-number", "sbs-none", "vbs-mean-none", "emit-relert-table-number", "true-group-list"])
def test_a_non_sequence_argument_is_named(call, name):
    with pytest.raises(ContourselError, match=name):
        call()


@pytest.mark.parametrize("call, name", TOO_LARGE.values(), ids=TOO_LARGE.keys())
def test_a_count_too_large_for_a_machine_integer_is_named(call, name):
    with pytest.raises(ContractError, match=f"^{name} must be "):
        call()


# numpy reads None as a NaN scalar, so without its own refusal a missing
# argument would be reported as bad data
NONE_ARRAYS = {
    "forward-dims": lambda: MODEL.forward_batch([STACK], None),
    "normalize": lambda: normalize(None),
    "quantize-levels": lambda: quantize_levels(None, 4),
    "transform-targets": lambda: transform_targets("relhv_clip", None),
    "hypervolume-points": lambda: hypervolume_2d(None, (1.0, 1.0)),
    "evaluate-soo-points": lambda: evaluate_soo_batch(SOO, None),
    "resize-bilinear": lambda: resize_bilinear(None, 4),
}


@pytest.mark.parametrize("call", NONE_ARRAYS.values(), ids=NONE_ARRAYS.keys())
def test_a_missing_array_is_refused_by_name(call):
    with pytest.raises(DataError, match="must be numbers, got None$"):
        call()


def saved_container(tmp, edit):
    """The path of MODEL saved under tmp, its JSON container changed by edit."""
    path = tmp / "model.json"
    save_model(MODEL, path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


WRONG_SIZE_PAYLOAD = base64.b64encode(np.zeros(3).tobytes()).decode("ascii")  # encoder.conv0.b holds two values

# refusals no other case reaches, each with its class and message
TYPED_REFUSALS = {
    "forward-too-small-to-pool": (
        lambda tmp: Model(ModelSpec(variant="combined", input_resolution=64, output_count=2), seed=0).forward_batch(
            [np.zeros((1, 5, 4, 4))], [2.0]),
        ContractError, "too small to pool"),
    "dense-input-width": (lambda tmp: dense_forward(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2)),
                          ContractError, "dense input width 3 != weight width 4"),
    "dense-input-rank": (lambda tmp: dense_forward(np.zeros(3), np.zeros((2, 3)), np.zeros(2)),
                         ContractError, r"^x must have 2 axes, got shape \(3,\)$"),
    "conv-input-rank": (lambda tmp: conv2d_forward(np.zeros((4, 4)), np.zeros((2, 1, 3, 3)), np.zeros(2)),
                        ContractError, r"^x must have 4 axes, got shape \(4, 4\)$"),
    "pool-input-rank": (lambda tmp: maxpool2x2_forward(np.zeros((4, 4))),
                        ContractError, r"^x must have 4 axes, got shape \(4, 4\)$"),
    "gap-input-rank": (lambda tmp: global_avg_pool_forward(np.zeros((4, 4))),
                       ContractError, r"^x must have 4 axes, got shape \(4, 4\)$"),
    "relu-input-list": (lambda tmp: relu_forward([1.0]), ContractError, "^x must be a ndarray, got list$"),
    "mse-lists": (lambda tmp: mse_loss([1.0], [1.0]), ContractError, "^pred must be a ndarray, got list$"),
    "backward-no-cache": (lambda tmp: MODEL.backward_batch(np.zeros((1, 2)), None),
                          ContractError, "^cache must be a tuple, got NoneType$"),
    # gpred is refused before the cache is read
    "backward-no-gradient": (lambda tmp: MODEL.backward_batch(None, ()),
                             ContractError, "^gpred must be a ndarray, got NoneType$"),
    "rel-hv-text": (lambda tmp: rel_hv("a", 1.0, 2.0), DataError, "hypervolumes must be numbers"),
    "transform-unknown-kind": (lambda tmp: transform_targets("x", [1.0]), ContractError, "unknown target transform"),
    "train-empty-dataset": (lambda tmp: train(MODEL, TWO.subset([]), TrainConfig(epochs=1)),
                            ContractError, "empty training dataset"),
    "load-model-payload-size": (
        lambda tmp: load_model(saved_container(tmp, lambda c: c["params"][1].update(data=WRONG_SIZE_PAYLOAD))),
        DataError, "encoder.conv0.b has wrong payload size"),
    "load-model-empty-encoder": (
        lambda tmp: load_model(saved_container(tmp, lambda c: c["spec"].update(encoder_channels=[]))),
        ParseError, "encoder_channels"),
    "problem-id-kind": (lambda tmp: ProblemId(kind="x", function_code="sphere", dimension=2, instance_index=0),
                        InvalidProblemError, "unknown kind 'x'"),
    # a grid is refused by name, never by the bare ValueError of np.broadcast_shapes
    "open-grid-list": (lambda tmp: OpenGrid([np.zeros(2), np.zeros(2)]), ContractError,
                       "^coords must be a tuple, got list$"),
    "open-grid-text": (lambda tmp: OpenGrid(TEXT), ContractError, "^coords must be a tuple, got str$"),
    "open-grid-text-coordinates": (lambda tmp: OpenGrid(("a", "b")), DataError, "^grid coordinates must be numbers"),
    "open-grid-nan": (lambda tmp: OpenGrid((np.array([0.0, np.nan]), np.zeros((1, 1)))), DataError,
                      r"^grid coordinates: not finite \(NaN or inf\)$"),
    "open-grid-inf": (lambda tmp: OpenGrid((np.zeros((1, 1)), np.array([[np.inf]]))), DataError,
                      r"^grid coordinates: not finite \(NaN or inf\)$"),
    "open-grid-no-broadcast": (lambda tmp: OpenGrid((np.zeros((1, 3)), np.zeros((1, 2)))), ContractError,
                               r"^grid coordinates of shapes \[\(1, 3\), \(1, 2\)\] do not broadcast together$"),
    "open-grid-empty": (lambda tmp: OpenGrid(()), ContractError, "^a grid needs at least one coordinate$"),
    "soo-batch-grid-arity": (lambda tmp: evaluate_soo_batch(SOO, OpenGrid((np.zeros(3),) * 3)), ContractError,
                             "^expected a grid of 2 coordinates, got 3$"),
    "moo-batch-grid-one-coordinate": (lambda tmp: evaluate_moo_batch(MOO, OpenGrid((np.zeros(3),))), ContractError,
                                      "^expected a grid of 2 coordinates, got 1$"),
    "moo-batch-grid-three-coordinates": (lambda tmp: evaluate_moo_batch(MOO, OpenGrid((np.zeros(3),) * 3)),
                                         ContractError, "^expected a grid of 2 coordinates, got 3$"),
    "moo-batch-grid-outside-zdt-domain": (
        lambda tmp: evaluate_moo_batch(MOO, OpenGrid((np.zeros((1, 3)), np.array([[0.0], [5.5]])))),
        DataError, r"^zdt1 points must lie in the domain \[-5.0, 5.0\]\^2$"),
}


@pytest.mark.parametrize("call, error, message", TYPED_REFUSALS.values(), ids=TYPED_REFUSALS.keys())
def test_refusal_has_its_class_and_message(call, error, message, tmp_path):
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_a_wrong_type_is_named_with_its_module():
    """numpy 2 names its bool scalar type `bool` too."""
    with pytest.raises(ContractError, match=r"success must be a bool, got numpy\.bool_?$"):
        RunRecord("a", "sphere", 2, 0, 100, np.True_)


@pytest.mark.parametrize("call", FILE_CALLS.values(), ids=FILE_CALLS.keys())
def test_an_integer_path_is_refused_before_it_is_opened(call):
    """open would take 0 as the file descriptor of standard input."""
    with pytest.raises(ContractError, match="^path must be a str or bytes or PathLike, got int$"):
        call(0)


def test_a_tuple_of_point_tuples_is_a_batch_not_a_grid():
    got = evaluate_soo_batch(SOO, ((1.0, 2.0), (3.0, 4.0)))
    assert got.shape == (2,)
    np.testing.assert_array_equal(got, evaluate_soo_batch(SOO, np.array([[1.0, 2.0], [3.0, 4.0]])))


def test_a_grid_without_points_evaluates_to_an_empty_field():
    grid = OpenGrid((np.zeros((0, 1)), np.zeros((1, 3))))
    assert len(grid) == 0 and grid.points().shape == (0, 2)
    assert evaluate_soo_batch(SOO, grid).shape == (0, 3)
    assert evaluate_moo_batch(MOO, grid).shape == (0, 3, 2)


def test_a_zero_dimensional_field_quantizes_to_its_band_midpoint():
    """np.minimum of a 0-d array is a numpy scalar, which np.floor(out=) refuses."""
    got = quantize_levels(np.array(0.3), 4)
    assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == np.float64
    assert got.tobytes() == np.array(0.375).tobytes()


def test_a_window_rebuilds_from_its_json():
    window = Window(lo=(0.25, -1.5), side=(0.1, 2.0))
    data = json.loads(json.dumps(window.to_json()))
    assert Window(**{key: tuple(value) for key, value in data.items()}) == window


def test_a_path_that_cannot_be_opened_is_named_with_the_reason(tmp_path):
    path = tmp_path / "missing" / "runs.csv"
    with pytest.raises(ContractError, match=re.escape(f"{path}: No such file or directory")):
        ingest_runs(path)


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
    lambda inst: probe_grid(inst, (0, 1), 4),
    lambda inst: require_instance(inst, "soo", "a caller"),
], ids=["soo-batch", "probe-grid", "require-instance"])
@pytest.mark.parametrize("inst", [None, "sphere", MOO], ids=["none", "text", "moo-instance"])
def test_soo_entry_points_need_a_soo_instance(call, inst):
    with pytest.raises(ContractError, match="soo ProblemInstance"):
        call(inst)


@pytest.mark.parametrize("call", [
    lambda inst: evaluate_moo_batch(inst, [[0.0, 0.0]]),
    lambda inst: pareto_front_points(inst),
    lambda inst: probe_grid_moo(inst, 4),
    lambda inst: build_moo_stacks(inst, np.random.default_rng(0), r_probe=4, r_out=4),
], ids=["moo-batch", "pareto-front", "probe-grid-moo", "moo-stacks"])
@pytest.mark.parametrize("inst", [None, "zdt1", SOO], ids=["none", "text", "soo-instance"])
def test_moo_entry_points_need_a_moo_instance(call, inst):
    with pytest.raises(ContractError, match="moo ProblemInstance"):
        call(inst)


@pytest.mark.parametrize("pid", [("soo", "sphere", 2, 0), None, "sphere"], ids=["tuple", "none", "text"])
def test_make_instance_needs_a_problem_id(pid):
    with pytest.raises(ContractError, match="pid"):
        make_instance(pid, 3)


def test_a_refused_relert_table_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "relert.csv"
    emit_relert_table(path, TABLE)
    before = path.read_bytes()
    with pytest.raises(ContractError, match="table"):
        emit_relert_table(path, 5)
    assert path.read_bytes() == before


# public callables that no call in this file names, each with the reason
EXEMPT = {
    "neural.conv2d_backward": "takes the cache conv2d_forward returned",
    "neural.relu_backward": "takes the mask relu_forward returned",
    "neural.maxpool2x2_backward": "takes the cache maxpool2x2_forward returned",
    "neural.global_avg_pool_backward": "takes the cache global_avg_pool_forward returned",
    "neural.dense_backward": "takes the cache dense_forward returned",
    "neural.Param": "built by Model, one per weight and bias",
    "neural.Adam": "built by train over Model.params()",
    "neural.Adam.step": "takes no argument",
    "perfdata.RelErtTable": "a container relert_matrix builds",
    "perfdata.MooPerfTable": "a container build_moo_table builds",
    "prober.ContourStack": "a container build_soo_stack and build_moo_stacks build",
    "prober.ContourStack.as_array": "takes no argument",
    "suite.ProblemInstance": "a container make_instance builds",
}


# names a factory function binds here, each with the class of what it returns
RECEIVERS = {"TABLE": "RelErtTable", "MOO_TABLE": "MooPerfTable"}
MODULES = (suite, prober, perfdata, neural)


def public_callables():
    """{qualified name: (class, name)} for every public function and class
    that suite, prober, perfdata and neural define (class None), and for
    every public method of those classes (the name of its class)."""
    found = {}
    for module in MODULES:
        stem = module.__name__.rpartition(".")[2]
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) or inspect.isclass(value):
                found[f"{stem}.{name}"] = (None, name)
            if inspect.isclass(value):
                found.update({f"{stem}.{name}.{attr}": (name, attr) for attr, member in vars(value).items()
                              if not attr.startswith("_") and isinstance(member, (types.FunctionType, staticmethod))})
    return found


def calls(tree):
    """(class, name) of every call in tree: (None, name) for a call of a
    bare or module-qualified name, and (class, name) for a method whose
    receiver may be that class: the class itself or a call of it, a name
    assigned here from a call of the class, or a name RECEIVERS binds."""
    bound = {name: {cls} for name, cls in RECEIVERS.items()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, set()).add(node.value.func.id)
    modules = {module.__name__.rpartition(".")[2] for module in MODULES}
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            found.add((None, node.func.id))
        elif isinstance(node.func, ast.Attribute):
            receiver = node.func.value.func if isinstance(node.func.value, ast.Call) else node.func.value
            if isinstance(receiver, ast.Name):
                if receiver.id in modules:
                    found.add((None, node.func.attr))
                found.update((cls, node.func.attr) for cls in {receiver.id} | bound.get(receiver.id, set()))
    return found


def test_every_public_callable_is_called_here_or_exempt():
    """Each public entry point of the four modules is named by a call in
    this file, so some case here feeds it input, or EXEMPT says why not.  A
    method counts as called only on a receiver of its own class, so a call
    of a method of the same name on another class does not cover it."""
    called = calls(ast.parse(pathlib.Path(__file__).read_text(encoding="utf-8")))
    public = public_callables()
    assert set(EXEMPT) <= set(public), f"exemptions for no public callable: {sorted(set(EXEMPT) - set(public))}"
    missing = sorted(q for q, name in public.items() if name not in called and q not in EXEMPT)
    assert not missing, f"public callables no call here names: {missing}"
