"""The benchmark's workloads: seeded inputs, timed rounds and output checks.

Every input (instance seeds, slice seeds, synthetic solver runs, synthetic
solver populations) is generated here from the workload seed; the package
only receives the generated inputs.  The package is called through its
module attributes (``prober.build_soo_stack(...)``) so that the traced run
can wrap each public function at the name its caller looks up.

A workload is an object with ``setup()``, which returns the prepared state
plus the stage times and work counts it measured, ``round(state)``, which
runs the timed pipeline once and returns its outputs plus per-stage times
and work counts, and ``check(state, outputs, checks)``, which verifies one
round's outputs.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from contoursel import neural, perfdata, prober, suite

BATCH_SIZE = 8
SOO_SOLVERS = 5
MOO_SOLVERS = 8
SOO_INSTANCES = prober.VIEWS_PER_STACK  # one probed view per instance


@dataclass(frozen=True)
class Size:
    """How much work one round does; FULL is what the benchmark measures."""

    name: str
    soo_configs: tuple  # (function, dimension) pairs
    r_probe: int
    r_out: int
    soo_runs: int  # synthetic runs per (config, solver, instance)
    combined_epochs: int
    separate_epochs: int
    infer_passes: int
    moo_instances: int  # instances per bi-objective function
    moo_stack_reps: int  # build_moo_stacks repetitions per instance
    moo_reps: int  # synthetic runs per (solver, instance)
    population: int  # points per synthetic final population
    hv_oracle_fronts: int  # fronts per round checked against the grid oracle


FULL = Size(
    name="full",
    soo_configs=tuple((f, d) for f in suite.SOO_FUNCTIONS for d in suite.SOO_DIMENSIONS),
    r_probe=prober.DEFAULT_PROBE_RESOLUTION,
    r_out=64,
    soo_runs=20,
    combined_epochs=6,
    separate_epochs=2,
    infer_passes=2,
    moo_instances=4,
    moo_stack_reps=3,
    moo_reps=40,
    population=40,
    hv_oracle_fronts=16,
)

SMOKE = Size(
    name="smoke",
    soo_configs=(("sphere", 2), ("rastrigin", 3), ("rosenbrock", 5), ("ackley", 10)),
    r_probe=24,
    r_out=16,
    soo_runs=2,
    combined_epochs=3,
    separate_epochs=2,
    infer_passes=1,
    moo_instances=1,
    moo_stack_reps=1,
    moo_reps=3,
    population=12,
    hv_oracle_fronts=4,
)


class Checks:
    """Named correctness checks of one run; a failure keeps its detail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _rng(seed: int, *words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *words]))


class _Timer:
    """Stage stopwatch: ``lap(name)`` books the time since the previous lap."""

    def __init__(self):
        self.stages: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.stages[name] = self.stages.get(name, 0.0) + now - self._last
        self._last = now


# ---------------------------------------------------------------------------
# Single-objective inputs and stages


@dataclass(frozen=True)
class SooConfig:
    function_code: str
    dimension: int
    instance_seeds: tuple
    slice_seed: int


def soo_inputs(seed: int, size: Size):
    """Probe seeds per configuration plus seeded synthetic solver runs.

    Each synthetic solver gets a per-configuration success rate (0 for about
    a fifth of the pairs, so PAR10 imputation is exercised) and a running
    time scale; one solver per configuration always succeeds at least once,
    so no configuration is dropped.
    """
    configs = []
    records = []
    for k, (f, d) in enumerate(size.soo_configs):
        rng = _rng(seed, 0x500, k)
        configs.append(
            SooConfig(
                f,
                d,
                tuple(int(s) for s in rng.integers(0, 2**31, SOO_INSTANCES)),
                int(rng.integers(0, 2**31)),
            )
        )
        budget = d * 10**4
        winner = int(rng.integers(SOO_SOLVERS))
        for a in range(SOO_SOLVERS):
            rate = 0.0 if a != winner and rng.random() < 0.2 else rng.uniform(0.3, 1.0)
            scale = d * 10 ** rng.uniform(1.5, 3.5)
            for inst in range(SOO_INSTANCES):
                for run in range(size.soo_runs):
                    success = rng.random() < rate or (a == winner and inst == 0 and run == 0)
                    evals = min(budget, int(np.ceil(scale * rng.lognormal(0.0, 0.5))))
                    records.append(
                        perfdata.RunRecord(
                            algorithm=f"solver{a}",
                            function_code=f,
                            dimension=d,
                            instance_index=inst,
                            evaluations_used=evals if success else budget,
                            success=bool(success),
                        )
                    )
    return configs, records


def build_soo_stacks(configs, size: Size):
    return [
        prober.build_soo_stack(
            c.function_code,
            c.dimension,
            c.instance_seeds,
            c.slice_seed,
            r_probe=size.r_probe,
            r_out=size.r_out,
        )
        for c in configs
    ]


def soo_targets(configs, records, workdir):
    """Run records -> CSV round trip -> ERT -> relERT -> log10 targets."""
    path = os.path.join(workdir, "runs.csv")
    perfdata.emit_runs(path, records)
    table = perfdata.relert_matrix(perfdata.ert_table(perfdata.ingest_runs(path)))
    relert = np.array([table.row(c.function_code, c.dimension) for c in configs])
    return table, relert, neural.transform_targets("log10_relert", relert)


def _check_stacks(tag: str, stacks, size: Size, checks: Checks) -> None:
    """Shape, range and evaluation budget of SOO stacks or of each MOO
    objective stack: every view costs r_probe^2 evaluations."""
    shape = (prober.VIEWS_PER_STACK, size.r_out, size.r_out)
    arrays = [s.as_array() for s in stacks]
    checks.check(
        f"{tag}.stack_shape",
        all(a.shape == shape for a in arrays),
        f"want {shape}, got {sorted({a.shape for a in arrays})}",
    )
    checks.check(
        f"{tag}.stack_range",
        all(a.min() >= 0.0 and a.max() <= 1.0 for a in arrays),
        "stack values outside [0, 1]",
    )
    want = prober.VIEWS_PER_STACK * size.r_probe**2
    spent = [s.evaluations_spent for s in stacks]
    checks.check(
        f"{tag}.evaluations_spent",
        all(n == want for n in spent),
        f"want {want} per stack, got {sorted(set(spent))}",
    )


def _check_relert(table, relert, checks: Checks) -> None:
    mins = relert.min(axis=1)
    checks.check(
        "soo.relert_row_min_is_1",
        bool(np.all(mins == 1.0)),
        f"row minima {mins[mins != 1.0][:4].tolist()}",
    )
    checks.check(
        "soo.relert_rows",
        relert.shape == (len(table.configs), SOO_SOLVERS),
        f"relERT matrix shape {relert.shape}",
    )


def _check_training(losses, predictions, n_samples, checks: Checks, tag: str) -> None:
    losses = np.asarray(losses)
    checks.check(f"{tag}.loss_finite", bool(np.all(np.isfinite(losses))), f"losses {losses}")
    checks.check(f"{tag}.loss_falls", bool(losses[-1] < losses[0]), f"losses {losses}")
    checks.check(
        f"{tag}.predictions",
        predictions.shape == (n_samples, SOO_SOLVERS) and bool(np.all(np.isfinite(predictions))),
        f"shape {predictions.shape}, finite {bool(np.all(np.isfinite(predictions)))}",
    )


def _model_spec(variant: str, size: Size) -> neural.ModelSpec:
    return neural.ModelSpec(variant=variant, input_resolution=size.r_out, output_count=SOO_SOLVERS)


def _warm_up(spec: neural.ModelSpec, seed: int) -> None:
    """One optimizer step on random data: BLAS threads and allocator pools
    start here, not in the first timed round."""
    rng = _rng(seed, 0x3A)
    model = neural.Model(spec, seed)
    stacks = [rng.random((BATCH_SIZE, spec.view_count, spec.input_resolution, spec.input_resolution))]
    model.loss_and_grads(stacks, np.full(BATCH_SIZE, 2.0), rng.random((BATCH_SIZE, spec.output_count)))
    neural.Adam(model.params(), 1e-3).step()


def _train_config(seed: int, epochs: int) -> neural.TrainConfig:
    return neural.TrainConfig(epochs=epochs, batch_size=BATCH_SIZE, seed=seed)


# ---------------------------------------------------------------------------
# Workloads


class SooPipeline:
    """probe 32 stacks -> relERT targets -> fit `combined` -> predict and
    select (stage "infer")."""

    name = "soo_pipeline"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.spec = _model_spec("combined", size)

    def setup(self):
        configs, records = soo_inputs(self.seed, self.size)
        dims = np.array([c.dimension for c in configs], dtype=float)
        _warm_up(self.spec, self.seed)
        return {"configs": configs, "records": records, "dims": dims}, {}, {}

    def round(self, state):
        timer = _Timer()
        configs = state["configs"]
        stacks = build_soo_stacks(configs, self.size)
        timer.lap("probe")
        table, relert, targets = soo_targets(configs, state["records"], self.workdir)
        timer.lap("targets")
        x = np.stack([s.as_array() for s in stacks])
        model = neural.Model(self.spec, self.seed)
        losses = neural.train(
            model,
            neural.Dataset(stacks=[x], dims=state["dims"], targets=targets),
            _train_config(self.seed, self.size.combined_epochs),
        )
        timer.lap("train")
        predictions, _ = model.forward_batch([x], state["dims"])
        selection = predictions.argmin(axis=1)
        timer.lap("infer")
        outputs = {
            "stacks": stacks,
            "table": table,
            "relert": relert,
            "targets": targets,
            "final_loss": losses[-1],
            "losses": losses,
            "predictions": predictions,
            "selection": selection,
        }
        n = len(configs)
        return outputs, timer.stages, {
            "evaluations": sum(s.evaluations_spent for s in stacks),
            "train_samples": n * self.size.combined_epochs,
            "infer_samples": n,
        }

    def check(self, state, outputs, checks: Checks) -> None:
        _check_stacks("soo", outputs["stacks"], self.size, checks)
        _check_relert(outputs["table"], outputs["relert"], checks)
        n = len(state["configs"])
        _check_training(outputs["losses"], outputs["predictions"], n, checks, "combined")
        checks.check(
            "soo.selection_is_argmin",
            np.array_equal(outputs["selection"], outputs["predictions"].argmin(axis=1)),
        )


class SeparateTrain:
    """Stacks and targets built in set-up; fit `separate`, then predict."""

    name = "separate_train"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.spec = _model_spec("separate", size)

    def setup(self):
        configs, records = soo_inputs(self.seed, self.size)
        timer = _Timer()
        stacks = build_soo_stacks(configs, self.size)
        timer.lap("probe")
        table, relert, targets = soo_targets(configs, records, self.workdir)
        timer.lap("targets")
        _warm_up(self.spec, self.seed)
        state = {
            "configs": configs,
            "stacks": stacks,
            "table": table,
            "relert": relert,
            "x": np.stack([s.as_array() for s in stacks]),
            "dims": np.array([c.dimension for c in configs], dtype=float),
            "targets": targets,
        }
        return state, timer.stages, {"evaluations": sum(s.evaluations_spent for s in stacks)}

    def round(self, state):
        timer = _Timer()
        x, dims = state["x"], state["dims"]
        model = neural.Model(self.spec, self.seed)
        losses = neural.train(
            model,
            neural.Dataset(stacks=[x], dims=dims, targets=state["targets"]),
            _train_config(self.seed, self.size.separate_epochs),
        )
        timer.lap("train")
        passes = []
        for _ in range(self.size.infer_passes):
            batches = [
                model.forward_batch([x[i : i + BATCH_SIZE]], dims[i : i + BATCH_SIZE])[0]
                for i in range(0, len(x), BATCH_SIZE)
            ]
            passes.append(np.concatenate(batches))
        timer.lap("infer")
        outputs = {
            "final_loss": losses[-1],
            "losses": losses,
            "predictions": passes[-1],
            "passes": passes,
        }
        n = len(x)
        return outputs, timer.stages, {
            "train_samples": n * self.size.separate_epochs,
            "infer_samples": n * self.size.infer_passes,
        }

    def check(self, state, outputs, checks: Checks) -> None:
        _check_stacks("soo", state["stacks"], self.size, checks)
        _check_relert(state["table"], state["relert"], checks)
        _check_training(outputs["losses"], outputs["predictions"], len(state["x"]), checks, "separate")
        checks.check(
            "separate.inference_repeats",
            all(np.array_equal(p, outputs["passes"][0]) for p in outputs["passes"]),
            "forward passes over the same inputs disagree",
        )


# ---------------------------------------------------------------------------
# Bi-objective


def moo_inputs(seed: int, size: Size):
    """Instances, window seeds and synthetic final populations.

    A synthetic solver's population sits at a seeded, per-(solver, function)
    distance from the Pareto set, with a seeded spread along it, so solvers
    win on different functions and relHV is not trivial.
    """
    rng = _rng(seed, 0x3000)
    instances = []
    for f in suite.MOO_FUNCTIONS:
        for i in range(size.moo_instances):
            pid = suite.ProblemId(kind="moo", function_code=f, dimension=2, instance_index=i)
            instances.append(suite.make_instance(pid, int(rng.integers(0, 2**31))))
    window_seeds = rng.integers(0, 2**63, (len(instances), size.moo_stack_reps))
    gap = 10 ** rng.uniform(-3.0, -0.5, (MOO_SOLVERS, len(suite.MOO_FUNCTIONS)))
    spread = rng.uniform(0.3, 3.0, (MOO_SOLVERS, len(suite.MOO_FUNCTIONS)))
    populations = {}
    for k, inst in enumerate(instances):
        fi = suite.MOO_FUNCTIONS.index(inst.id.function_code)
        for a in range(MOO_SOLVERS):
            for rep in range(size.moo_reps):
                along = rng.random(size.population) ** spread[a, fi]
                off = gap[a, fi] * rng.random(size.population)
                populations[(k, a, rep)] = _population(inst, along, off)
    return instances, window_seeds, populations


def _population(inst, along, off):
    """Decision vectors at parameter `along` on the Pareto set, pushed away
    from it by `off` (both in [0, 1]), mapped into the [-5, 5]^2 domain."""
    lo, hi = suite.DOMAIN_LO, suite.DOMAIN_HI
    if inst.id.function_code == "bi_sphere":
        a, b = inst.centers
        pts = a + along[:, None] * (b - a) + off[:, None] * (hi - lo) * 0.1
        return np.clip(pts, lo, hi)
    # ZDT: the Pareto set is u2 = 0, with u1 spanning the front
    return np.stack([lo + along * (hi - lo), lo + off * (hi - lo)], axis=1)


def _instance_name(inst) -> str:
    return f"{inst.id.function_code}.{inst.id.instance_index}"


def grid_hypervolume(points, ref, cells: int = 512):
    """Independent oracle: count grid cell centres dominated by the front.

    Returns the estimate and a bound on its error: the region's boundary is
    a monotone staircase, which crosses at most 2 * cells cells.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if len(pts) == 0:
        return 0.0, 0.0
    lo = pts.min(axis=0)
    width, height = ref[0] - lo[0], ref[1] - lo[1]
    xs = lo[0] + (np.arange(cells) + 0.5) * width / cells
    ys = lo[1] + (np.arange(cells) + 0.5) * height / cells
    order = np.argsort(pts[:, 0], kind="stable")
    f1 = pts[order, 0]
    best_f2 = np.minimum.accumulate(pts[order, 1])
    k = np.searchsorted(f1, xs, side="right")  # points with f1 <= x
    floor = np.where(k > 0, best_f2[np.maximum(k - 1, 0)], np.inf)
    covered = int(np.count_nonzero(ys[None, :] >= floor[:, None]))
    cell = width * height / cells**2
    return covered * cell, 2 * cells * cell


class MooTargets:
    """MOO stacks -> true fronts -> scored synthetic fronts -> relHV targets."""

    name = "moo_targets"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir

    def setup(self):
        instances, window_seeds, populations = moo_inputs(self.seed, self.size)
        # warm-up: one small probe and one scored front
        inst = instances[0]
        prober.build_moo_stacks(inst, _rng(self.seed, 0x3B), r_probe=8, r_out=4)
        front = suite.evaluate_moo_batch(inst, populations[(0, 0, 0)])
        perfdata.hypervolume_2d(front, perfdata.reference_point([front]))
        checked = _rng(self.seed, 0x3C).choice(
            len(instances) * MOO_SOLVERS * self.size.moo_reps,
            size=self.size.hv_oracle_fronts,
            replace=False,
        )
        state = {
            "instances": instances,
            "window_seeds": window_seeds,
            "populations": populations,
            "oracle_fronts": sorted(int(i) for i in checked),
        }
        return state, {}, {}

    def round(self, state):
        timer = _Timer()
        size = self.size
        instances = state["instances"]
        stacks = []
        for k, inst in enumerate(instances):
            for rep in range(size.moo_stack_reps):
                rng = np.random.default_rng(int(state["window_seeds"][k, rep]))
                stacks.append(prober.build_moo_stacks(inst, rng, r_probe=size.r_probe, r_out=size.r_out))
        timer.lap("probe")
        true_fronts = [suite.pareto_front_points(inst) for inst in instances]
        timer.lap("pareto")
        records, fronts, refs, hv_best = [], [], [], {}
        for k, inst in enumerate(instances):
            name = _instance_name(inst)
            scored = [
                suite.evaluate_moo_batch(inst, state["populations"][(k, a, rep)])
                for a in range(MOO_SOLVERS)
                for rep in range(size.moo_reps)
            ]
            ref = perfdata.reference_point([true_fronts[k], *scored])
            hv_best[name] = perfdata.hypervolume_2d(true_fronts[k], ref)
            for j, front in enumerate(scored):
                a, rep = divmod(j, size.moo_reps)
                records.append(
                    perfdata.MooHvRecord(f"solver{a}", name, rep, perfdata.hypervolume_2d(front, ref))
                )
            fronts.extend(scored)
            refs.extend([ref] * len(scored))
        path = os.path.join(self.workdir, "moo_hv.csv")
        perfdata.emit_moo_hv(path, records)
        table = perfdata.build_moo_table(perfdata.ingest_moo_hv(path), hv_best)
        relhv = np.array([table.relhv_row(name) for name in table.instances])
        targets = neural.transform_targets("relhv_clip", relhv)
        timer.lap("targets")
        outputs = {
            "stacks": stacks,
            "records": records,
            "fronts": fronts,
            "refs": refs,
            "relhv": relhv,
            "targets": targets,
            "hv_best": np.array([hv_best[n] for n in table.instances]),
        }
        counts = {"evaluations": sum(s.evaluations_spent for pair in stacks for s in pair)}
        return outputs, timer.stages, counts

    def check(self, state, outputs, checks: Checks) -> None:
        _check_stacks("moo", [s for pair in outputs["stacks"] for s in pair], self.size, checks)
        for i in state["oracle_fronts"]:
            hv = outputs["records"][i].hv
            estimate, bound = grid_hypervolume(outputs["fronts"][i], outputs["refs"][i])
            checks.check(
                "moo.hypervolume_matches_grid_oracle",
                abs(hv - estimate) <= bound,
                f"front {i}: hypervolume_2d {hv!r}, grid {estimate!r} +- {bound!r}",
            )
        maxes = outputs["relhv"].max(axis=1)
        checks.check(
            "moo.relhv_row_max_is_1",
            bool(np.all(maxes == 1.0)),
            f"row maxima {maxes[maxes != 1.0][:4].tolist()}",
        )
        checks.check(
            "moo.targets_finite",
            outputs["targets"].shape == (len(state["instances"]), MOO_SOLVERS)
            and bool(np.all(np.isfinite(outputs["targets"]))),
            f"targets shape {outputs['targets'].shape}",
        )


WORKLOADS = {w.name: w for w in (SooPipeline, SeparateTrain, MooTargets)}

# Outputs compared with the recorded references (within the tolerance
# reference.json gives for each) and, exactly, across the rounds of a run.
REFERENCE_OUTPUTS = {
    "soo_pipeline": ("targets", "final_loss", "predictions"),
    "separate_train": ("final_loss", "predictions"),
    "moo_targets": ("hv_best", "relhv"),
}


def make_workdir(root: str):
    """A temporary directory for CSV round trips, inside the checkout."""
    os.makedirs(root, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=root)
