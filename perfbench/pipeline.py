"""Set-up, closed-loop passes, output checks and metrics of one run.

A run first trains each model on a fixed-seed reference batch (the
loss check, the ``train_peak_mib`` figures and the warm-up of ``nn``)
and places one tiny design.  It then sets up ``SETUPS`` times
(``setup_s`` is the median) and runs passes back to back on the last
set-up.  A pass interleaves one Table I training round with one
place-and-route round, whose teams are seeded anew in each pass (see
:func:`variant_teams`); after the first pass, the run stops before the
first unit of work (one model's training or one pair) that would end
after the run's deadline, which counts from process start.  An
untraced run times the calibration kernels of :mod:`calibrate` before
each unit, and reports its time metrics at the reference host's speed.
A traced run is one untraced and one traced pass whatever their length,
so that the tracing overhead is the difference between them.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import nn
from repro.contest import ContestScore, contest_teams, initial_routing_score
from repro.ir import cost_model, trace_model
from repro.models import build_model
from repro.netlist import MLCAD2023_SPECS, Design, generate_design
from repro.placement import place_design
from repro.routing import DetailedRoutingModel, congestion_report, route_design
from repro.train import CongestionDataset, DatasetConfig, Sample, Trainer, TrainConfig

import calibrate
from spec import MODEL_NAMES, STAGES, WORKLOADS, Workload
from tracer import Tracer

SETUPS = 3
GRID = 64
BATCH = 8
PRESET = "fast"
#: Three placements of Design_197 at 1/256, one held out for evaluation,
#: give 8 training samples after rotation augmentation: one batch, so
#: ``epochs`` counts steps.
DATASET_DESIGNS = ("Design_197",)
DATASET_CONFIG = dict(
    grid=GRID, placements_per_design=3, design_scale=1.0 / 256.0,
    gp_iters=100, stage2_iters=30,
)
#: Training steps of each model in one pass.
TRAIN_STEPS = 2
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_STEPS = 2
#: float32 losses from a different BLAS build may differ in the last
#: bits; anything beyond this relative distance is a wrong result.
LOSS_RTOL = 1e-4
S_DR_RANGE = (4, 20)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# -- set-up --------------------------------------------------------------------------


@dataclass
class Setup:
    designs: dict[str, tuple[Design, np.ndarray, np.ndarray]]
    dataset: CongestionDataset


def stage_flops(model_name: str, seed: int) -> dict[str, int]:
    graph = trace_model(model_name, preset=PRESET, grid=GRID, batch=BATCH, seed=seed)
    return {row["name"]: int(row["flops"]) for row in cost_model(graph)["by_stage"]}


def set_up(workload: Workload, seed: int, tracer: Tracer | None = None) -> Setup:
    """Build a run's netlists and training set.

    The netlists are the contest's named designs, fixed by their specs.
    ``seed`` drives the placement sweep that makes the training set; the
    run also seeds the trained models with it and, through
    :func:`variant_teams`, the teams of each pass.
    """
    designs = {}
    for name in workload.designs:
        with _span(tracer, "netlist.generate_design"):
            design = generate_design(MLCAD2023_SPECS[name], scale=workload.scale)
        designs[name] = (design, design.x.copy(), design.y.copy())
    dataset = CongestionDataset.build(
        [MLCAD2023_SPECS[name] for name in DATASET_DESIGNS],
        DatasetConfig(seed=seed, **DATASET_CONFIG),
    )
    return Setup(designs, dataset)


def variant_teams(seed: int, variant: int) -> dict:
    """The teams of one pass, seeded from ``(seed, variant)``: their
    global-placement jitter and the initial weights of Ours' estimator
    model.  Passes place different inputs, so that a run's times average
    over several placements of each design instead of hanging on one."""
    team_seed = int(np.random.SeedSequence([seed, variant]).generate_state(1)[0])
    model = build_model("ours", PRESET, grid=GRID, seed=team_seed)
    return {
        team.name: team
        for team in contest_teams(model=model, model_grid=GRID, seed=team_seed)
    }


# -- one (team, design) place-and-route ---------------------------------------------


@dataclass
class PairRun:
    team: str
    design: str
    place_s: float
    route_s: float  # route_design + congestion_report + S_IR + detailed model
    hpwl: float
    score: ContestScore
    legal: bool
    iterations: int
    connections: int
    converged: bool
    #: the program reported the operation as failed
    failures: list[str] = field(default_factory=list)
    #: an output that claims success is wrong
    wrong: list[str] = field(default_factory=list)

    @property
    def outcome(self) -> tuple:
        return (self.hpwl, self.score.s_ir, self.score.s_dr, self.score.t_pr_hours)


def run_pair(team, design: Design, x0, y0, tracer: Tracer | None = None) -> PairRun:
    design.set_placement(x0, y0)
    estimator = team.estimator_factory(design)
    if tracer is not None:
        estimator = tracer.wrap(estimator, "placement.estimate")
    config = team.placer_config_factory()
    start = time.perf_counter()
    with _span(tracer, "placement.place_design"):
        outcome = place_design(design, estimator=estimator, config=config)
    place_s = time.perf_counter() - start

    start = time.perf_counter()
    with _span(tracer, "routing.route_design"):
        routing = route_design(design)
    with _span(tracer, "routing.score"):
        report = congestion_report(routing)
        s_ir = initial_routing_score(report)
        detailed = DetailedRoutingModel().evaluate(routing, report)
    route_s = time.perf_counter() - start

    score = ContestScore(
        design=design.name, team=team.name, s_ir=s_ir, s_dr=detailed.iterations,
        t_macro_minutes=outcome.t_macro_minutes, t_pr_hours=detailed.hours,
    )
    run = PairRun(
        team.name, design.name, place_s, route_s, float(outcome.hpwl), score,
        outcome.legal, int(routing.iterations), int(routing.num_connections),
        bool(routing.converged),
    )
    check_pair(run, outcome)
    return run


def check_pair(run: PairRun, outcome) -> None:
    """Record the pair's failures; see :class:`PairRun` for the two kinds."""
    if not outcome.legal:
        run.failures.append(f"illegal placement: {outcome.legalization.failures[0]}")
    for incident in outcome.incidents:
        run.failures.append(f"estimator fallback: {incident.error}")
    if not math.isfinite(run.hpwl):
        run.wrong.append(f"non-finite HPWL {run.hpwl}")
    s_ir = run.score.s_ir
    if not isinstance(s_ir, (int, np.integer)) or s_ir < 1:
        run.wrong.append(f"S_IR {s_ir!r} is not an integer >= 1")
    lo, hi = S_DR_RANGE
    if not lo <= run.score.s_dr <= hi:
        run.wrong.append(f"S_DR {run.score.s_dr} outside [{lo}, {hi}]")


# -- training ------------------------------------------------------------------------


@dataclass
class TrainRun:
    model: str
    wall_s: float
    losses: list[float]
    wrong: list[str] = field(default_factory=list)


def run_training(
    model_name: str, dataset: CongestionDataset, steps: int, seed: int,
    tracer: Tracer | None = None,
) -> TrainRun:
    model = build_model(model_name, PRESET, grid=GRID, seed=seed)
    if tracer is not None:
        tracer.modules.clear()
        tracer.register_model(model_name, model)
    trainer = Trainer(TrainConfig(epochs=steps, batch_size=BATCH))
    start = time.perf_counter()
    with _span(tracer, "train.train"):
        result = trainer.train(model, dataset)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.modules.clear()
    run = TrainRun(model_name, wall, [float(v) for v in result.losses])
    if len(run.losses) != steps or not all(math.isfinite(v) for v in run.losses):
        run.wrong.append(f"losses {run.losses} are not {steps} finite values")
    return run


def reference_dataset() -> CongestionDataset:
    """One fixed batch of synthetic samples, independent of the run seed."""
    rng = np.random.default_rng(0)
    samples = [
        Sample(
            rng.random((6, GRID, GRID), dtype=np.float32),
            rng.integers(0, 5, (GRID, GRID)),
            "reference",
        )
        for _ in range(BATCH)
    ]
    return CongestionDataset(train=samples)


def reference_training(model_name: str, dataset: CongestionDataset) -> tuple[list[float], float]:
    """Losses of the fixed-seed reference run and its tracemalloc peak in MiB."""
    model = build_model(model_name, PRESET, grid=GRID, seed=0)
    trainer = Trainer(TrainConfig(epochs=REFERENCE_STEPS, batch_size=BATCH))
    tracemalloc.start()
    try:
        result = trainer.train(model, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return [float(v) for v in result.losses], peak / 2**20


def load_reference() -> dict[str, list[float]]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["losses"]


def write_reference() -> None:
    nn.set_default_dtype(np.float32)
    dataset = reference_dataset()
    losses = {name: reference_training(name, dataset)[0] for name in MODEL_NAMES}
    doc = {
        "about": f"{REFERENCE_STEPS}-step losses of each {PRESET}-preset model "
                 f"(seed 0, float32, grid {GRID}, batch {BATCH}) on reference_dataset()",
        "losses": losses,
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def check_losses(model_name: str, losses: list[float], reference: list[float]) -> list[str]:
    if len(losses) != len(reference) or not all(math.isfinite(v) for v in losses):
        return [f"{model_name}: reference losses {losses} are not finite"]
    bad = [
        (got, want) for got, want in zip(losses, reference)
        if abs(got - want) > LOSS_RTOL * abs(want)
    ]
    if bad:
        return [f"{model_name}: reference loss off by more than {LOSS_RTOL:g}: {bad}"]
    return []


# -- passes --------------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    wall_s: float
    train: list[TrainRun]
    pairs: list[PairRun]
    span_range: tuple[int, int] = (0, 0)
    variant: int = 0
    #: ``calibrate.sample()`` before each unit of an untraced run
    calibration: list[tuple[float, float]] = field(default_factory=list)


def schedule(workload: Workload) -> list[tuple[str, ...]]:
    """The training runs and (team, design) pairs of one pass, spread
    evenly through it, so that every metric samples the whole pass."""
    units = [("train", name) for name in MODEL_NAMES]
    pairs = [("pair", team, design) for team in workload.teams for design in workload.designs]
    keyed = [((i + 0.5) / len(units), 0, u) for i, u in enumerate(units)]
    keyed += [((i + 0.5) / len(pairs), 1, u) for i, u in enumerate(pairs)]
    return [unit for *_, unit in sorted(keyed)]


def run_pass(
    setup: Setup, workload: Workload, seed: int, index: int, variant: int,
    tracer: Tracer | None = None,
    deadline: float | None = None, longest: dict[tuple, float] | None = None,
    calibrated: bool = False,
) -> Pass:
    """One pass, placing with the teams of ``variant``.  With a
    ``deadline``, it stops before the first unit whose ``longest`` time so
    far would end after it; it records the unit times in ``longest``.
    ``calibrated`` times the calibration kernels before each unit."""
    start = time.perf_counter()
    lo = len(tracer.spans) if tracer is not None else 0
    teams = variant_teams(seed, variant)
    train, pairs, calibration = [], [], []
    longest = {} if longest is None else longest
    for unit in schedule(workload):
        unit_start = time.perf_counter()
        if deadline is not None and unit_start + longest.get(unit, 0.0) > deadline:
            break
        if calibrated:
            calibration.append(calibrate.sample())
        kind, *names = unit
        if tracer is not None:
            tracer.run_id = ":".join([kind, *names, str(index)])
        if kind == "train":
            train.append(run_training(names[0], setup.dataset, TRAIN_STEPS, seed, tracer))
        else:
            team_name, design_name = names
            design, x0, y0 = setup.designs[design_name]
            pairs.append(run_pair(teams[team_name], design, x0, y0, tracer))
        longest[unit] = max(longest.get(unit, 0.0), time.perf_counter() - unit_start)
    hi = len(tracer.spans) if tracer is not None else 0
    wall = time.perf_counter() - start
    return Pass(tracer is not None, wall, train, pairs, (lo, hi), variant, calibration)


def warm_up() -> None:
    """One place-and-route of a 1/256 design and one calibration sample,
    so first-call costs stay out."""
    team = contest_teams()[0]
    design = generate_design(MLCAD2023_SPECS["Design_197"], scale=1.0 / 256.0)
    run_pair(team, design, design.x.copy(), design.y.copy())
    calibrate.sample()


# -- metrics -------------------------------------------------------------------------


def e2e_metrics(
    passes: list[Pass], setup_s: list[float], peaks: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the raw wall-clock values of the time
    metrics with the host's slowdown against the reference host (the
    median calibration sample over its reference time, per kernel)."""
    first = passes[0]
    by_pair: dict[tuple[str, str], list[PairRun]] = defaultdict(list)
    for p in passes:
        for run in p.pairs:
            by_pair[run.team, run.design].append(run)
    samples = [s for p in passes for s in p.calibration]
    raw = {
        "setup_s": statistics.median(setup_s),
        "t_macro_s": sum(statistics.median(r.place_s for r in runs) for runs in by_pair.values()),
        "route_s": sum(statistics.median(r.route_s for r in runs) for runs in by_pair.values()),
        "train_sps": len(MODEL_NAMES) * TRAIN_STEPS * BATCH / sum(
            statistics.median(r.wall_s for p in passes for r in p.train if r.model == name)
            for name in MODEL_NAMES
        ),
        "slowdown.interpreter": statistics.median(s[0] for s in samples)
        / calibrate.INTERPRETER_REF_S,
        "slowdown.blas": statistics.median(s[1] for s in samples) / calibrate.BLAS_REF_S,
    }
    interpreter = raw["slowdown.interpreter"]
    metrics = {
        "setup_s": raw["setup_s"] / interpreter,
        "t_macro_s": raw["t_macro_s"] / interpreter,
        "route_s": raw["route_s"] / interpreter,
        "hpwl_total": sum(r.hpwl for r in first.pairs),
        "train_sps": raw["train_sps"] * raw["slowdown.blas"],
    }
    for name in MODEL_NAMES:
        metrics[f"train_peak_mib.{name}"] = peaks[name]
    metrics["train_loss_mean"] = statistics.fmean(r.losses[-1] for r in first.train)
    return metrics, raw


def _pass_layer_metrics(tracer: Tracer, p: Pass, flops: dict[str, dict[str, int]]) -> dict:
    lo, hi = p.span_range
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for name, start, end, _, run_id in tracer.spans[lo:hi]:
        if name == "nn.backward":
            name = f"nn.backward.{run_id.split(':')[1]}"
        total[name] += end - start
        count[name] += 1
    n_pairs = len(p.pairs)
    m = {
        "placement.gp_s": total["placement.gp_run"],
        "placement.gp_iters": count["placement.gp_step"],
        "placement.inflate_s": total["placement.inflate_all_fields"],
        "placement.density_s": total["placement.energy_and_forces"]
        + total["placement.overflow"],
        "placement.wl_grad_s": total["placement.wa_wirelength_grad"],
        "placement.legalize_s": total["placement.legalize"],
        "placement.estimate_s": total["placement.estimate"],
        "placement.legal_frac": sum(r.legal for r in p.pairs) / n_pairs,
        "routing.route_s": total["routing.route_design"],
        "routing.decompose_s": total["routing.decompose_net"],
        "routing.maze_s": total["routing.maze_refine"],
        "routing.score_s": total["routing.score"],
        "routing.iterations": sum(r.iterations for r in p.pairs),
        "routing.connections": sum(r.connections for r in p.pairs),
        "routing.converged_frac": sum(r.converged for r in p.pairs) / n_pairs,
        "features.extract_s": total["features.extract"],
        "models.infer_ms": 1e3 * total["models.infer"] / max(count["models.infer"], 1),
    }
    for name in MODEL_NAMES:
        m[f"models.forward_s.{name}"] = total[f"models.forward.{name}"]
        stage_time = 0.0
        for stage in STAGES[name]:
            m[f"models.stage_s.{name}.{stage}"] = total[f"models.stage.{name}.{stage}"]
            stage_time += total[f"models.stage.{name}.{stage}"]
        # by_stage FLOPs are per forward call, whatever a stage's call count.
        stage_flop = count[f"models.forward.{name}"] * sum(
            flops[name].get(stage, 0) for stage in STAGES[name]
        )
        m[f"models.fwd_gflops.{name}"] = stage_flop / stage_time / 1e9
        m[f"nn.backward_s.{name}"] = total[f"nn.backward.{name}"]
    m.update({
        "nn.im2col_s": total["nn.im2col"],
        "nn.col2im_s": total["nn.col2im"],
        "nn.softmax_s": total["nn.softmax"],
        "nn.batch_norm_s": total["nn.batch_norm"],
        "nn.optim_s": total["nn.optim_step"] + total["nn.clip_grad_norm"],
        "train.batch_wait_s": total["train.batches"],
    })
    return m


def layer_metrics(
    tracer: Tracer, passes: list[Pass], setup_spans: list[tuple[int, int]],
    flops: dict[str, dict[str, int]],
) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    per_pass = [_pass_layer_metrics(tracer, p, flops) for p in traced]
    metrics = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    metrics["contest.s_score_mean"] = statistics.fmean(r.score.s_score for r in traced[0].pairs)
    # Throughput per model is timed on the untraced passes, like train_sps.
    for name in MODEL_NAMES:
        metrics[f"train.sps.{name}"] = TRAIN_STEPS * BATCH / statistics.median(
            r.wall_s for p in passes if not p.traced for r in p.train if r.model == name
        )

    def setup_total(name: str) -> float:
        return statistics.median(
            sum(end - start for n, start, end, _, _ in tracer.spans[lo:hi] if n == name)
            for lo, hi in setup_spans
        )

    metrics["netlist.generate_s"] = setup_total("netlist.generate_design")
    metrics["features.setup_extract_s"] = setup_total("features.extract")
    untraced = statistics.median(p.wall_s for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced) / untraced
    return metrics


def tally(passes: list[Pass], failures: list[str], wrong: list[str]) -> int:
    """Append every failed operation of ``passes``; return the number attempted.

    An operation is one model's training or one (team, design) pair in
    one pass.  It fails when the program reports a failure or an output
    check finds a wrong result, including a result that differs from the
    same operation in the first pass with the same inputs: training runs
    repeat in every pass, pairs in the passes of one variant.
    """
    first = passes[0]
    by_variant: dict[int, Pass] = {}
    attempted = 0
    for index, p in enumerate(passes):
        same_inputs = by_variant.setdefault(p.variant, p)
        for run_, ref in zip(p.train, first.train):
            problems = list(run_.wrong)
            if run_.losses != ref.losses:
                problems.append("losses differ from the first pass")
            label = f"pass {index} {run_.model}"
            wrong += [f"{label}: {x}" for x in problems]
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
        for run_, ref in zip(p.pairs, same_inputs.pairs):
            problems = list(run_.wrong)
            if run_.outcome != ref.outcome:
                problems.append("outcome differs from the first pass with its inputs")
            label = f"pass {index} {run_.team}/{run_.design}"
            wrong += [f"{label}: {x}" for x in problems]
            if run_.failures or problems:
                failures.append(f"{label}: {'; '.join(run_.failures + problems)}")
        attempted += len(p.train) + len(p.pairs)
    return attempted


# -- one run -------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failures: list[str]  # one line per failed operation
    wrong: list[str]  # output checks that found a wrong result
    passes: list[Pass]
    setup_s: list[float]
    self_times: dict[str, float]
    spans: list[list]
    #: an untraced run's raw time metrics and slowdowns (see e2e_metrics)
    raw: dict[str, float]

    @property
    def correct(self) -> bool:
        return not self.wrong


def run(
    workload_name: str, seed: int, seconds: float, trace: bool,
    started: float | None = None,
) -> RunResult:
    """One run.  An untraced run ends within ``seconds`` of ``started``, a
    ``perf_counter`` reading (default: now); a traced run is one untraced
    and one traced pass, whatever their length."""
    deadline = (time.perf_counter() if started is None else started) + seconds
    workload = WORKLOADS[workload_name]
    nn.set_default_dtype(np.float32)
    tracer = Tracer() if trace else None

    setup_s: list[float] = []
    setup_spans: list[tuple[int, int]] = []

    def timed_setup() -> Setup:
        if tracer is not None:
            tracer.run_id = f"setup:{len(setup_s)}"
            tracer.install()
        lo = len(tracer.spans) if tracer is not None else 0
        start = time.perf_counter()
        try:
            result = set_up(workload, seed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s.append(time.perf_counter() - start)
        if tracer is not None:
            setup_spans.append((lo, len(tracer.spans)))
        return result

    wrong: list[str] = []
    failures: list[str] = []
    reference = load_reference()
    ref_dataset = reference_dataset()
    peaks = {}
    for name in MODEL_NAMES:
        losses, peaks[name] = reference_training(name, ref_dataset)
        problems = check_losses(name, losses, reference[name])
        wrong += problems
        failures += problems[:1]
    warm_up()

    # A traced run reports no setup_s, only the layers of one set-up.
    for _ in range(1 if trace else SETUPS):
        setup = timed_setup()

    passes: list[Pass] = []
    if tracer is not None:
        for traced in (False, True):
            gc.collect()
            if traced:
                tracer.install()
            try:
                # Both passes place the same inputs, so that they differ
                # only in the tracing.
                passes.append(run_pass(
                    setup, workload, seed, len(passes), 0, tracer if traced else None
                ))
            finally:
                if traced:
                    tracer.uninstall()
    else:
        units = len(schedule(workload))
        longest: dict[tuple, float] = {}
        while True:
            gc.collect()
            p = run_pass(
                setup, workload, seed, len(passes), len(passes),
                deadline=deadline if passes else None, longest=longest,
                calibrated=True,
            )
            if p.train or p.pairs:
                passes.append(p)
            if len(p.train) + len(p.pairs) < units:
                break

    attempted = len(MODEL_NAMES) + tally(passes, failures, wrong)
    if tracer is None:
        metrics, raw = e2e_metrics(passes, setup_s, peaks)
        self_times: dict[str, float] = {}
        spans: list[list] = []
    else:
        flops = {name: stage_flops(name, seed) for name in MODEL_NAMES}
        metrics = layer_metrics(tracer, passes, setup_spans, flops)
        raw = {}
        self_times = {}
        for p in passes:
            if p.traced:
                for name, t in tracer.self_times(*p.span_range).items():
                    self_times[name] = self_times.get(name, 0.0) + t
        spans = tracer.spans
    return RunResult(
        metrics, attempted, failures, wrong, passes, setup_s, self_times, spans, raw
    )
