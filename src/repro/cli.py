"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main workflows:

* ``stats``  — print the benchmark-suite statistics (Table I left columns).
* ``place``  — run the Fig. 6 flow on one design and report the outcome.
* ``route``  — route the (freshly placed) design and print Fig. 1 levels.
* ``score``  — place + route + contest scores (Eqs. 1-3) in one shot.
* ``train``  — train a congestion model and save a checkpoint.
* ``table2`` — run the four teams on selected designs (mini Table II).
* ``lint``   — static autograd lint + ShapeTracer model validation.
* ``analyze`` — symbolic-IR static analysis: memory plan, FLOP cost,
  stability + determinism audit (see repro.ir); ``--backward`` adds the
  adjoint-graph/gradient-flow/training-memory section (repro.adjoint).
* ``gradcheck`` — gradient audit: vjp contract capture, randomized
  central-difference derivative checks, gradient-flow analysis
  (see repro.adjoint).
* ``perfcheck`` — static performance analysis: dtype-flow / copy-alias /
  fusion passes over the traced graphs plus AST audits of the flow
  code, with measured-vs-predicted validation (see repro.perf).
* ``concheck`` — static concurrency-safety certification: re-derive the
  worker-reachable call graph from the dotted job references, then run
  effect inference, deep RNG discipline, fork/pickle safety and the
  durable-write lint over it (REPRO601-612, see repro.concheck).
* ``scalecheck`` — certified asymptotic scaling: exact polynomial cost
  envelopes per registry model (fitted over a grid ladder, cross-checked
  against the memory planner and one measured training step) plus a
  loop-nest complexity lint over the untraced flow code (REPRO701-710,
  see repro.scaling).
* ``numcheck`` — static floating-point error-bound certification:
  first-order rounding-error envelopes over every registry model's
  forward and adjoint graphs, cancellation/conditioning screens, the
  float32 exp-overflow screen, a mixed-precision lint over the flow
  code, and a float64
  shadow-execution harness that validates every certified bound by
  measurement (REPRO801-810, see repro.numcheck).
* ``check``  — the unified gate: lint + analyze + gradcheck + perfcheck
  + concheck + scalecheck + numcheck in one command with
  one combined JSON report (``repro.check/v1``); ``--update-baselines``
  atomically refreshes every ``benchmarks/*_baseline.json`` instead.

Every analysis command reports through one exit-code contract (the
table lives in ``docs/API.md``): 0 = clean, 1 = blocking findings,
2 = usage error, 3 = baseline drift only, 4 = internal error.  Blocking
findings take precedence over drift when both occur.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_BLOCKING",
    "EXIT_USAGE",
    "EXIT_DRIFT",
    "EXIT_INTERNAL",
]

# The shared exit-code contract for the analysis commands (analyze,
# gradcheck, perfcheck, concheck, scalecheck, numcheck, check).  argparse owns 2 (usage).
EXIT_OK = 0
EXIT_BLOCKING = 1
EXIT_USAGE = 2
EXIT_DRIFT = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MFA+Transformer congestion prediction reproduction (DATE 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, multi_design: bool = False):
        from .netlist import MLCAD2023_SPECS

        if multi_design:
            p.add_argument(
                "--designs", nargs="+", default=["Design_116"],
                choices=sorted(MLCAD2023_SPECS),
            )
        else:
            p.add_argument(
                "--design", default="Design_116",
                choices=sorted(MLCAD2023_SPECS),
            )
        p.add_argument(
            "--scale", type=float, default=64.0,
            help="downscale factor (64 means 1/64 of full size)",
        )

    add_common(sub.add_parser("stats", help="benchmark statistics"), multi_design=True)

    place = sub.add_parser("place", help="run the Fig. 6 placement flow")
    add_common(place)
    place.add_argument("--iters", type=int, default=500)

    route = sub.add_parser("route", help="place then route, print Fig. 1 map")
    add_common(route)

    score = sub.add_parser("score", help="place + route + contest scores")
    add_common(score)

    train = sub.add_parser("train", help="train a congestion model")
    add_common(train, multi_design=True)
    train.add_argument("--model", default="ours",
                       choices=("unet", "pgnn", "pros2", "ours"))
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--placements", type=int, default=4)
    train.add_argument("--grid", type=int, default=64)
    train.add_argument("--out", default="congestion_model.npz")
    train.add_argument(
        "--checkpoint-dir", default=None,
        help="write atomic last/best checkpoint bundles here "
        "(enables crash-safe training)",
    )
    train.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="epochs between checkpoint bundles (default 1)",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="resume from the last bundle in --checkpoint-dir "
        "(refuses a mismatched config fingerprint)",
    )

    table2 = sub.add_parser("table2", help="mini Table II (4 teams)")
    add_common(table2, multi_design=True)
    table2.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="fan (team, design) evaluations across N supervised worker "
        "processes (repro.orchestrate); 0 = supervised serial",
    )
    table2.add_argument(
        "--seed", type=int, default=None,
        help="root seed for deterministic per-job RNG streams "
        "(parallel runs reproduce serial bitwise)",
    )
    table2.add_argument(
        "--journal", default=None, metavar="PATH",
        help="durable JSONL job journal (enables --resume after a crash)",
    )
    table2.add_argument(
        "--resume", action="store_true",
        help="skip journal-verified completed jobs and finish the rest",
    )
    table2.add_argument(
        "--artifact", default="results/table2_run.json", metavar="PATH",
        help="structured JSON run record: scores, error manifest with "
        "traceback tails, REPRO5xx incidents (default %(default)s)",
    )

    lint = sub.add_parser(
        "lint", help="static autograd lint + shape checks (see repro.lint)"
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.lint "
        "(default: lint the repro package and validate the models)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="symbolic-IR static analysis (memory/FLOPs/stability/determinism)",
    )
    analyze.add_argument(
        "model", choices=("unet", "pgnn", "pros2", "ours", "all"),
        help="registry model to trace, or 'all' for the whole registry",
    )
    analyze.add_argument("--preset", default="fast",
                         choices=("tiny", "fast", "paper"))
    analyze.add_argument(
        "--grid", dest="grids", type=int, action="append", metavar="N",
        help="input grid size; repeatable (default: 64)",
    )
    analyze.add_argument("--json", action="store_true",
                         help="print the full repro.ir/v1 report bundle")
    analyze.add_argument("--top", type=int, default=5,
                         help="rows in the layer/live-range tables (default 5)")
    analyze.add_argument(
        "--no-determinism", action="store_true",
        help="skip the source-level RNG/iteration-order audit",
    )
    analyze.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="diff FLOPs/peak-memory/node counts against a baseline JSON "
        "and fail on any drift",
    )
    analyze.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="write the invariant slice of this run to a baseline JSON",
    )
    analyze.add_argument(
        "--backward", action="store_true",
        help="also trace the backward tape: adjoint-graph stats, "
        "gradient-flow findings (REPRO205-207) and the forward+backward "
        "training-memory plan (see repro.adjoint)",
    )

    gradcheck = sub.add_parser(
        "gradcheck",
        help="gradient audit: vjp contracts + finite differences "
        "(see repro.adjoint)",
    )
    gradcheck.add_argument(
        "model", choices=("unet", "pgnn", "pros2", "ours", "all", "ops"),
        help="registry model to audit, 'all' for the whole registry, or "
        "'ops' for the full primitive-op case sweep without a model",
    )
    gradcheck.add_argument("--preset", default="fast",
                           choices=("tiny", "fast", "paper"))
    gradcheck.add_argument("--grid", type=int, default=64)
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.add_argument("--json", action="store_true",
                           help="print the full repro.adjoint/v1 report bundle")

    perfcheck = sub.add_parser(
        "perfcheck",
        help="static performance analysis: dtype/copy/fusion passes + "
        "measured validation (see repro.perf)",
    )
    perfcheck.add_argument(
        "target", choices=("unet", "pgnn", "pros2", "ours", "flow", "all"),
        help="registry model to trace, 'flow' for the AST audit of the "
        "pipeline code, or 'all' for models + flow",
    )
    perfcheck.add_argument("--preset", default="fast",
                           choices=("tiny", "fast", "paper"))
    perfcheck.add_argument("--grid", type=int, default=64)
    perfcheck.add_argument("--json", action="store_true",
                           help="print the full repro.perf/v1 report bundle")
    perfcheck.add_argument("--top", type=int, default=5,
                           help="findings shown per report (default 5)")
    perfcheck.add_argument(
        "--no-validate", action="store_true",
        help="skip the measured-vs-predicted validation harness",
    )
    perfcheck.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="diff the deterministic finding counts/bytes against a "
        "baseline JSON and fail on any drift",
    )
    perfcheck.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="write the deterministic slice of this run to a baseline JSON",
    )

    concheck = sub.add_parser(
        "concheck",
        help="static concurrency-safety analysis of the worker-reachable "
        "call graph (see repro.concheck)",
    )
    concheck.add_argument(
        "--root", metavar="DIR", default=None,
        help="package tree to analyze (default: the installed repro "
        "package source)",
    )
    concheck.add_argument("--json", action="store_true",
                          help="print the full repro.concheck/v1 bundle")
    concheck.add_argument("--top", type=int, default=10,
                          help="findings shown without --json (default 10)")
    concheck.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="diff worker roots + per-code counts against a baseline JSON "
        "and fail on any drift",
    )
    concheck.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="write the deterministic slice of this run to a baseline JSON",
    )

    scalecheck = sub.add_parser(
        "scalecheck",
        help="certified asymptotic scaling: exact cost envelopes per "
        "model + loop-nest complexity lint over the flow code "
        "(see repro.scaling)",
    )
    scalecheck.add_argument(
        "target", choices=("unet", "pgnn", "pros2", "ours", "flow", "all"),
        help="registry model to certify, 'flow' for the loop-nest lint "
        "only, or 'all' for models + flow",
    )
    scalecheck.add_argument("--preset", default="fast",
                            choices=("tiny", "fast", "paper"))
    scalecheck.add_argument("--batch", type=int, default=1)
    scalecheck.add_argument(
        "--ladder", dest="ladder", type=int, action="append", metavar="N",
        help="grid ladder rung; repeatable "
        "(default: 64 96 128 192 256 384 512)",
    )
    scalecheck.add_argument(
        "--cache", metavar="DIR", default=None,
        help="cache trace samples here, keyed on a source fingerprint "
        "of the traced packages (CI reuses them across runs)",
    )
    scalecheck.add_argument(
        "--no-measure", action="store_true",
        help="skip the tracemalloc-measured training-step cross-check "
        "(REPRO709)",
    )
    scalecheck.add_argument("--json", action="store_true",
                            help="print the full repro.scaling/v1 bundle")
    scalecheck.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="diff certified exponents + leading coefficients against a "
        "baseline JSON and fail on any drift",
    )
    scalecheck.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="write the deterministic slice of this run to a baseline JSON",
    )

    numcheck = sub.add_parser(
        "numcheck",
        help="static floating-point error-bound certification + float64 "
        "shadow validation (see repro.numcheck)",
    )
    numcheck.add_argument(
        "target", choices=("unet", "pgnn", "pros2", "ours", "flow", "all"),
        help="registry model to certify, 'flow' for the mixed-precision "
        "lint only, or 'all' for models + flow",
    )
    numcheck.add_argument("--preset", default="fast",
                          choices=("tiny", "fast", "paper"))
    numcheck.add_argument(
        "--grid", dest="grids", type=int, action="append", metavar="N",
        help="certification grid; repeatable (default: 32 64)",
    )
    numcheck.add_argument("--batch", type=int, default=1)
    numcheck.add_argument("--seed", type=int, default=0)
    numcheck.add_argument(
        "--budget", type=float, default=None,
        help="relative-error budget for the certified envelopes "
        "(default: the registry budget, see repro.numcheck)",
    )
    numcheck.add_argument(
        "--no-measure", action="store_true",
        help="skip the float64 shadow-execution harness (REPRO809/810)",
    )
    numcheck.add_argument(
        "--cache", metavar="DIR", default=None,
        help="cache static certifications here, keyed on a source "
        "fingerprint (CI shares the scaling trace cache directory)",
    )
    numcheck.add_argument("--json", action="store_true",
                          help="print the full repro.numcheck/v1 bundle")
    numcheck.add_argument("--top", type=int, default=10,
                          help="findings shown without --json (default 10)")
    numcheck.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="diff certified bounds + certificate verdicts against a "
        "baseline JSON and fail on any drift",
    )
    numcheck.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="write the deterministic slice of this run to a baseline JSON",
    )

    check = sub.add_parser(
        "check",
        help="unified gate: lint + analyze + gradcheck + perfcheck "
        "+ concheck + scalecheck + numcheck",
    )
    check.add_argument("--preset", default="fast",
                       choices=("tiny", "fast", "paper"))
    check.add_argument("--grid", type=int, default=64)
    check.add_argument("--json", action="store_true",
                       help="print one combined repro.check/v1 report")
    check.add_argument(
        "--no-validate", action="store_true",
        help="skip perfcheck's measured validation harness",
    )
    check.add_argument(
        "--fail-on", default="blocking", choices=("advisory", "blocking"),
        help="failure threshold: 'blocking' (default, current behavior) "
        "or 'advisory' to also fail when non-blocking findings appear",
    )
    check.add_argument(
        "--update-baselines", action="store_true",
        help="refresh every benchmarks/*_baseline.json atomically with "
        "the CI-pinned configurations (all land, or none do), then exit",
    )

    return parser


def _cmd_stats(args) -> int:
    from .netlist import format_stats_table, mlcad2023_suite

    designs = mlcad2023_suite(tuple(args.designs), scale=1.0 / args.scale)
    print(format_stats_table(designs))
    return 0


def _cmd_place(args) -> int:
    from .netlist import MLCAD2023_SPECS, generate_design
    from .placement import GPConfig, PlacerConfig, place_design

    design = generate_design(MLCAD2023_SPECS[args.design], scale=1.0 / args.scale)
    outcome = place_design(
        design, config=PlacerConfig(gp=GPConfig(bins=32, max_iters=args.iters))
    )
    print(f"{design.name}: hpwl={outcome.hpwl:,.0f} legal={outcome.legal} "
          f"t_macro={outcome.t_macro_minutes:.2f}min")
    print(f"overflow: { {k: round(v, 3) for k, v in outcome.final_overflow.items()} }")
    return 0 if outcome.legal else 1


def _cmd_route(args) -> int:
    from .netlist import MLCAD2023_SPECS, generate_design
    from .placement import place_design
    from .routing import congestion_report, route_design

    design = generate_design(MLCAD2023_SPECS[args.design], scale=1.0 / args.scale)
    place_design(design)
    report = congestion_report(route_design(design))
    print(report.ascii_map())
    hist = np.bincount(report.level_map.ravel(), minlength=8)
    print(f"levels: {hist.tolist()}")
    return 0


def _cmd_score(args) -> int:
    from .contest import ContestScore, initial_routing_score
    from .netlist import MLCAD2023_SPECS, generate_design
    from .placement import place_design
    from .routing import DetailedRoutingModel, congestion_report, route_design

    design = generate_design(MLCAD2023_SPECS[args.design], scale=1.0 / args.scale)
    outcome = place_design(design)
    routing = route_design(design)
    report = congestion_report(routing)
    detailed = DetailedRoutingModel().evaluate(routing, report)
    score = ContestScore(
        design=design.name, team="cli",
        s_ir=initial_routing_score(report), s_dr=detailed.iterations,
        t_macro_minutes=outcome.t_macro_minutes, t_pr_hours=detailed.hours,
    )
    print(f"{design.name}: S_IR={score.s_ir} S_DR={score.s_dr} "
          f"S_R={score.s_r:.0f} T_P&R={score.t_pr_hours:.2f}h "
          f"S_score={score.s_score:.2f}")
    return 0


def _cmd_train(args) -> int:
    from .models import build_model
    from .netlist import MLCAD2023_SPECS
    from .nn import save_module
    from .train import CongestionDataset, DatasetConfig, TrainConfig, Trainer

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    config = DatasetConfig(
        grid=args.grid,
        placements_per_design=args.placements,
        design_scale=1.0 / args.scale,
        seed=2023,
    )
    specs = [MLCAD2023_SPECS[name] for name in args.designs]
    dataset = CongestionDataset.build(specs, config)
    model = build_model(args.model, "fast", grid=args.grid)
    trainer = Trainer(
        TrainConfig(epochs=args.epochs, batch_size=8, lr=2e-3,
                    max_class_weight=4.0,
                    log_every=max(1, args.epochs // 10),
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    resume=args.resume)
    )
    result = trainer.train(model, dataset)
    metrics = Trainer.evaluate(model, dataset.eval)
    if result.resumed_from_epoch:
        print(f"resumed from epoch {result.resumed_from_epoch} "
              f"({args.checkpoint_dir})")
    if result.recoveries:
        print(f"recovered from {len(result.recoveries)} divergence rollback(s)")
    print(f"trained {args.model} ({model.num_parameters():,} params) "
          f"{result.epochs} epochs in {result.seconds:.0f}s")
    print(f"eval: ACC={metrics['ACC']:.3f} R2={metrics['R2']:.3f} "
          f"NRMS={metrics['NRMS']:.3f}")
    save_module(model, args.out)
    print(f"checkpoint: {args.out}")
    return 0


def _cmd_table2(args) -> int:
    from .contest import contest_teams, format_table2, run_table2, write_table2_artifact

    orchestrated = (
        args.parallel is not None or args.journal is not None or args.resume
    )
    if args.resume and args.journal is None:
        print("table2: --resume requires --journal PATH", file=sys.stderr)
        return EXIT_USAGE
    if orchestrated:
        result = run_table2(
            design_names=tuple(args.designs), scale=1.0 / args.scale,
            verbose=True, parallel=args.parallel, seed=args.seed,
            journal_path=args.journal, resume=args.resume,
        )
    else:
        result = run_table2(
            contest_teams(), design_names=tuple(args.designs),
            scale=1.0 / args.scale, verbose=True,
        )
    print()
    print(format_table2(result))
    if args.artifact:
        path = write_table2_artifact(result, args.artifact)
        print(f"\nrun artifact: {path}")
    if result.incidents:
        print(f"orchestration incidents: {len(result.incidents)} (see artifact)")
    return EXIT_OK if result.complete else EXIT_BLOCKING


def _cmd_lint(args) -> int:
    from pathlib import Path

    from .lint.cli import main as lint_main

    argv = list(args.lint_args)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        # Default gate: lint the installed repro package and statically
        # validate the registry models at every paper grid.
        argv = [str(Path(__file__).resolve().parent), "--models"]
    return lint_main(argv)


def _mb(nbytes: int) -> str:
    return f"{nbytes / 1e6:,.2f} MB"


def _print_report(report: dict, top: int) -> None:
    cost = report["cost"]
    mem = report["memory"]
    print(f"{report['model']} (preset={report['preset']}, "
          f"grid={report['grid']}, batch={report['batch']})")
    print(f"  graph: {report['graph']['nodes']} nodes, "
          f"params={cost['param_count']:,} ({_mb(cost['param_bytes'])})")
    print(f"  flops: {cost['total_flops']:,} "
          f"({cost['flops_per_output_pixel']:,}/output px)")
    print(f"  memory: peak activations {_mb(mem['peak_bytes'])} "
          f"(+{_mb(mem['persistent_bytes'])} persistent, "
          f"{mem['activation_buffers']} buffers)")
    print("  hottest layers:")
    for layer in cost["by_layer"][:top]:
        print(f"    {layer['flops']:>15,}  {layer['name']} "
              f"({layer['nodes']} nodes)")
    print("  fattest live ranges:")
    for rng in mem["top_liveranges"][:top]:
        dies = "end" if rng["dies"] is None else f"%{rng['dies']}"
        print(f"    {_mb(rng['bytes']):>12}  %{rng['node']} {rng['op']} "
              f"in {rng['scope'] or '<toplevel>'} (dies {dies})")
    opp = report["opportunities"]
    print(f"  opportunities: {opp['dead']['dead_nodes']} dead nodes "
          f"({opp['dead']['dead_flops']:,} flops), "
          f"{opp['duplicates']['duplicate_groups']} duplicate groups "
          f"({opp['duplicates']['wasted_flops']:,} wasted flops, "
          f"{_mb(opp['duplicates']['wasted_bytes'])} wasted)")
    for finding in opp["findings"]:
        print(f"    note: {finding['path']}:{finding['line']}: "
              f"{finding['code']} {finding['message']}")
    if "backward" in report:
        back = report["backward"]
        mem = back["memory"]
        counts = back["adjoint_counts"]
        print(f"  backward: {back['tape_entries']} tape entries -> "
              f"{back['adjoint_nodes']} adjoint nodes "
              f"(vjp={counts.get('vjp', 0)}, add={counts.get('add', 0)}), "
              f"{back['params_connected']}/{back['params_total']} params "
              "connected")
        print(f"  training memory: peak {_mb(mem['train_peak_bytes'])} at "
              f"{mem['peak_pos']} (retained at backward "
              f"{_mb(mem['retained_at_backward_bytes'])}, gradients "
              f"{_mb(mem['grad_bytes_total'])})")
        for finding in back["findings"]:
            print(f"    note: {finding['path']}:{finding['line']}: "
                  f"{finding['code']} {finding['message']}")
    for failure in report["failures"]:
        print(f"  FAIL: {failure}")


def _cmd_analyze(args) -> int:
    import json

    from .ir import analyze_registry, baseline_from_reports, check_baseline
    from .models.registry import MODEL_NAMES

    models = MODEL_NAMES if args.model == "all" else (args.model,)
    grids = tuple(args.grids or [64])
    bundle = analyze_registry(
        models, preset=args.preset, grids=grids,
        determinism=not args.no_determinism,
        backward=args.backward,
    )

    if args.json:
        print(json.dumps(bundle, indent=2))
    else:
        for report in bundle["reports"]:
            _print_report(report, args.top)
            print()

    status = EXIT_OK
    failures = [f for report in bundle["reports"] for f in report["failures"]]
    if failures:
        if args.json:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
        print(f"error: {len(failures)} blocking finding(s)", file=sys.stderr)
        status = EXIT_BLOCKING

    from .baselines import apply_baseline_flags

    drift = apply_baseline_flags(
        args, baseline_from_reports(bundle),
        lambda doc: check_baseline(bundle, doc),
    )
    if drift and status == EXIT_OK:
        status = EXIT_DRIFT
    return status


def _cmd_gradcheck(args) -> int:
    import json

    from .adjoint import audit_registry, run_gradcheck
    from .models.registry import MODEL_NAMES

    if args.model == "ops":
        # Model-free: sweep every registered primitive-op case.
        result = run_gradcheck(seed=args.seed)
        failed = [c for c in result["cases"] if not c["passed"]]
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            print(f"gradcheck: {len(result['cases'])} cases over "
                  f"{len(result['checked_ops'])} op kinds, "
                  f"{len(failed)} failed")
            for finding in result["findings"]:
                print(f"  {finding}")
            if not result["findings"]:
                print("gradcheck OK")
        return 1 if result["findings"] else 0

    models = MODEL_NAMES if args.model == "all" else (args.model,)
    bundle = audit_registry(
        models, preset=args.preset, grid=args.grid, seed=args.seed
    )
    if args.json:
        print(json.dumps(bundle, indent=2))
    failures = []
    for report in bundle["reports"]:
        failures.extend(report["failures"])
        if args.json:
            continue
        back = report["backward"]
        mem = back["memory"]
        print(f"{report['model']} (preset={report['preset']}, "
              f"grid={report['grid']})")
        print(f"  contracts: {report['contracts']['ran']}/"
              f"{report['contracts']['records']} closures ran over "
              f"{len(report['contracts']['ops'])} op kinds, "
              f"{len(report['contracts']['findings'])} finding(s)")
        print(f"  gradcheck: {report['gradcheck']['cases']} cases, "
              f"{report['gradcheck']['failed']} failed")
        print(f"  flow: {back['params_connected']}/{back['params_total']} "
              f"params connected, {len(back['findings'])} finding(s)")
        print(f"  training memory: peak {_mb(mem['train_peak_bytes'])} at "
              f"{mem['peak_pos']}")
        for section in (report["contracts"], report["gradcheck"], back):
            for finding in section["findings"]:
                print(f"    {finding['path']}:{finding['line']}: "
                      f"{finding['code']} {finding['message']}")
    if failures:
        print(f"error: {len(failures)} blocking finding(s)", file=sys.stderr)
        return 1
    if not args.json:
        print("gradcheck OK")
    return 0


def _print_perf_report(report: dict, top: int) -> None:
    if report["target"] == "flow":
        print(f"flow ({report['audited_files']} files audited)")
    else:
        dflow = report["dtype_flow"]
        alias = report["aliasing"]
        fus = report["fusion"]
        print(f"{report['model']} (preset={report['preset']}, "
              f"grid={report['grid']}, batch={report['batch']}, "
              f"dtype={report['dtype']})")
        print(f"  dtype flow: {dflow['widened_ops']} widened ops "
              f"({_mb(dflow['widened_bytes'])}), "
              f"{dflow['cast_churn']} cast churn")
        print(f"  aliasing: {alias['redundant_copies']}/"
              f"{alias['redundant_copies'] + alias['required_copies']} "
              f"copies redundant ({_mb(alias['redundant_copy_bytes'])}), "
              f"{alias['broadcast_blowups']} broadcast blowups")
        print(f"  fusion: {fus['unfused_chains']} unfused chains "
              f"({_mb(fus['transient_bytes'])} transient, "
              f"save ~{_mb(fus['predicted_saving_bytes'])}), "
              f"{_mb(fus['workspace_bytes'])} contraction workspace")
    validation = report["validation"]
    if validation["validated"]:
        for result in validation["results"]:
            status = "ok" if result["ok"] else "FAILED"
            claim = (
                f"{_mb(result['predicted_bytes'])} predicted vs "
                f"{_mb(result['measured_bytes'])} measured "
                f"(err {result['rel_err']:.1%})"
                if result["predicted_bytes"]
                else f"speedup {result['speedup']:.1f}x"
            )
            print(f"  validated {result['kind']}: {claim} [{status}]")
    counts = ", ".join(f"{c}x{n}" for c, n in report["by_code"].items())
    print(f"  findings: {counts or 'none'}")
    for finding in report["findings"][:top]:
        print(f"    {finding['path']}:{finding['line']}: "
              f"{finding['code']} {finding['message']}")
    shown = min(top, len(report["findings"]))
    if len(report["findings"]) > shown:
        print(f"    ... {len(report['findings']) - shown} more "
              "(--json for all)")
    for failure in report["failures"]:
        print(f"  FAIL: {failure}")


def _cmd_perfcheck(args) -> int:
    import json

    from .perf import (
        SCHEMA as PERF_SCHEMA,
        baseline_from_bundle,
        check_perf_baseline,
        perfcheck_all,
        perfcheck_flow,
        perfcheck_model,
    )

    validate = not args.no_validate
    if args.target == "all":
        bundle = perfcheck_all(
            preset=args.preset, grid=args.grid, validate=validate
        )
    elif args.target == "flow":
        flow = perfcheck_flow(validate=validate)
        bundle = {
            "schema": PERF_SCHEMA,
            "reports": [],
            "flow": flow,
            "distinct_codes": sorted(flow["by_code"]),
            "failures": list(flow["failures"]),
        }
    else:
        report = perfcheck_model(
            args.target, preset=args.preset, grid=args.grid, validate=validate
        )
        bundle = {
            "schema": PERF_SCHEMA,
            "reports": [report],
            "flow": None,
            "distinct_codes": sorted(report["by_code"]),
            "failures": list(report["failures"]),
        }

    if args.json:
        print(json.dumps(bundle, indent=2))
    else:
        for report in bundle["reports"]:
            _print_perf_report(report, args.top)
            print()
        if bundle["flow"] is not None:
            _print_perf_report(bundle["flow"], args.top)

    status = EXIT_OK
    if bundle["failures"]:
        print(f"error: {len(bundle['failures'])} blocking finding(s)",
              file=sys.stderr)
        status = EXIT_BLOCKING

    from .baselines import apply_baseline_flags

    drift = apply_baseline_flags(
        args, baseline_from_bundle(bundle),
        lambda doc: check_perf_baseline(bundle, doc),
        carry=("fixes",),
    )
    if drift and status == EXIT_OK:
        status = EXIT_DRIFT
    return status


def _cmd_concheck(args) -> int:
    import json

    from .concheck import (
        baseline_from_concheck,
        check_concheck_baseline,
        concheck,
    )

    bundle = concheck(root=args.root)

    if args.json:
        print(json.dumps(bundle, indent=2))
    else:
        print(f"{bundle['package']}: {bundle['modules']} modules, "
              f"{bundle['functions']} functions indexed")
        print(f"worker roots ({len(bundle['worker_roots'])}):")
        for ref in bundle["worker_roots"]:
            print(f"  {ref}")
        summary = bundle["effect_summary"]
        print(f"reachable: {bundle['reachable_functions']} functions "
              f"across {len(bundle['worker_modules'])} modules "
              f"(pure {summary['pure']}, deterministic "
              f"{summary['deterministic']}, io {summary['io']}, "
              f"global-mutating {summary['global-mutating']})")
        if bundle["by_code"]:
            print("findings: " + ", ".join(
                f"{code} x{count}"
                for code, count in sorted(bundle["by_code"].items())
            ))
        for finding in bundle["findings"][: args.top]:
            print(f"  {finding['path']}:{finding['line']}: "
                  f"{finding['code']} {finding['message']}")
        if len(bundle["findings"]) > args.top:
            print(f"  ... {len(bundle['findings']) - args.top} more "
                  "(--json for all)")

    status = EXIT_OK
    if bundle["failures"]:
        print(f"error: {len(bundle['failures'])} blocking finding(s)",
              file=sys.stderr)
        status = EXIT_BLOCKING
    elif not args.json:
        print("concurrency-safety certified (0 blocking REPRO6xx findings)")

    from .baselines import apply_baseline_flags

    drift = apply_baseline_flags(
        args, baseline_from_concheck(bundle),
        lambda doc: check_concheck_baseline(bundle, doc),
    )
    if drift and status == EXIT_OK:
        status = EXIT_DRIFT
    return status


def _print_scaling_model(name: str, report: dict) -> None:
    print(f"{name} (preset={report['preset']}, batch={report['batch']}, "
          f"ladder {report['ladder'][0]}..{report['ladder'][-1]})")
    for regime in report["regimes"]:
        total = regime["total"]
        print(f"  regime [{regime['lo']}, {regime['hi']}] "
              f"({len(regime['grids'])} grids, held-out "
              f"{regime['held_out']}):")
        print(f"    total: flops G^{total['flops']['degree']} "
              f"(leading {total['flops']['leading']}), "
              f"bytes G^{total['bytes']['degree']}")
        degrees = {
            stage: max(e["flops"]["degree"], e["bytes"]["degree"])
            for stage, e in regime["stages"].items()
        }
        if degrees:
            worst = max(degrees.values())
            budget = max(e["budget"] for e in regime["stages"].values())
            print(f"    stages: {len(degrees)} certified, "
                  f"max G^{worst} <= budget G^{budget}")
        for label in ("fwd_peak", "train_peak"):
            entry = regime["memory"].get(label)
            if entry is None:
                continue
            held = entry["held_out"]
            print(f"    {label}: G^{entry['degree']} from grid "
                  f"{entry['valid_from']} (held-out grid {held['grid']} "
                  f"err {held['rel_err']:.1%})")
    measured = report.get("measured")
    if measured:
        print(f"  measured: training-step peak at grid {measured['grid']} "
              f"within {measured['rel_err']:.1%} of the envelope "
              f"(bound {measured['bound']:.0%})")


def _cmd_scalecheck(args) -> int:
    import json

    from .baselines import apply_baseline_flags
    from .scaling import (
        DEFAULT_LADDER,
        baseline_from_scaling,
        check_scaling_baseline,
        scalecheck,
    )

    ladder = tuple(args.ladder) if args.ladder else DEFAULT_LADDER
    bundle = scalecheck(
        args.target, preset=args.preset, batch=args.batch, ladder=ladder,
        cache_dir=args.cache, measure=not args.no_measure,
    )

    if args.json:
        print(json.dumps(bundle, indent=2))
    else:
        for name in bundle["models"]:
            _print_scaling_model(name, bundle["models"][name])
            print()
        if bundle["flow"] is not None:
            summary = bundle["flow"]["summary"]
            orders = ", ".join(
                f"{m}={summary['max_order'][m]}/{summary['budgets'][m]}"
                for m in sorted(summary["budgets"])
            )
            print(f"flow: {summary['functions']} functions "
                  f"({summary['hot_functions']} hot), "
                  f"max nest order vs budget: {orders}")
            for f in bundle["flow"]["findings"]:
                print(f"  {f['path']}:{f['line']}: {f['code']} "
                      f"{f['message']}")
        if bundle["by_code"]:
            print("findings: " + ", ".join(
                f"{code} x{count}"
                for code, count in bundle["by_code"].items()
            ))
        print(f"sealed: {bundle['fingerprint'][:23]}…")

    status = EXIT_OK
    if bundle["failures"]:
        print(f"error: {len(bundle['failures'])} blocking finding(s)",
              file=sys.stderr)
        status = EXIT_BLOCKING
    elif not args.json:
        print("scaling certified (0 blocking REPRO7xx findings)")

    drift = apply_baseline_flags(
        args, baseline_from_scaling(bundle),
        lambda doc: check_scaling_baseline(bundle, doc),
    )
    if drift and status == EXIT_OK:
        status = EXIT_DRIFT
    return status


def _print_numcheck_model(name: str, report: dict) -> None:
    print(f"{name} (preset={report['preset']}, "
          f"budget={report['budget']:.1e})")
    for grid in sorted(report["grids"], key=int):
        doc = report["grids"][grid]
        print(f"  grid {grid}: forward rel <= {doc['forward_rel']:.3e}, "
              f"backward rel <= {doc['backward_rel']:.3e}")
        if doc["unsupported"]:
            print(f"    unsupported ops: {', '.join(doc['unsupported'])}")
        measured = doc.get("measured")
        if measured:
            print(f"    measured: forward {measured['forward']:.3e}, "
                  f"backward {measured['backward']:.3e} "
                  f"(worst {measured['worst_param']})")


def _cmd_numcheck(args) -> int:
    import json

    from .baselines import apply_baseline_flags
    from .numcheck import (
        CERT_GRIDS,
        DEFAULT_BUDGET,
        baseline_from_numcheck,
        check_numcheck_baseline,
        numcheck,
    )

    grids = tuple(args.grids) if args.grids else CERT_GRIDS
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    bundle = numcheck(
        args.target, preset=args.preset, grids=grids, batch=args.batch,
        seed=args.seed, budget=budget, measure=not args.no_measure,
        cache_dir=args.cache,
    )

    if args.json:
        print(json.dumps(bundle, indent=2))
    else:
        for name in bundle["models"]:
            _print_numcheck_model(name, bundle["models"][name])
            print()
        if bundle["flow"] is not None:
            print(f"flow: {len(bundle['flow']['audited_files'])} files "
                  f"audited, {len(bundle['flow']['findings'])} finding(s)")
        if bundle["by_code"]:
            print("findings: " + ", ".join(
                f"{code} x{count}"
                for code, count in bundle["by_code"].items()
            ))
        shown = 0
        for finding in bundle["findings"]:
            if shown >= args.top:
                remaining = len(bundle["findings"]) - shown
                print(f"  ... {remaining} more (--json for all)")
                break
            print(f"  {finding['path']}:{finding['line']}: "
                  f"{finding['code']} {finding['message']}")
            shown += 1
        print(f"sealed: {bundle['fingerprint'][:23]}…")

    status = EXIT_OK
    if bundle["failures"]:
        print(f"error: {len(bundle['failures'])} blocking finding(s)",
              file=sys.stderr)
        status = EXIT_BLOCKING
    elif not args.json:
        print("rounding certified (0 blocking findings)")

    drift = apply_baseline_flags(
        args, baseline_from_numcheck(bundle),
        lambda doc: check_numcheck_baseline(bundle, doc),
    )
    if drift and status == EXIT_OK:
        status = EXIT_DRIFT
    return status


def _update_all_baselines(args) -> int:
    """``repro check --update-baselines``: refresh every benchmark pin.

    Each analysis runs in its CI-pinned configuration (the grids and
    flags the workflow jobs use), every document is serialized first,
    and only then do all six rename into place — a failure anywhere
    leaves the benchmarks directory untouched.
    """
    from pathlib import Path

    from .baselines import carry_sections, write_baselines
    from .concheck import baseline_from_concheck, concheck
    from .ir import analyze_registry, baseline_from_reports
    from .numcheck import baseline_from_numcheck, numcheck
    from .perf import baseline_from_bundle, perfcheck_all
    from .scaling import baseline_from_scaling, scalecheck

    bench = Path(__file__).resolve().parents[2] / "benchmarks"
    validate = not args.no_validate
    docs: dict[str, dict] = {}

    forward = analyze_registry(preset="fast", grids=(64, 256))
    docs[str(bench / "ir_baseline.json")] = baseline_from_reports(forward)
    backward = analyze_registry(
        preset="fast", grids=(64, 256), determinism=False, backward=True
    )
    docs[str(bench / "adjoint_baseline.json")] = baseline_from_reports(backward)
    perf = perfcheck_all(preset="fast", grid=64, validate=validate)
    perf_path = str(bench / "perf_baseline.json")
    docs[perf_path] = carry_sections(
        perf_path, baseline_from_bundle(perf), ("fixes",)
    )
    docs[str(bench / "concheck_baseline.json")] = baseline_from_concheck(concheck())
    scaling = scalecheck("all", measure=validate)
    docs[str(bench / "scaling_baseline.json")] = baseline_from_scaling(scaling)
    numbers = numcheck("all", measure=validate)
    docs[str(bench / "numcheck_baseline.json")] = baseline_from_numcheck(numbers)

    write_baselines(docs)
    for path in sorted(docs):
        print(f"baseline written: {path}")
    return EXIT_OK


def _iter_finding_codes(obj):
    """Every diagnostic code in a combined report (recursive walk)."""
    if isinstance(obj, dict):
        if "code" in obj and "message" in obj and isinstance(obj["code"], str):
            yield obj["code"]
        for value in obj.values():
            yield from _iter_finding_codes(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _iter_finding_codes(value)


def _cmd_check(args) -> int:
    """The unified gate: lint + analyze + gradcheck + perfcheck +
    concheck + scalecheck + numcheck."""
    import json
    from pathlib import Path

    from .adjoint import audit_registry
    from .concheck import concheck
    from .ir import analyze_registry
    from .ir.report import serialize_finding
    from .lint.rules import lint_paths
    from .lint.shapes import ShapeError, validate_registry_models
    from .numcheck import numcheck
    from .perf import perfcheck_all
    from .scaling import scalecheck

    if args.update_baselines:
        return _update_all_baselines(args)

    failures: list[str] = []

    # 1. AST lint + static shape validation of the registry models.
    lint_findings = lint_paths([Path(__file__).resolve().parent])
    failures.extend(str(f) for f in lint_findings)
    shape_error = None
    try:
        validate_registry_models(grids=(args.grid,), preset=args.preset)
    except ShapeError as exc:
        shape_error = str(exc)
        failures.append(f"shape validation: {exc}")

    # 2. Forward-IR analysis, 3. gradient audit, 4. perf analysis.
    analyze_bundle = analyze_registry(preset=args.preset, grids=(args.grid,))
    failures.extend(
        f for r in analyze_bundle["reports"] for f in r["failures"]
    )
    gradcheck_bundle = audit_registry(preset=args.preset, grid=args.grid)
    failures.extend(
        f for r in gradcheck_bundle["reports"] for f in r["failures"]
    )
    perf_bundle = perfcheck_all(
        preset=args.preset, grid=args.grid, validate=not args.no_validate
    )
    failures.extend(perf_bundle["failures"])

    # 5. Concurrency-safety certification of the worker-reachable graph.
    concheck_bundle = concheck()
    failures.extend(concheck_bundle["failures"])

    # 6. Certified scaling laws + flow-code complexity lint.
    scaling_bundle = scalecheck("all", preset=args.preset,
                                measure=not args.no_validate)
    failures.extend(scaling_bundle["failures"])

    # 7. Rounding-error certification + float64 shadow validation.
    numcheck_bundle = numcheck("all", preset=args.preset,
                               measure=not args.no_validate)
    failures.extend(numcheck_bundle["failures"])

    combined = {
        "schema": "repro.check/v1",
        "preset": args.preset,
        "grid": args.grid,
        "lint": {
            "findings": [serialize_finding(f) for f in lint_findings],
            "shape_error": shape_error,
        },
        "analyze": analyze_bundle,
        "gradcheck": gradcheck_bundle,
        "perfcheck": perf_bundle,
        "concheck": concheck_bundle,
        "scalecheck": scaling_bundle,
        "numcheck": numcheck_bundle,
        "failures": failures,
    }
    advisories: list[str] = []
    if args.fail_on == "advisory":
        from .diagnostics import all_codes

        registered = all_codes()
        advisories = sorted(
            code
            for code in set(_iter_finding_codes(combined))
            if code in registered and not registered[code].blocking
        )
    if args.json:
        print(json.dumps(combined, indent=2))
    else:
        sections = (
            ("lint", len(lint_findings) + (1 if shape_error else 0)),
            ("analyze", sum(len(r["failures"])
                            for r in analyze_bundle["reports"])),
            ("gradcheck", sum(len(r["failures"])
                              for r in gradcheck_bundle["reports"])),
            ("perfcheck", len(perf_bundle["failures"])),
            ("concheck", len(concheck_bundle["failures"])),
            ("scalecheck", len(scaling_bundle["failures"])),
            ("numcheck", len(numcheck_bundle["failures"])),
        )
        for name, count in sections:
            print(f"{name}: {'OK' if not count else f'{count} failure(s)'}")
        for failure in failures:
            print(f"  FAIL: {failure}")
    if failures:
        print(f"error: {len(failures)} blocking finding(s) across the gate",
              file=sys.stderr)
        return EXIT_BLOCKING
    if advisories:
        print(
            f"error: --fail-on advisory: {len(advisories)} advisory "
            f"code(s) present ({', '.join(advisories)})",
            file=sys.stderr,
        )
        return EXIT_BLOCKING
    if not args.json:
        print("check OK")
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "place": _cmd_place,
    "route": _cmd_route,
    "score": _cmd_score,
    "train": _cmd_train,
    "table2": _cmd_table2,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "gradcheck": _cmd_gradcheck,
    "perfcheck": _cmd_perfcheck,
    "concheck": _cmd_concheck,
    "scalecheck": _cmd_scalecheck,
    "numcheck": _cmd_numcheck,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:  # the contract: unexpected crashes exit 4, not 1
        import traceback

        traceback.print_exc()
        print("error: internal error (see traceback above)", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
