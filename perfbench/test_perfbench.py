"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The last test runs every workload once per trace mode at the smallest
size (one pass, two when traced) and takes a few minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import pipeline  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer, boundaries  # noqa: E402

from repro.contest import TeamConfig, contest_teams  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.netlist import MLCAD2023_SPECS, generate_design  # noqa: E402
from repro.placement import LegalizationResult  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_spec_and_within_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_layer_metric_names_the_e2e_metric_and_workload_it_moves():
    e2e = {m.name for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        assert metric.moves in e2e or metric.moves.startswith("none"), metric
        assert set(metric.on.split(",")) <= set(spec.WORKLOADS) | {"all"}, metric


@pytest.mark.parametrize("model_name", spec.MODEL_NAMES)
def test_stages_are_the_model_children_and_cost_model_stages(model_name):
    model = build_model(model_name, pipeline.PRESET, grid=pipeline.GRID)
    assert set(model._modules) == set(spec.STAGES[model_name])
    flops = pipeline.stage_flops(model_name, seed=0)
    assert {stage for stage, f in flops.items() if f} <= set(spec.STAGES[model_name])


def test_install_wraps_every_boundary_and_uninstall_restores_it():
    from repro.nn.module import Module
    from repro.train.dataset import CongestionDataset

    targets = boundaries() + [(CongestionDataset, "batches", ""), (Module, "__call__", "")]
    before = [vars(owner).get(attr) for owner, attr, _ in targets]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(
            vars(owner)[attr] is not original
            for (owner, attr, _), original in zip(targets, before)
        )
    finally:
        tracer.uninstall()
    assert [vars(owner).get(attr) for owner, attr, _ in targets] == before


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, ""],
        ["inner", 1.0, 4.0, 0, ""],
        ["leaf", 2.0, 3.0, 1, ""],
        ["inner", 5.0, 7.0, 0, ""],
    ]
    assert tracer.self_times() == pytest.approx({"outer": 5.0, "inner": 4.0, "leaf": 1.0})


@pytest.fixture(scope="module")
def tiny():
    design = generate_design(MLCAD2023_SPECS["Design_197"], scale=1.0 / 256.0)
    return design, design.x.copy(), design.y.copy()


def _utda():
    return contest_teams()[0]


def test_pair_is_deterministic_and_clean(tiny):
    first = pipeline.run_pair(_utda(), *tiny)
    again = pipeline.run_pair(_utda(), *tiny)
    assert first.outcome == again.outcome
    assert not first.failures and not first.wrong


def test_planted_stub_estimator_is_a_counted_failure(tiny):
    utda = _utda()

    def stub(design, x, y):
        return np.full((design.device.tile_cols, design.device.tile_cols), np.nan)

    team = TeamConfig("Stub", "NaN level map", lambda design: stub, utda.placer_config_factory)
    run = pipeline.run_pair(team, *tiny)
    assert any("estimator fallback" in f for f in run.failures)
    failures, wrong = [], []
    attempted = pipeline.tally([pipeline.Pass(False, 1.0, [], [run])], failures, wrong)
    assert (attempted, len(failures), wrong) == (1, 1, [])


def test_planted_illegal_legalization_is_a_counted_failure(tiny, monkeypatch):
    import repro.placement.placer as placer

    def illegal(design, x, y):
        return LegalizationResult(x.copy(), y.copy(), 0.0, 0.0, ["planted"])

    monkeypatch.setattr(placer, "legalize", illegal)
    run = pipeline.run_pair(_utda(), *tiny)
    assert run.failures == ["illegal placement: planted"]
    failures, wrong = [], []
    assert pipeline.tally([pipeline.Pass(False, 1.0, [], [run])], failures, wrong) == 1
    assert len(failures) == 1 and not wrong


def test_wrong_scores_and_pass_to_pass_drift_are_counted(tiny):
    good = pipeline.run_pair(_utda(), *tiny)
    bad = pipeline.run_pair(_utda(), *tiny)
    bad.hpwl = math.nan
    bad.score = pipeline.ContestScore(bad.design, bad.team, 0, 21, 0.0, 1.0)
    pipeline.check_pair(bad, type("Outcome", (), {"legal": True, "incidents": []})())
    assert len(bad.wrong) == 3
    failures, wrong = [], []
    passes = [pipeline.Pass(False, 1.0, [], [good]), pipeline.Pass(False, 1.0, [], [bad])]
    assert pipeline.tally(passes, failures, wrong) == 2
    assert len(failures) == 1 and len(wrong) == 4  # three checks plus the drift


def test_passes_of_other_variants_are_not_compared(tiny):
    good = pipeline.run_pair(_utda(), *tiny)
    other = pipeline.run_pair(_utda(), *tiny)
    other.hpwl += 1.0  # a placement of other inputs
    failures, wrong = [], []
    passes = [
        pipeline.Pass(False, 1.0, [], [good], variant=0),
        pipeline.Pass(False, 1.0, [], [other], variant=1),
    ]
    assert pipeline.tally(passes, failures, wrong) == 2
    assert failures == [] and wrong == []


def test_time_metrics_are_scaled_to_the_reference_host():
    score = pipeline.ContestScore("D", "T", 5, 8, 0.05, 1.0)
    pair = pipeline.PairRun("T", "D", 3.0, 2.0, 100.0, score, True, 12, 50, False)
    train = [pipeline.TrainRun(name, 0.5, [2.0, 1.5]) for name in spec.MODEL_NAMES]
    # Interpreter-bound work runs at half and BLAS work at twice the speed
    # of the reference host.
    sample = (2.0 * calibrate.INTERPRETER_REF_S, 0.5 * calibrate.BLAS_REF_S)
    passes = [pipeline.Pass(False, 1.0, train, [pair], calibration=[sample] * 3)]
    metrics, raw = pipeline.e2e_metrics(passes, [4.0], dict.fromkeys(spec.MODEL_NAMES, 1.0))
    assert raw["slowdown.interpreter"] == pytest.approx(2.0)
    assert raw["slowdown.blas"] == pytest.approx(0.5)
    assert (raw["setup_s"], raw["t_macro_s"], raw["route_s"]) == (4.0, 3.0, 2.0)
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["t_macro_s"] == pytest.approx(1.5)
    assert metrics["route_s"] == pytest.approx(1.0)
    samples = len(spec.MODEL_NAMES) * pipeline.TRAIN_STEPS * pipeline.BATCH
    assert raw["train_sps"] == pytest.approx(samples / (len(spec.MODEL_NAMES) * 0.5))
    assert metrics["train_sps"] == pytest.approx(0.5 * raw["train_sps"])


def test_loss_check_against_reference():
    reference = pipeline.load_reference()["ours"]
    assert pipeline.check_losses("ours", list(reference), reference) == []
    off = [reference[0], reference[1] * (1 + 10 * pipeline.LOSS_RTOL)]
    assert pipeline.check_losses("ours", off, reference)
    assert pipeline.check_losses("ours", [math.nan, reference[1]], reference)


def test_reference_losses_reproduce():
    from repro import nn

    previous = nn.get_default_dtype()
    nn.set_default_dtype(np.float32)
    try:
        losses, peak = pipeline.reference_training("pros2", pipeline.reference_dataset())
    finally:
        nn.set_default_dtype(previous)
    assert pipeline.check_losses("pros2", losses, pipeline.load_reference()["pros2"]) == []
    assert peak > 0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2_s64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "no program sources" in proc.stderr
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smallest_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0
