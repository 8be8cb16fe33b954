"""Shared benchmark configuration and expensive session fixtures.

The benches regenerate the paper's tables/figures at a configurable
effort controlled by ``REPRO_BENCH_PROFILE``:

* ``smoke`` — minutes-scale sanity run (2 designs, few epochs).
* ``fast`` (default) — the full 10-design suite at reduced sample count
  and training budget; the table *shapes* (who wins, roughly by how
  much) are reproduced.
* ``full``  — closest to the paper's protocol this substrate supports.

Expensive artifacts (the dataset and the four trained models) are built
once per pytest session and shared by every bench.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.models import MODEL_NAMES, build_model
from repro.netlist import MLCAD2023_SPECS, TABLE1_DESIGNS
from repro.train import CongestionDataset, DatasetConfig, TrainConfig, Trainer


@dataclass(frozen=True)
class BenchProfile:
    name: str
    designs: tuple[str, ...]
    placements_per_design: int
    grid: int
    design_scale: float
    epochs: int
    batch_size: int
    lr: float
    model_preset: str
    table2_designs: tuple[str, ...]
    gp_iters: int
    ablation_epochs: int = 0  # 0 -> same as epochs
    lr_schedule: str = "cosine"


_PROFILES = {
    "smoke": BenchProfile(
        name="smoke",
        designs=("Design_116", "Design_197"),
        placements_per_design=2,
        grid=32,
        design_scale=1 / 128,
        epochs=8,
        batch_size=8,
        lr=3e-3,
        model_preset="tiny",
        table2_designs=("Design_116", "Design_197"),
        gp_iters=200,
        ablation_epochs=4,
    ),
    "fast": BenchProfile(
        name="fast",
        designs=TABLE1_DESIGNS,
        placements_per_design=6,
        grid=64,
        design_scale=1 / 64,
        epochs=40,
        batch_size=8,
        lr=2e-3,
        model_preset="fast",
        table2_designs=None,  # filled below with TABLE2_DESIGNS
        gp_iters=400,
        ablation_epochs=20,
    ),
    "full": BenchProfile(
        name="full",
        designs=TABLE1_DESIGNS,
        placements_per_design=10,
        grid=64,
        design_scale=1 / 64,
        epochs=60,
        batch_size=8,
        lr=2e-3,
        model_preset="fast",
        table2_designs=None,
        gp_iters=500,
        ablation_epochs=30,
    ),
}


def current_profile() -> BenchProfile:
    from repro.netlist import TABLE2_DESIGNS

    name = os.environ.get("REPRO_BENCH_PROFILE", "fast")
    if name not in _PROFILES:
        raise ValueError(
            f"REPRO_BENCH_PROFILE={name!r} unknown; use one of {sorted(_PROFILES)}"
        )
    profile = _PROFILES[name]
    if profile.table2_designs is None:
        object.__setattr__(profile, "table2_designs", TABLE2_DESIGNS)
    return profile


@pytest.fixture(scope="session", autouse=True)
def _bench_dtype():
    """Train/infer in float32 during benches (~1.8x faster, same loss)."""
    import repro.nn as nn

    nn.set_default_dtype(np.float32)
    yield
    nn.set_default_dtype(np.float64)


@pytest.fixture(scope="session")
def profile() -> BenchProfile:
    return current_profile()


def _cache_dir() -> str:
    root = os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "results", "cache"
    )
    os.makedirs(root, exist_ok=True)
    return root


def _cache_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_REFRESH", "0") != "1"


@pytest.fixture(scope="session")
def dataset(profile) -> CongestionDataset:
    """The Section V-A dataset: placement sweep + rotations, all designs.

    Cached under ``results/cache`` per profile; set
    ``REPRO_BENCH_REFRESH=1`` to regenerate.
    """
    from repro.train.dataset import Sample

    cache_path = os.path.join(_cache_dir(), f"dataset_{profile.name}.npz")
    if _cache_enabled() and os.path.exists(cache_path):
        with np.load(cache_path, allow_pickle=False) as archive:
            def unpack(prefix):
                count = int(archive[f"{prefix}_count"])
                return [
                    Sample(
                        features=archive[f"{prefix}_f{i}"],
                        labels=archive[f"{prefix}_l{i}"],
                        design_name=str(archive[f"{prefix}_d{i}"]),
                        rotation=int(archive[f"{prefix}_r{i}"]),
                    )
                    for i in range(count)
                ]

            return CongestionDataset(train=unpack("tr"), eval=unpack("ev"))

    config = DatasetConfig(
        grid=profile.grid,
        placements_per_design=profile.placements_per_design,
        design_scale=profile.design_scale,
        gp_iters=profile.gp_iters,
        seed=2023,
    )
    specs = [MLCAD2023_SPECS[name] for name in profile.designs]
    # REPRO_BENCH_PARALLEL=N fans per-design generation across N
    # supervised workers (repro.orchestrate); the dataset is bitwise
    # identical to the serial build, so the cache stays valid.
    parallel = int(os.environ.get("REPRO_BENCH_PARALLEL", "0"))
    built = CongestionDataset.build(specs, config, parallel=parallel)

    payload = {}
    for prefix, samples in (("tr", built.train), ("ev", built.eval)):
        payload[f"{prefix}_count"] = np.asarray(len(samples))
        for i, sample in enumerate(samples):
            payload[f"{prefix}_f{i}"] = sample.features
            payload[f"{prefix}_l{i}"] = sample.labels
            payload[f"{prefix}_d{i}"] = np.asarray(sample.design_name)
            payload[f"{prefix}_r{i}"] = np.asarray(sample.rotation)
    np.savez_compressed(cache_path, **payload)
    return built


@pytest.fixture(scope="session")
def trained_models(profile, dataset):
    """All four Table-I models trained under the same budget.

    Checkpoints are cached under ``results/cache`` per profile; set
    ``REPRO_BENCH_REFRESH=1`` to retrain.
    """
    from repro.nn import load_module, save_module

    models = {}
    timings = {}
    for name in MODEL_NAMES:
        model = build_model(name, profile.model_preset, grid=profile.grid)
        ckpt = os.path.join(_cache_dir(), f"{name}_{profile.name}.npz")
        if _cache_enabled() and os.path.exists(ckpt):
            load_module(model, ckpt)
            model.eval()
            models[name] = model
            timings[name] = None  # loaded, not trained: no time measured
            continue
        trainer = Trainer(
            TrainConfig(
                epochs=profile.epochs,
                batch_size=profile.batch_size,
                lr=profile.lr,
                lr_schedule=profile.lr_schedule,
                weight_decay=1e-4,
                max_class_weight=10.0,
                seed=0,
            )
        )
        result = trainer.train(model, dataset)
        save_module(model, ckpt)
        models[name] = model
        timings[name] = result.seconds
    return {"models": models, "timings": timings}


@pytest.fixture(scope="session")
def trained_ours(trained_models):
    return trained_models["models"]["ours"]


def print_banner(title: str) -> None:
    bar = "=" * max(len(title), 60)
    print(f"\n{bar}\n{title}\n{bar}")


def write_artifact(name: str, text: str, suffix: str = ".txt") -> str:
    """Persist a regenerated table/figure under results/ and print it.

    pytest captures stdout by default, so the benches also write each
    regenerated artifact to ``results/<name><suffix>`` — that is what
    EXPERIMENTS.md points at.
    """
    root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "results")
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"{name}{suffix}")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(text)
    return path
