"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload table2_s64 --seed 1 --seconds 60 --trace 0

Prints every metric by name and unit, the failure share and a machine
fingerprint, writes the run record (with the spans of a traced run) to
``perfbench/out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, with the time metrics scaled to the reference
host (``calibrate.py``) and their raw wall-clock values printed beside
them; ``--trace 1`` reports the per-layer ones.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``;
``--write-reference`` regenerates the stored fixed-seed training losses.
"""

from __future__ import annotations

import os
import time

#: The run's time budget counts from here.
STARTED = time.perf_counter()

# One process, one BLAS/OpenMP thread: set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def git_commit(root: Path) -> str:
    """HEAD of ``root``'s git checkout, or "none" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root: Path) -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(ROOT),
        "source_digest": source_digest(ROOT),
        "loadavg_start": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline
    import spec

    if args.write_spec:
        spec.write_benchmark_json(ROOT / "BENCHMARK.json")
        return 0
    if args.write_reference:
        pipeline.write_reference()
        return 0
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(spec.WORKLOADS)}")

    machine = fingerprint()
    result = pipeline.run(
        args.workload, args.seed, args.seconds, bool(args.trace), started=STARTED
    )
    machine["loadavg_end"] = os.getloadavg()

    metric_specs = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {
        m.name: {"value": result.metrics[m.name], "unit": m.unit} for m in metric_specs
    }
    failed = len(result.failures)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in machine.items():
        print(f"  {key}: {value}")
    print(f"passes {len(result.passes)}: "
          + ", ".join(f"{p.wall_s:.2f}s{' traced' if p.traced else ''}" for p in result.passes))
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    if result.raw:
        print("raw wall-clock values of the time metrics, and the host's slowdown:")
        for name, value in result.raw.items():
            print(f"  {name:<36} {value:>14.6g}")
    print(f"failed {failed}/{result.attempted} ({failed / result.attempted:.1%})")
    for line in result.failures:
        print(f"  FAILED {line}")
    for line in result.wrong:
        print(f"  WRONG {line}")
    if result.self_times:
        print("self time of traced passes (s):")
        for name, t in sorted(result.self_times.items(), key=lambda kv: -kv[1])[:15]:
            print(f"  {name:<36} {t:10.4f}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": machine, "metrics": metrics,
        "attempted": result.attempted, "failures": result.failures,
        "wrong": result.wrong, "setup_s": result.setup_s, "raw": result.raw,
        "pass_walls": [[p.wall_s, p.traced] for p in result.passes],
        "pairs": [
            [i, r.team, r.design, r.place_s, r.route_s]
            for i, p in enumerate(result.passes) for r in p.pairs
        ],
        "train": [[i, r.model, r.wall_s] for i, p in enumerate(result.passes) for r in p.train],
        "calibration": [list(p.calibration) for p in result.passes],
        "self_times": result.self_times, "spans": result.spans,
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
