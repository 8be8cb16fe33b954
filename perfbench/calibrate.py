"""Calibration kernels: the host's speed, measured beside the work.

The benchmark shares its host, whose speed drifts by 20-40% over minutes,
more than any run can average out.  These kernels are the benchmark's own
fixed code, so no change to the program moves them.  A run times them
before each of its units, and reports its time metrics scaled to a
reference host on which each kernel takes its ``*_REF_S``; the raw
wall-clock values are printed and recorded beside them.

There are two kernels because the drift hits two kinds of work
differently, and each tracks one of them: ``interpreter`` (small numpy
calls and a pure-Python loop) tracks place, route and set-up, and
``blas`` (float32 matmuls over large arrays) tracks training.  Over six
minutes of drift, the IQR/median of 30-second medians of a fixed
placement fell from 0.27 to 0.06 when divided by ``interpreter``, and
that of a fixed training step from 0.12 to 0.03 when divided by ``blas``.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(4096)
_BINS = _RNG.integers(0, 1024, 4096)
_A = _RNG.random((512, 1152), dtype=np.float32)
_B = _RNG.random((1152, 1024), dtype=np.float32)

#: Seconds each kernel takes on the reference host: the median of 40
#: back-to-back samples on a 2-vCPU x86-64 VM with one OpenBLAS thread.
INTERPRETER_REF_S = 0.096
BLAS_REF_S = 0.093


def interpreter() -> float:
    """Seconds for a fixed mix of small numpy calls and a Python loop."""
    start = time.perf_counter()
    acc = np.zeros(1024)
    total = 0.0
    for _ in range(1200):
        np.add.at(acc, _BINS, _VALUES)
        total += float(np.exp(-_VALUES).sum())
        total += float(np.abs(np.fft.rfft2(acc.reshape(32, 32))).max())
    for i in range(80_000):
        total += i * 0.5
    return time.perf_counter() - start


def blas() -> float:
    """Seconds for fixed float32 matmuls and passes over their results."""
    start = time.perf_counter()
    for _ in range(6):
        c = _A @ _B
        np.maximum(c, 0.5, out=c)
        c.sum()
    return time.perf_counter() - start


def sample() -> tuple[float, float]:
    """One timing of each kernel: ``(interpreter, blas)`` seconds."""
    return interpreter(), blas()
