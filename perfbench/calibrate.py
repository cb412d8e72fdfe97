"""Machine-speed calibration for wall-clock metrics.

On a shared 2-vCPU machine the speed of a CPU drifts by up to 2x over tens
of seconds (the throughput of one 35 s run of ``mc-const`` ranged from 7,500
to 15,000 trials/s between 10 s spells), so raw medians of whole runs differ
by 20-40% between runs.  A short fixed kernel, independent of satrep, is
timed between operations; an operation's time divided by the kernel's mean
time around it, times :data:`NOMINAL_S`, is its time at nominal speed.  That
cut the spread of 12 s windows from 12-18% to 3-4% here.

The kernel mixes the kinds of work satrep does: interpreter bytecode, numpy
calls on tiny arrays (call overhead), transcendental functions on 4001-point
grids, and ``Philox`` generator construction with small draws.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "kernel_seconds", "normalize"]

# The kernel's median time on the 2-vCPU machine the benchmark was written on
# (Python 3.11.7, numpy 2.4.6).  It fixes the unit: normalized times read as
# seconds at that machine's typical speed.
NOMINAL_S = 0.005

_GRID = np.linspace(0.0, 1.0, 4001)
_TINY = np.arange(8.0)


def _kernel() -> float:
    acc = 0.0
    table: dict[int, int] = {}
    for j in range(3000):
        table[j & 63] = j
        acc += table.get(j & 31, 0) * 3 % 7
    for j in range(250):
        a = _TINY * 1.5 + j
        acc += float(a.max() - a.argmin())
    for i in range(12):
        acc += float(np.exp(-np.sqrt(_GRID * _GRID + i)).sum())
    for j in range(60):
        rng = np.random.Generator(np.random.Philox(key=[j, 7]))
        acc += int(rng.geometric(0.01, size=4).sum())
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def normalize(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at nominal
    speed."""
    return seconds * NOMINAL_S / kernel_s
