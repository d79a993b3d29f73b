"""A fixed reference computation that calibrates timings to the machine's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over minutes (a 2-vCPU VM served the same request in 120 ms and in
220 ms within two minutes).  Each timing is therefore paired with runs of this
kernel taken right before and after it, and reported in calibrated seconds:

    calibrated = wall * REFERENCE_S / (wall time of the kernel at that moment)

The kernel does the kind of work the package's inner loops do (tuple keys in
a dict, complex arithmetic on numpy scalars, small-array numpy calls) and
calls no package code, so a change to the package moves calibrated times as
it would move wall times on a steady machine.  On that VM the ratio of an
oracle request to the kernel stayed within 4% while the wall time varied 80%.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time

import numpy as np

#: The kernel's wall time that defines one calibrated second's scale, about
#: its median on the 2-vCPU VM the benchmark was written on.
REFERENCE_S = 0.015

#: Kernel runs taken on each side of a worker's cold start.
AROUND = 3

_MATRIX = np.exp(1j * np.arange(64.0).reshape(8, 8))
_VECTOR = np.linspace(-1.0, 1.0, 5)


def _kernel() -> int:
    out: dict[tuple[int, ...], complex] = {}
    for occ in itertools.product(range(3), repeat=7):
        cols = [k for k, v in enumerate(occ) for _ in range(v)][:3]
        value = 0j
        for r in range(3):
            for c in cols:
                value += _MATRIX[r, c] * _MATRIX[c, r]
        key = tuple(sorted(occ))
        out[key] = out.get(key, 0j) + value / math.sqrt(1 + len(cols))
    x = _VECTOR
    for _ in range(300):
        e = np.exp(x - x.max())
        x = e / e.sum() + _VECTOR
    return len(out)


def reference_time() -> float:
    """Wall seconds of one run of the kernel, now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def reference_times(count: int) -> list[float]:
    return [reference_time() for _ in range(count)]


def scale(times: list[float]) -> float:
    """Factor taking wall seconds measured next to ``times`` to calibrated seconds."""
    return REFERENCE_S / statistics.median(times)
