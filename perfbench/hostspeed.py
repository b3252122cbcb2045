"""Host speed reference for the benchmark's pass times.

On a shared two-vCPU VM the same pass of the same seed takes from 3.9 s to
6.9 s within ten minutes, in slow and fast phases that each last minutes, so
a run of 20 s sits inside one phase and the median of its passes carries the
phase with it. Each untraced run therefore also times a fixed numpy kernel
(an im2col-style copy, a GEMM, a ReLU and a Python loop of small reductions,
the same kinds of work a pass does) before every pass and after the last.
`run_s` is the median pass wall time scaled by `NOMINAL_S / median(kernel
time)`: seconds at the host speed at which the kernel takes `NOMINAL_S`.
The raw wall times stay in the results file. Set-up time is not scaled: it is
allocation-heavy Python in a fresh process, whose slow phases the kernel
timed in that process did not follow.

The kernel uses numpy alone, never `metaretrain`, so a change to the package
moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median kernel time on a 2-vCPU Xeon VM (OpenBLAS 0.3.31, 2 threads);
# only the scale of the reported seconds depends on it
NOMINAL_S = 0.033
SAMPLES = 8  # kernel timings per call of `sample`

_rng = np.random.default_rng(0)
_IMAGES = _rng.standard_normal((32, 16, 14, 14))
_WEIGHTS = _rng.standard_normal((32, 16 * 9))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    started = perf_counter()
    for _ in range(6):
        windows = np.lib.stride_tricks.sliding_window_view(_IMAGES, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, 16 * 9)
        out = np.maximum(cols @ _WEIGHTS.T, 0.0)
        for row in out[:200]:
            float(row.sum())
    return perf_counter() - started


def sample() -> list:
    return [kernel_seconds() for _ in range(SAMPLES)]


def scale(samples: list) -> float:
    """Factor that turns wall seconds into seconds at nominal host speed."""
    return NOMINAL_S / statistics.median(samples)
