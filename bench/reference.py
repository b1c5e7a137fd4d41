"""Fixed reference computation that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-30 % over seconds and minutes as other tenants load it.  The worker times
this kernel right before every ``run_experiment`` call, and the gated timing
metrics divide each measured time by the reference time around it.  A time
in these units (``ref``) keeps the program's own cost and drops most of the
host's drift.

The kernel is the benchmark's own fixed code with a fixed seed, so a change
to ldplab never changes its work.  Its mix resembles a trial's: random
draws, counting and comparisons over arrays that fit in cache and over one
that does not, and a Python loop over small arrays.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

SAMPLES_PER_RUN = 3  # kernel timings before each run_experiment call


def reference_kernel() -> int:
    """About 10 ms of fixed work on an unloaded core; returns a checksum."""
    rng = np.random.default_rng(20240501)
    total = 0
    for _ in range(3):
        values = np.clip(rng.normal(512.0, 40.0, 40_000).astype(np.int64), 0, 1023)
        counts = np.bincount(values, minlength=1024)
        bits = rng.random((4_000, 16)) < 0.25
        total += int(counts.max()) + int(bits.sum())
        small = counts[:64].astype(np.float64)
        for _ in range(30):
            small = np.maximum(small - 0.01 * small.mean(), 0.0)
        total += int(np.argsort(rng.random(10_000))[0])
    total += int((rng.random(600_000) < 0.3).sum())
    return total


def time_samples(count: int = SAMPLES_PER_RUN) -> List[float]:
    """Wall seconds of ``count`` back-to-back kernel runs."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - started)
    return times
