"""Host-speed calibration for the time metrics.

On a shared host the speed of this process drifts: a fixed pure-Python loop
runs up to 1.7x slower for tens of seconds at a time, when other tenants
load the cores. Runs made minutes apart then differ by more than any useful
bound. A fixed kernel that does not use acsgeo is timed before every op. It
mixes interpreter work and small numpy calls, like the program. Its median
time in a run measures the host's speed during that run. Time metrics are
rescaled to the kernel's nominal time, so they read as seconds on a host
where the kernel takes ``NOMINAL_S``. The raw values are printed alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on a quiet 2-vCPU Intel Xeon VM (2.1 GHz, Python 3.11,
# numpy 2.4).
NOMINAL_S = 0.006

_A = np.arange(27.0).reshape(3, 3, 3)


def kernel() -> int:
    s = 0
    for i in range(100_000):
        s += i * i
    for _ in range(200):
        np.einsum("ijk,kl->ijl", _A, _A[0])
    return s


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown(samples) -> float:
    """How much slower than nominal the host ran: divide times by this."""
    return statistics.median(samples) / NOMINAL_S
