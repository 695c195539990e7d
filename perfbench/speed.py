"""Machine-speed calibration for the benchmark's timings.

The 2-core host the benchmark was developed on shares its cores with other
tenants: the same operation runs up to 1.5x slower in some stretches of
seconds than in others, which is wider than any bound a benchmark may
set.  So every time the benchmark reports is in reference seconds:
measured seconds scaled by CAL_REF_S / (time kernel() takes at that
moment).  kernel() is a fixed mix of interpreter work and small numpy
operations, the two things pdegensol's hot loops spend their time on, and
runs no package code.  Raw seconds are printed beside.

The kernel is timed only between operations, never inside one: sampled
from a timer signal in the middle of an operation, it ran a median 10%
slower inside 4.4's 1.6 GB operations than inside elementary ones (five
alternating rounds on one host), so a change that enlarged the working set
would have scaled away part of its own slowdown.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_PERIOD_S = 0.25  # at most one kernel sample this often between operations
CAL_BURST = 5  # most samples taken in one gap, after a long operation
CAL_WINDOW_S = 1.0  # samples this close to an interval set its speed
CAL_REF_S = 4e-3  # kernel seconds at the reference speed


def kernel() -> None:
    a = np.linspace(0.1, 1.0, 2048)
    acc = 0.0
    for i in range(400):
        acc += float(np.sqrt(a * a + i).sum())
    for i in range(12000):
        acc += i % 7


def kernel_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Kernel samples taken between operations, and the reference seconds
    of an interval computed from the samples around it."""

    def __init__(self):
        self.samples: list = []  # (midpoint, kernel seconds)
        self._last = None  # end of the latest sample

    def between(self) -> None:
        """Call between two operations (and before the first and after the
        last): samples the kernel once per CAL_PERIOD_S since the latest
        sample, at most CAL_BURST times."""
        n = CAL_BURST
        if self._last is not None:
            gap = time.perf_counter() - self._last
            n = min(n, int(gap / CAL_PERIOD_S))
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append((0.5 * (t0 + self._last), self._last - t0))

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of [t0, t1]."""
        near = [d for m, d in self.samples
                if t0 - CAL_WINDOW_S <= m <= t1 + CAL_WINDOW_S]
        near = near or [d for _, d in self.samples]
        return (t1 - t0) * CAL_REF_S / statistics.median(near)
