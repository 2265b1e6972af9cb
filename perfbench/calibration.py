"""Machine-speed calibration: times are reported at a fixed reference speed.

The virtual machines this benchmark runs on change speed by up to 1.7x for
seconds to minutes at a time, as other tenants come and go; the same
operation then takes 1.7x as long. A fixed kernel of small numpy operations
and Python arithmetic, independent of eprbm, is timed at operation
boundaries. An operation's wall time is divided by the mean kernel time just
before and just after it, and multiplied by ``REFERENCE_S``: the result is
the operation's time on a machine where the kernel takes exactly 8 ms. A
change to eprbm leaves the kernel alone, so it moves the scaled time by the
same share as the wall time. Wall times are kept in the run record.
Commands run in child processes keep their wall time (see ``run.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np
from pytest_benchmark.timers import default_timer

REFERENCE_S = 0.008
# at most one kernel per interval, so calibration costs a few % of a run
INTERVAL_S = 0.2


def kernel_seconds() -> float:
    """Wall time of the fixed reference kernel (~5-9 ms on a 2-core Xeon VM)."""
    x = np.linspace(0.0, 1.0, 400).reshape(100, 4)
    w = np.full((4, 4), 0.025)
    started = default_timer()
    for _ in range(400):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        x = 0.5 * (p > 0.5) + 0.5 * x
        float(x.mean()) + sum(range(20))
    return default_timer() - started


class Speed:
    """Kernel times sampled through a run, and the scaling they imply."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel: list[float] = []

    def sample(self) -> None:
        started = default_timer()
        self.kernel.append(kernel_seconds())
        self.starts.append(started)
        self.ends.append(default_timer())

    def sample_if_due(self) -> None:
        if not self.ends or default_timer() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def scaled(self, start: float, end: float, wall: float) -> float:
        """``wall`` seconds spent in [start, end], at the reference speed.

        Uses the last kernel sample that ended before ``start`` and the
        first that began after ``end``; either alone if the other is missing.
        """
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.starts, end)
        around = [self.kernel[i] for i in (before, after) if 0 <= i < len(self.kernel)]
        return wall * REFERENCE_S / (sum(around) / len(around))
