"""Host-speed sampling, so timings from a shared machine can be compared.

On a machine shared with other tenants the same work can take 25-50% longer
from one minute to the next, which no amount of repetition inside one run
averages away. While a run is measured, a timer signal every ``period``
seconds runs a small fixed kernel (sorting and cumulative sums on a small
matrix plus a Python dict loop, the mix of work driftmon's tree and monitor
code does) and records how long it took. The median kernel time of a phase,
divided by REFERENCE_S, is that phase's slowdown; the benchmark divides its
raw times by it. The kernel is benchmark code, so a change to driftmon
cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on an unloaded 2-core x86-64 VM (numpy 2.4,
# Python 3.11); it only fixes the unit of the normalized figures.
REFERENCE_S = 3.7e-4


def _kernel(matrix: np.ndarray, weights: np.ndarray) -> float:
    acc = 0.0
    for _ in range(12):
        order = np.argsort(matrix, axis=0)
        sums = np.cumsum(weights[order], axis=0)
        acc += float(sums[60, 3])
        table: dict[int, int] = {}
        for i in range(150):
            table[i % 17] = table.get(i % 17, 0) + i
    return acc


class SpeedSampler:
    """Times the kernel on a SIGALRM timer while the ``with`` block runs.

    ``spent`` is the total time the kernel took, which callers subtract from
    the wall time they measure. Must be entered from the main thread.
    """

    def __init__(self, period: float = 0.05):
        rng = np.random.default_rng(12345)
        self._matrix = rng.random((120, 8))
        self._weights = rng.random(120)
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _kernel(self._matrix, self._weights)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, start: int, end: int | None = None) -> float:
        """Time-averaged slowdown over samples[start:end].

        Samples come at even time intervals, so their mean weights each
        moment equally, as a wall-time total does. A sample more than three
        times the median was mostly the process being descheduled; it is
        clipped there. A phase too short to hold five samples is calibrated
        on the spot.
        """
        window = self.samples[start:end]
        if len(window) < 5:
            return self.burst_slowdown()
        cap = 3.0 * statistics.median(window)
        return statistics.fmean(min(x, cap) for x in window) / REFERENCE_S

    def burst_slowdown(self, n: int = 9) -> float:
        """Slowdown from n back-to-back kernel runs, for use outside a timed phase."""
        times = []
        for _ in range(n):
            begin = time.perf_counter()
            _kernel(self._matrix, self._weights)
            times.append(time.perf_counter() - begin)
        return statistics.median(times) / REFERENCE_S
