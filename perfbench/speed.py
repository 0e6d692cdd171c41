"""Machine-speed calibration for the benchmark's timings.

The shared host this benchmark was tuned on (2 vCPUs of an Intel Xeon)
changes speed by up to 2x over seconds to minutes while the program stays
the same: the kernel below took from 0.6 to 1.36 ms, as the median of a
run's bursts, within two hours. Wall times of one program spread past any
useful bound. The workload therefore runs this fixed reference kernel,
which depends on nothing in mbnsim, in short bursts between its operations,
and scales every timed interval to the speed at which the kernel takes
REFERENCE_S:

    scaled = wall * REFERENCE_S / (the kernel's median time within
                                    WINDOW_S of the interval's midpoint)

A change to mbnsim moves the scaled times as it moves the wall times; a
change in the host's speed moves the kernel too and largely cancels (on
that host it cut the spread of repeated full-scale training rounds from
11% to 5%). The bursts run outside every timed interval.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# A fixed scale, not a measurement: about the kernel's median burst on the
# 2-vCPU Intel Xeon host where perfbench/baseline.json was recorded.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.2      # least wall time between two bursts
WINDOW_S = 2.0        # bursts within this of an interval's midpoint count
BURST_REPEATS = 3     # a burst keeps the fastest of this many kernel runs

_RNG = np.random.default_rng(0)
_A = _RNG.random((64, 128))
_B = _RNG.random((128, 128))
_G = _RNG.random(50_000)


def reference_kernel() -> float:
    """A fixed mix of the program's kinds of work: an interpreted loop,
    small matrix products and elementwise passes over a parameter-sized
    array. Stateless, so every call does the same work."""
    total, table = 0, {}
    for i in range(2000):
        total += i * i
        table[i & 63] = total
    for _ in range(5):
        _A @ _B
    m = 0.9 * _G + 0.1
    v = np.sqrt(m * m + 1e-8)
    return float(total) + float((m / v)[0])


class SpeedClock:
    """Calibration bursts and the timed intervals they scale."""

    def __init__(self):
        self.burst_times: list[float] = []   # burst midpoints, ascending
        self.burst_s: list[float] = []       # fastest kernel run per burst
        self.burst_total_s = 0.0             # wall time spent in bursts
        self._last = -float("inf")

    def burst(self) -> None:
        t0 = time.perf_counter()
        runs = []
        for _ in range(BURST_REPEATS):
            k0 = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - k0)
        t1 = time.perf_counter()
        self.burst_times.append((t0 + t1) / 2)
        self.burst_s.append(min(runs))
        self.burst_total_s += t1 - t0
        self._last = t1

    def maybe_burst(self) -> None:
        """Burst if INTERVAL_S has passed since the last one; call it only
        between timed intervals."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.burst()

    def reference_at(self, t: float) -> float:
        """The kernel's median time near ``t`` (the nearest burst's if none
        lies within WINDOW_S)."""
        times = self.burst_times
        lo = bisect.bisect_left(times, t - WINDOW_S)
        hi = bisect.bisect_right(times, t + WINDOW_S)
        if lo < hi:
            return float(np.median(self.burst_s[lo:hi]))
        i = bisect.bisect_left(times, t)
        near = [j for j in (i - 1, i) if 0 <= j < len(times)]
        return self.burst_s[min(near, key=lambda j: abs(times[j] - t))]

    def scale(self, start: float, end: float) -> float:
        """The interval's wall seconds at the reference speed."""
        return (end - start) * REFERENCE_S / self.reference_at(
            (start + end) / 2)
