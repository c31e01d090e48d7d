"""Host-speed calibration, so that timings from a shared host compare.

The cores this benchmark gets are shared with other tenants, and their
speed drifts: one fixed solve repeated for a minute runs in 8.5 ms for some
seconds and in 13.5 ms for the next, and a fixed instance set takes 7 s in
one pass and 11 s in the next.  Both are CPU time as much as wall time, so
it is the core that slows, not the scheduler that takes it away.

A fixed kernel that shares no code with the program (dict and list work in
the interpreter plus small numpy matrix products, the two kinds of work
the program does) is timed every ``INTERVAL_S`` seconds between solves.
Its duration tracks the host's speed.  Over two minutes a fixed solve of
each gated workload ran up to 1.7x slower from one 3 s stretch to another,
while solve time / kernel time stayed within 10% of its median in 36 or
more of the 39 stretches.

Each timing is divided by the host factor at the moment it was taken (the
median of the ``2 * NEIGHBOURS + 1`` kernel runs nearest in time, divided
by ``NOMINAL_S``), which turns it into seconds on a host where the kernel
takes ``NOMINAL_S``.  A change to the program moves its timings and not
the kernel's, so it still shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.015
INTERVAL_S = 0.4
NEIGHBOURS = 2

_MATRIX = np.linspace(-1.0, 1.0, 900).reshape(30, 30) / 30.0


def kernel() -> float:
    """Fixed work: interpreter-bound dict/list updates, then small dense
    matrix products.  Returns a checksum so that nothing is optimized away."""
    table: dict[int, float] = {}
    items: list[float] = []
    for i in range(24000):
        key = i % 211
        table[key] = table.get(key, 0.0) + i * 0.5
        if i % 7 == 0:
            items.append(table[key])
    a = _MATRIX.copy()
    b = np.eye(30)
    for i in range(500):
        b = b @ a + np.eye(30)
        a[i % 30, i % 29] += 1e-3
    return sum(items) + float(b[0, 0])


class HostClock:
    """Kernel timings taken through a run, and the host factor they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def tick(self) -> None:
        """Calibrate if ``INTERVAL_S`` has passed since the last kernel run."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL_S:
            self.calibrate()

    def factor(self, at: float) -> float:
        """Host slowness at time ``at``, relative to the nominal host."""
        i = bisect.bisect_left(self.starts, at)
        lo = max(0, min(i - NEIGHBOURS, len(self.starts) - 2 * NEIGHBOURS - 1))
        near = self.seconds[lo:lo + 2 * NEIGHBOURS + 1]
        return statistics.median(near) / NOMINAL_S

    def scaled(self, seconds: float, at: float) -> float:
        """``seconds`` measured from ``at``, in nominal-host seconds."""
        return seconds / self.factor(at + seconds / 2)
