"""Machine-speed reference: a fixed loop timed next to every operation.

The benchmark runs on virtual CPUs of a shared host, and their speed is not
steady: as other guests come and go, a CPU runs the same code up to 1.6 times
faster for spells of one to tens of seconds, so no run length averages it
out.  So the loop below is timed after every operation and, from a SIGALRM
timer, every TICK_S during it, and each operation's time is scaled by how
fast the loop ran around it:

    scaled = measured * NOMINAL_S / median(loop times within WINDOW_S of the op)

The loop is plain Python and small numpy calls and never touches chancekit,
so a change to chancekit cannot move it; a change in the host's speed moves
both.  NOMINAL_S is the loop's median time in the first baseline's runs, on
a 2-vCPU Intel Xeon with Python 3.11 and numpy 2.4, so scaled times read as
that machine's seconds at its usual speed.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NOMINAL_S = 0.5e-3
WINDOW_S = 0.25  # loop times this close to an operation describe its speed
TICK_S = 0.05  # period of the loop during an operation
_A = np.arange(64.0).reshape(8, 8)


def reference_loop() -> float:
    total = 0
    seen: dict[int, int] = {}
    for i in range(1750):
        total += i * i % 7
        seen[i & 63] = total
    x = 0.0
    for i in range(18):
        x += float((_A * i).sum(axis=0).max() + np.log1p(_A).mean())
    return total + x


class Speed:
    """Loop times in time order, and the scale factor for an interval."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each loop, perf_counter seconds
        self.seconds: list[float] = []

    def sample(self) -> float:
        """Run the loop twice and time the second run, so that what the
        interrupted code left in the caches is not counted; return the
        seconds it took."""
        reference_loop()
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self.times.append((start + end) / 2.0)
        self.seconds.append(end - start)
        return end - start

    @contextmanager
    def ticking(self):
        """Time the loop every TICK_S while the block runs.  Yields a list
        of the seconds those loops took, for the caller to subtract from the
        block's time.  The loop runs in this process, on the CPU it shares
        with any child the block waits for."""
        spent: list[float] = []

        def tick(signum, frame) -> None:
            spent.append(self.sample())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median loop time within WINDOW_S of
        [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no reference loop near the interval")
        return NOMINAL_S / float(np.median(self.seconds[lo:hi]))

    def median_s(self) -> float:
        return float(np.median(self.seconds))
