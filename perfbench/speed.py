"""Time measured in units of the CPU's speed at the moment.

On a shared VM the speed of one vCPU swings by up to 1.8x, from one second to
many minutes, with the guest's CPU time inflated as much as its wall time (a
fixed loop reads 22 ms and 38 ms in turn).  A run that happens to fall in a
slow spell then reads slow however many repeats it takes.

``SpeedSampler`` runs a small fixed calibration kernel from an interval
timer every ``PERIOD_S`` of wall time, and keeps each sample's start and
duration.  The kernel is half a pure-Python float loop and half small numpy
calls with dict building, because the engine's slowdown in the slow spells
lies between theirs: alone, the numpy half slowed 1.65x where ``ring_nav``
slowed 1.5x, and the float loop 1.45x where ``dungeon_point`` slowed 1.8x.

``scaled(t0, t1)`` turns the interval [t0, t1] into reference seconds: its
length, minus the sampler's own time inside it, times ``REF_KERNEL_S`` over
the median kernel time sampled inside it.  That is the time the interval
would have taken on a CPU on which the kernel takes ``REF_KERNEL_S`` (1 ms;
on the 2-vCPU VM the benchmark was written on the kernel took about
0.6 ms in fast spells and 1.1 ms in slow ones).  The kernel is the benchmark's
own code, so a change to the engine cannot speed it up or slow it down.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.025
REF_KERNEL_S = 1e-3
_VEC = np.arange(64, dtype=float)


def kernel() -> float:
    """Fixed work: a pure-Python float loop, then small numpy calls and dicts."""
    total = 0.0
    for i in range(2500):
        total += (i * 0.5) ** 0.5 - total * 1e-9
    for i in range(75):
        total += float(np.sqrt(_VEC * 0.5 + i).sum())
        d = {}
        for j in range(20):
            d[j] = j * i
        total += len(d)
    return total


class SpeedSampler:
    """Samples the kernel's time from SIGALRM while active (a context manager)."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts, self.durations = array("d"), array("d")
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:  # a tick that lands inside the handler is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds for the wall interval [t0, t1] (perf_counter)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        # an interval shorter than the period borrows its neighbours' speed
        speed = inside or self.durations[max(lo - 1, 0):lo + 1]
        if not speed:
            raise RuntimeError("no speed sample: the sampler is not running")
        return (t1 - t0 - sum(inside)) * REF_KERNEL_S / statistics.median(speed)
