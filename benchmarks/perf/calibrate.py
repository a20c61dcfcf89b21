"""Host-speed calibration.

The hosts this benchmark runs on are small shared VMs whose speed is not a
constant: the same workload at the same seed was measured up to 1.9x apart
between one minute and the next, in phases that last from seconds to minutes
and slow pure user-mode code (no steal, no page faults, no system time to see).
A run on a commit and a run on its parent land in different phases, and no
bound holds.

So every run times a fixed kernel next to its workload and the harness scales
its wall-clock times by ``NOMINAL_S / kernel time``: seconds on a host that
runs the kernel in exactly ``NOMINAL_S``.  The kernel does the three things
``repro`` spends its time on: interpreter work on short-lived small objects,
NumPy passes over a few megabytes, and interpreter work that chases pointers
through more objects than the caches hold, as the per-packet path does through
its flows.  The slow phases hit the last kind hardest: ``pressure-replay``
ran 1.6x slower in one where a kernel without it ran 1.25x slower.  The
kernel is part of the benchmark, never of the program, so a change to
``repro`` cannot move it.  The raw seconds and the factor are recorded next to
every scaled number.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np

#: Kernel time that maps to a factor of 1: what it takes on a quiet 2-core VM
#: of the kind the benchmark was sized on.
NOMINAL_S = 0.025

#: Seconds between two kernel runs while :meth:`Calibrator.sampling` is on.
SAMPLE_EVERY_S = 0.5


class _Flow:
    __slots__ = ("key", "count")

    def __init__(self, key: int, count: int) -> None:
        self.key = key
        self.count = count


class Calibrator:
    """Times the calibration kernel; one per run (it owns the kernel's inputs)."""

    def __init__(self) -> None:
        self._ints = np.arange(150_000, dtype=np.int64)
        self._floats = np.linspace(0.0, 1.0, 150_000)
        # ~25 MB of objects, visited in an order the prefetcher cannot guess.
        self._flows = [_Flow(i, 0) for i in range(300_000)]
        self._visits = np.random.default_rng(0).permutation(300_000)[:20_000].tolist()
        #: Seconds :meth:`sampling` has taken from the program so far.
        self.stolen_s = 0.0
        self._samples: list[tuple[float, float]] = []
        self._sampling = self._due = False

    def clock(self) -> float:
        """``time.perf_counter()`` less the time sampling took: the program's clock."""
        return time.perf_counter() - self.stolen_s

    def kernel(self) -> float:
        """Run the kernel once (~25 ms) and return the seconds it took."""
        started = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(15_000):
            flow = _Flow(i & 255, i)
            table[flow.key] = table.get(flow.key, 0) + flow.count
            total += len(table)
        ints, floats = self._ints, self._floats
        mixed = np.sort(np.cumsum(ints) ^ 12345)
        mixed[ints[::-1] % mixed.size][::3].sum()
        (floats * floats + floats).argsort()
        flows = self._flows
        for i in self._visits:
            flow = flows[i]
            flow.count += 1
            table[flow.key] = flow.count
        return time.perf_counter() - started

    @contextlib.contextmanager
    def sampling(self, *, deferred: bool = False):
        """Time the kernel now and every ``SAMPLE_EVERY_S`` of the block.

        Yields the list the samples go to, each ``(when, kernel seconds)``.
        An interval timer interrupts the main thread wherever the program is,
        so a unit that takes twelve seconds is sampled through all of them.
        (Bursts at the two ends of a window say little about its middle:
        over ten seeds, unit times scaled by end bursts spread 0.11-0.24
        across the six workloads, scaled by samples from inside 0.07-0.17.)
        What the kernel takes is added to ``stolen_s``, so :meth:`clock` does
        not count it.  Main thread only; worker processes inherit no timer.

        ``deferred`` is for a program that runs worker processes: next to
        them the kernel would time how busy the program keeps the cores, not
        the host, so a tick waits for the next :meth:`checkpoint`.
        """

        def tick(signum, frame) -> None:
            if deferred:
                self._due = True
            elif not self._sampling:  # a kernel can be so slow that the next tick is due
                self._sample()

        self._samples = samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._due = False

    def checkpoint(self) -> None:
        """Between two units: take the sample a deferred tick asked for."""
        if self._due:
            self._due = False
            self._sample()

    def _sample(self) -> None:
        self._sampling = True
        started = time.perf_counter()
        self._samples.append((started, self.kernel()))
        self.stolen_s += time.perf_counter() - started
        self._sampling = False


def slowdown(
    samples: list[tuple[float, float]], start: float = -math.inf, end: float = math.inf
) -> float:
    """How much slower than nominal the host ran from ``start`` to ``end``.

    Taken from the samples inside the interval and the nearest two on either
    side.  The host's speed also jitters by +-20% from one tenth of a second
    to the next; the median of a few samples is steady to a few percent.
    """
    stamps = [stamp for stamp, _ in samples]
    first = max(bisect.bisect_left(stamps, start) - 2, 0)
    last = bisect.bisect_right(stamps, end) + 2
    return statistics.median(seconds for _, seconds in samples[first:last]) / NOMINAL_S
