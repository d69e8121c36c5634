"""Host speed correction for the benchmark's timings.

On a shared virtual machine the speed of the same pure-Python work switches
between levels (on a 2-CPU host, levels up to 1.7x apart, held from a fraction
of a second to tens of seconds).  A run that lands on the slow level would
read as a regression of the program.  While ``HostSpeed`` is running, an
interval timer interrupts the process every ``SAMPLE_EVERY_S`` and times a
small fixed piece of pure-Python work that does not touch ``probedepth``
(dict, tuple and frozenset operations, as the library's search does).

``corrected(start, end)`` turns a wall interval into seconds on a reference
host, on which the calibration work takes ``REFERENCE_S``: the interval,
less the time spent sampling inside it, times the mean of ``REFERENCE_S /
cost`` over the samples inside it and the one on each side.  Each sample's
cost is first replaced by the median of the ``SMOOTHING`` samples around
it: a sample the host pre-empted would otherwise scale down every answer
next to it, while a level, which holds for many samples, passes the median
unchanged.  A change that makes the program do more or less work moves a
corrected time as it moves wall time, while the host's level cancels out.
The raw wall times stay in the run's record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.02
REFERENCE_S = 0.00025  # the calibration work's cost on the reference host
SMOOTHING = 5  # samples in the running median of the costs


def calibration_work() -> int:
    """Fixed work, independent of the program under test."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(500):
        key = (i & 31, i >> 5)
        counts[key] = counts.get(key, 0) + 1
        acc += len(frozenset((i, i + 1, i & 7)))
    return acc + len(counts)


class HostSpeed:
    def __init__(self):
        self.ends: list[float] = []  # perf_counter when each sample ended
        self.costs: list[float] = []  # seconds each sample's work took
        self.levels: list[float] = []  # running median of ``costs``, set by ``stop``

    def sample(self, *_signal):
        """Time the calibration work once its code and data are in cache: a
        first, untimed run warms them after the interrupted work evicted
        them, which on a busy host slows a cold run more than it slows the
        program."""
        calibration_work()
        start = time.perf_counter()
        calibration_work()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self):
        """Sample now and then every ``SAMPLE_EVERY_S`` until ``stop``."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        half = SMOOTHING // 2
        self.levels = [statistics.median(self.costs[max(i - half, 0):i + half + 1])
                       for i in range(len(self.costs))]

    def corrected(self, start: float, end: float) -> float:
        """Seconds on the reference host for the wall interval [start, end]."""
        first = max(bisect.bisect_left(self.ends, start) - 1, 0)
        last = min(bisect.bisect_left(self.ends, end), len(self.ends) - 1)
        # sampling that ended within the interval, warm-up included
        inside = [2 * cost for cost in self.costs[first + 1:last]]
        speeds = [REFERENCE_S / level for level in self.levels[first:last + 1]]
        return (end - start - sum(inside)) * sum(speeds) / len(speeds)
