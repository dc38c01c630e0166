"""Scale wall times to a host of fixed speed.

The benchmark runs on a virtual machine whose host it shares: the speed
of pure-Python code drifts by up to a half within a run.  Around each
job the benchmark times a fixed reference kernel (pure Python, nothing
from galforms) BURST times before and BURST times after, and while the
job runs a timer signal interrupts it every INTERVAL_S to time the
kernel once more, so that a job of seconds is sampled throughout.  The
time spent in the kernel during the job is taken out of its wall time,
and what remains is scaled by REF_KERNEL_S over the median of these
kernel times.  The scaled time is the job's wall time on a host on which
the kernel takes REF_KERNEL_S: a change to galforms moves it, a change
of host speed does not.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 0.0002  # the kernel's time on the reference host
BURST = 16             # kernel runs right before and right after a job
INTERVAL_S = 0.05      # timer period while jobs run


def reference_kernel():
    """A Fraction matrix product, dict updates and integer remainders, the
    operations galforms' hot loops are made of; 0.1-0.25 ms."""
    a = [[Fraction(i * 7 + j, j + 3) for j in range(3)] for i in range(3)]
    b = [[a[j][i] for j in range(3)] for i in range(3)]
    c = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    counts = {}
    for i in range(75):
        counts[(i % 17, i % 5)] = counts.get((i % 17, i % 5), 0) + i * i
    g = 0
    for i in range(1, 50):
        g += (i * 982451653) % (i + 7)
    return c, counts, g


class HostSpeed:
    """Kernel times in the order they were taken, and the total time the
    timer signal has taken from the code it interrupted."""

    def __init__(self):
        self.durations = []
        self.stolen_s = 0.0
        self._busy = False

    def _time_kernel(self):
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.durations.append(t1 - t0)
        return t1

    def burst(self):
        for _ in range(BURST):
            self._time_kernel()

    def sample(self, budget_s):
        """Time the kernel until budget_s has passed."""
        end = perf_counter() + budget_s
        while self._time_kernel() < end:
            pass

    def factor(self, since):
        """REF_KERNEL_S over the median kernel time from sample `since` on."""
        return REF_KERNEL_S / statistics.median(self.durations[since:])

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self._time_kernel()
        self.stolen_s += perf_counter() - t0
        self._busy = False

    def start(self):
        """Time the kernel every INTERVAL_S in a SIGALRM handler."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_s(self):
        return statistics.median(self.durations)
