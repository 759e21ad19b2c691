"""Machine-speed sampling, so timings survive a CPU whose speed changes.

On shared machines the CPU a process runs on can slow down by 1.5-2x for
stretches of a fraction of a second to minutes (other tenants on the same
core), while the process keeps the CPU the whole time.  ``SpeedProbe`` runs
a small fixed reference loop in a SIGALRM handler every ``INTERVAL_S``
seconds of the main thread, and keeps each run's duration.  A timed interval
is then converted to *reference seconds*: its busy time (without the
handler's own time) times the mean of ``REF_LOOP_S / duration`` over the
samples inside it.  A reference second is the time a CPU that runs the
reference loop in ``REF_LOOP_S`` needs for the same work.

The reference loop is small numpy calls plus interpreter work, like
contreg's step kernel, so both slow down by about the same factor.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.03
INITIAL_SAMPLES = 5  # so that intervals timed before the first tick have neighbours
# About the reference loop's duration on a 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31 on one thread) at its fastest; it only scales
# the reported numbers.
REF_LOOP_S = 6.0e-4

_B = np.ones(20)


def reference_loop():
    s = 0.0
    for i in range(40):
        y = np.linalg.solve(np.eye(20) * (1.0 + 1e-3 * i) + 1e-3, _B)
        s += float(y @ y)
    return s


class SpeedProbe:
    """Samples the reference loop's duration while in a ``with`` block."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None
        self._sampling = False

    def __enter__(self):
        for _ in range(INITIAL_SAMPLES):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        if self._sampling:  # a tick during a slow sample: skip, keep starts sorted
            return
        self._sampling = True
        try:
            t = perf_counter()
            reference_loop()
            self.starts.append(t)
            self.durations.append(perf_counter() - t)
        finally:
            self._sampling = False

    def speed(self, t0, t1):
        """Mean of REF_LOOP_S / duration over the samples taken in [t0, t1].

        An interval shorter than the timer's uses its nearest samples.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        near = self.durations[lo:hi] or self.durations[max(0, lo - 2):lo + 2]
        return float(np.mean([REF_LOOP_S / d for d in near]))

    def reference_seconds(self, t0, t1):
        """Work done in the wall interval [t0, t1], in reference seconds."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        return busy * self.speed(t0, t1)
