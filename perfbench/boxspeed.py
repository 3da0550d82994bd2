"""The box's speed, sampled while a run goes on, and times scaled to one speed.

The benchmark gets a few cores of a shared host, and the same work takes
from 1x to 1.5x as long from one second to the next: on a 2-core slot a
fixed pure-Python loop took between 15 and 34 ms within two minutes, and
a 0.3-s `induct 17` moved with it (correlation 0.65).  Run totals cannot
average that out in the half minute a run has: the middle half of ten
30-s runs of one version spread by 0.16 to 0.29 of their median.

So while a run goes on, a wall-clock timer interrupts it every INTERVAL_S
and times `chunk`, a fixed pure-Python loop that shares nothing with the
package.  A job's scaled time is its wall time times REFERENCE_S over the
median chunk time sampled from WINDOW_S before the job to WINDOW_S after
it: the time the job would have taken on a box where the chunk takes
REFERENCE_S.  Offline, dividing each 0.3-s chunk of `induct 17` by the
chunk time sampled next to it cut the spread of 30-s averages from 0.20
to 0.04.  The handler's own time is not counted in any job.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
WINDOW_S = 0.5
REFERENCE_S = 0.002  # the chunk's time on the reference box


def chunk() -> int:
    """About 2 ms of integer arithmetic in the interpreter loop."""
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


class SpeedProbe:
    """Times `chunk` every INTERVAL_S of wall time while it is open."""

    def __init__(self):
        self.at: list[float] = []  # when each sample started
        self.chunk_s: list[float] = []  # how long its chunk took
        self.spent = 0.0  # total time inside the handler
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        chunk()
        end = time.perf_counter()
        self.at.append(start)
        self.chunk_s.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.sample()  # so that even a run shorter than INTERVAL_S has one
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds` of work done between `start` and `end`, at reference speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # the timer was starved; take the next sample, or the last
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return seconds * REFERENCE_S / statistics.median(self.chunk_s[lo:hi])
