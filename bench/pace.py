"""Job time in units of the machine's speed at the moment.

On a shared host the speed of one core drifts: the same job can take
anywhere from 4 to 8 seconds, and a fixed loop of plain Python slows
down with it.  A ``Pacer`` times such a fixed loop (``reference_loop``,
about 1 ms on a 2-core Xeon) every ``EVERY_S`` seconds of a job, from
a timer signal, so the loop runs between two bytecodes of whatever the
job is doing.  It turns the job's timeline into two clocks that both
leave out the time spent in the loop:

* ``seconds(t0, t1)``: the job's own wall time between t0 and t1;
* ``refs(t0, t1)``: the same time, with each stretch between two loops
  divided by the loop's duration around it, i.e. the number of
  reference loops the machine could have run in the meantime.

A program change moves ``refs`` as it moves ``seconds``, because the
loop does not touch the package; host drift moves both the job and the
loop, so it largely cancels in ``refs``.  The loop only does integer
arithmetic: it allocates no container, so it neither triggers nor
delays a garbage collection, and it leaves the job's memory use (and
its peak) as it was.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

EVERY_S = 0.05


def reference_loop() -> int:
    total = 0
    for i in range(8000):
        total = (total * 31 + i * 7919) % 1000003
    return total


class Pacer:
    """Context manager around one job.  With ``every_s=None`` the loop
    is timed only at entry and exit, and ``seconds`` is plain wall
    time."""

    def __init__(self, every_s: float | None = EVERY_S):
        self.every_s = every_s
        self.marks: list[tuple[float, float]] = []  # start and end of each timed loop

    def _time_loop(self, *_signal) -> None:
        start = time.perf_counter()
        reference_loop()
        self.marks.append((start, time.perf_counter()))

    def __enter__(self) -> Pacer:
        for _ in range(3):  # warm the loop up
            reference_loop()
        self._time_loop()
        if self.every_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._time_loop)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.every_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._time_loop()
        # stretch i runs from the end of loop i to the start of loop i+1;
        # the speed over it is the median duration of loops i-1 .. i+2
        durations = [end - start for start, end in self.marks]
        self._starts = [end for _, end in self.marks[:-1]]
        self._ends = [start for start, _ in self.marks[1:]]
        self._ref = [statistics.median(durations[max(i - 1, 0) : i + 3]) for i in range(len(self._starts))]
        self._cum_s, self._cum_refs = [0.0], [0.0]
        for start, end, ref in zip(self._starts, self._ends, self._ref):
            self._cum_s.append(self._cum_s[-1] + end - start)
            self._cum_refs.append(self._cum_refs[-1] + (end - start) / ref)

    @property
    def loops(self) -> int:
        return len(self.marks)

    def _clock(self, t: float, in_refs: bool) -> float:
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        within = max(min(t, self._ends[i]) - self._starts[i], 0.0)
        if in_refs:
            return self._cum_refs[i] + within / self._ref[i]
        return self._cum_s[i] + within

    def seconds(self, t0: float, t1: float) -> float:
        return self._clock(t1, False) - self._clock(t0, False)

    def refs(self, t0: float, t1: float) -> float:
        return self._clock(t1, True) - self._clock(t0, True)
