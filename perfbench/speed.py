"""The host's speed, sampled every few milliseconds of a worker's life.

On the shared 2-core host the benchmark was tuned on, the same pure-Python
loop runs at speeds that differ by up to 1.7x, in phases of a few seconds to
several minutes, with no steal time shown; a median over one run cannot
remove phases that long.  So while a worker runs, SIGALRM times a fixed
loop every ``INTERVAL_S``, and ``REFERENCE_S`` divided by the loop's time is
the host's relative speed at that moment.  A measured time multiplied by the
mean relative speed over its interval is the time the same work takes at the
reference speed, which is what the end-to-end timings report.

The probe shares the process but not the program's data; its own time (under
1 % of a pass) is inside every timing, at every speed alike.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.005
LOOPS = 300
# Time of the loop on that host (2-core Intel Xeon, Python 3.11.7) when it
# runs at full speed; it only sets the scale of the reported times.
REFERENCE_S = 25e-6


class Sampler:
    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []

    def sample(self, *_signal) -> None:
        clock = time.perf_counter
        t0 = clock()
        x = 0
        for k in range(LOOPS):
            x += k * k
        self.times.append(t0)
        self.speeds.append(REFERENCE_S / (clock() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, t0: float, t1: float) -> float:
        """Mean relative speed from ``t0`` to ``t1`` (``time.perf_counter``),
        widened by one interval on each side so that a span shorter than an
        interval takes its neighbouring samples."""
        lo = bisect_left(self.times, t0 - INTERVAL_S)
        hi = bisect_right(self.times, t1 + INTERVAL_S)
        window = self.speeds[lo:hi] or self.speeds[max(lo - 1, 0) : lo + 1]
        return sum(window) / len(window)
