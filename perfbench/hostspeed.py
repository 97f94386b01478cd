"""Host speed: a fixed pure-Python loop, timed again and again during a run.

The benchmark runs on a few cores of a shared host whose speed drifts.  The
same pass can take 1.5x as long one minute as the next, in CPU time as well
as in wall time, so the drift is the host's and not this process's.  To see
the program's own changes through it, every timing is scaled to a reference
speed by the time of this loop, measured while the work runs:

    adjusted = measured * REF_S / loop time

REF_S is about the loop's mean time on the baseline host (2 vCPUs of a
2.1 GHz Xeon, Python 3.11) in its usual state, so an adjusted time reads
about as a wall time there.  On that host the loop's median time moved
between about 1.4 and 2.5 ms from one run to the next.
The loop uses only Python builtins and the standard library, so a change
to the program cannot move it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REF_S = 0.0024
INTERVAL_S = 0.05


def loop_s() -> float:
    """Seconds one run of the fixed loop takes now."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(1, i % 97 + 1)
        table[i % 61] = table.get(i % 61, 0) + i * i
    sorted(table.items(), key=lambda kv: -kv[1])
    return time.perf_counter() - t0


class Sampler:
    """Times the loop every INTERVAL_S of real time while a block runs.

    A SIGALRM handler runs the loop between bytecodes of the main thread,
    so the samples are spread evenly over the block.  One more sample is
    taken just before the block, so a block shorter than the interval has
    one too.  After the block, ``elapsed`` is its time, ``busy`` that time
    without the loop's own, ``scale`` is REF_S over the samples' mean loop
    time and ``adjusted`` is ``busy * scale``.  The mean loop time, not the
    mean speed: a sample that the host stalled part-way stands for the
    stalls the block met too.  Use from the main thread only.
    """

    def __enter__(self) -> "Sampler":
        self.samples = [loop_s()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        self.samples.append(loop_s())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.busy = self.elapsed - sum(self.samples[1:])
        self.scale = REF_S * len(self.samples) / sum(self.samples)
        self.adjusted = self.busy * self.scale
