"""The reference kernel that every reported time is normalised by.

The kernel is fixed pure-Python bytecode: a loop of small-integer
arithmetic and branches. Every integer it makes lies in CPython's cache
of small ints and the loop runs over ``itertools.repeat``, so it
allocates nothing but its loop iterator, no container at all, and
nothing the program does to its heap can change its speed. It never
imports finsite.

One kernel sample is the fastest of REPEATS runs of ITERATIONS loop
steps, which drops the odd interrupt but keeps a slow phase of the
machine. ``SpeedProbe.measure`` takes a sample right before and right
after a measured interval and, from a SIGPROF timer in the same thread,
every PERIOD_S of CPU time inside it. Each stretch between two samples
is scaled by NOMINAL_S over the mean of the samples at its ends, and
the stretches are summed: seconds at reference speed. For an interval
with no sample inside, this is exactly interval * NOMINAL_S / (mean of
the two bracketing samples). The in-interval samples are there because
the shared 2-core machine of the reference figures switches between a
fast and a 1.6x slower phase every few seconds, often in the middle of a
long command; the time spent taking them is left out of the interval.
"""

from __future__ import annotations

import signal
import time
from itertools import repeat
from typing import NamedTuple

ITERATIONS = 1500
REPEATS = 3
PERIOD_S = 0.05

# A fast-phase kernel sample on the 2-core machine the reference figures
# in README.md were taken on. Changing it rescales every reported time.
NOMINAL_S = 0.00015

clock = time.perf_counter


def kernel(iterations: int = ITERATIONS) -> int:
    a, b, c = 1, 2, 3
    for _ in repeat(None, iterations):
        a = (a + b) & 127
        b = (b ^ c) & 127
        c = (c + a) & 63
        if a > b:
            a, b = b, a
    return a + b + c


def sample() -> float:
    """Seconds of one kernel sample: the fastest of REPEATS runs."""
    best = None
    for _ in repeat(None, REPEATS):
        t0 = clock()
        kernel()
        dt = clock() - t0
        if best is None or dt < best:
            best = dt
    return best


class Interval(NamedTuple):
    raw_s: float       # wall seconds, sampling time left out
    s: float           # seconds at reference speed
    kernel_before: float
    kernel_after: float
    inner_samples: int
    sampling_s: float  # time spent taking the inner samples


class SpeedProbe:
    """Measures intervals at reference speed; see the module docstring."""

    def __init__(self):
        self.last = None   # the sample after the previous interval
        self.inner = []    # (time taken, kernel seconds, seconds spent sampling)

    def _on_signal(self, signum, frame):
        t0 = clock()
        k = sample()
        self.inner.append((t0, k, clock() - t0))

    def measure(self, fn):
        """Run fn(); return its result and the Interval it took."""
        if self.last is None:
            self.last = sample()
        before = self.last
        self.inner = []
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            t0 = clock()
            result = fn()
            t1 = clock()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        after = sample()
        self.last = after
        points = [(t0, before, 0.0)] + self.inner + [(t1, after, 0.0)]
        raw = norm = 0.0
        for (ta, ka, spent), (tb, kb, _) in zip(points, points[1:]):
            dt = tb - (ta + spent)
            raw += dt
            norm += dt * NOMINAL_S / ((ka + kb) / 2)
        spent = sum(p[2] for p in self.inner)
        return result, Interval(raw, norm, before, after, len(self.inner), spent)
