"""Machine speed from a fixed reference kernel, to steady the timings.

The benchmark shares a host whose speed drifts by up to a factor two,
both from minute to minute and within a second: on a 2-vCPU x86_64
sandbox the same cubify call on the same matrix took 0.16 s in one
ten-second window and 0.31 s in another.  A fixed pure-Python kernel,
sampled every INTERVAL_S inside each timed call (from a SIGALRM handler)
and once after it, slows down with the host.  A call's time is its wall
time, less the time the samples inside it took, scaled by REFERENCE_S
over the mean kernel time of the samples that cover it: the time the
call takes on this host at the speed where the kernel takes REFERENCE_S,
about its unloaded speed.  These are the benchmark's reference seconds.
On that sandbox, 13 repeats of cubify on each of six fixed 20x20
matrices varied by 13-21 % (coefficient of variation) in wall time, by
14-20 % when scaled by samples taken only before and after each call,
and by 4-6 % when scaled by the samples inside it.

The kernel uses only the standard library and the data below, so no
change to the package under test can move it.  It has two parts, timed
apart: exact Fraction elimination on small integers, which is mostly
interpreted code, and the same on 300-digit integers, which is mostly
big-integer arithmetic in C.  The drift slows interpreted code far more
than big-integer arithmetic, so a call is scaled by the sum of both parts
("mixed", right for the reducers on small entries and for cubify on big
ones) or by the big-integer part alone ("bigint", right for LLL on big
entries, whose Fractions grow to thousands of bits).
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

#: the kernel times, in seconds, that define one reference second: about
#: the medians of kernel_s() on the sandbox above in its faster minutes
REFERENCE_S = {"mixed": 0.0035, "bigint": 0.0011}
#: seconds between kernel samples inside a timed call; a sample takes
#: about 4 ms, so sampling adds under a tenth to a call's wall time
INTERVAL_S = 0.05

_RNG = random.Random(20210113)
_SMALL = [[_RNG.randint(-100, 100) for _ in range(8)] for _ in range(8)]
_BIG = [[_RNG.randrange(10 ** 299, 10 ** 300) for _ in range(4)] for _ in range(4)]


def _eliminate(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    for k in range(n):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return m


def kernel_s():
    """(small-integer, big-integer) wall seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    _eliminate(_SMALL)
    _eliminate(_SMALL)
    t1 = time.perf_counter()
    _eliminate(_BIG)
    return t1 - t0, time.perf_counter() - t1


def _reference(kernel, sample):
    small, big = sample
    return small + big if kernel == "mixed" else big


class Clock:
    """Times calls in wall and in reference seconds.

    kernels maps a call's name to the kernel that scales it, "mixed" when
    not named.  samples holds every kernel_s() taken, in order; the first
    is taken when the clock is made.
    """

    def __init__(self, kernels=None):
        self.kernels = dict(kernels or {})
        self.samples = [kernel_s()]
        self._inner = None      # samples inside the call being timed
        self._spent = 0.0       # seconds those samples took

    def _sample(self, signum, frame):
        inner = self._inner
        if inner is None:       # no call is timed, or a sample is running
            return
        self._inner = None
        t0 = time.perf_counter()
        inner.append(kernel_s())
        self._spent += time.perf_counter() - t0
        self._inner = inner

    def _scaled(self, name, wall, samples):
        kernel = self.kernels.get(name, "mixed")
        mean = statistics.fmean(_reference(kernel, s) for s in samples)
        return wall * REFERENCE_S[kernel] / mean

    def call(self, name, fn, *args):
        """(fn(*args), wall seconds, reference seconds).

        Wall seconds leave out the kernel samples taken inside the call.
        """
        before = self.samples[-1]
        self._inner, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            inner, self._inner = self._inner, None
        wall -= self._spent
        self.samples.extend(inner)
        self.samples.append(kernel_s())
        return out, wall, self._scaled(name, wall, [before, *inner, self.samples[-1]])

    def scale(self, name, wall):
        """Wall seconds of call name, timed elsewhere, in reference seconds.

        Samples the kernel once more and scales by the mean of that sample
        and the one before, which bracket the timed stretch; the traced
        replay uses this, so that no sample lands inside a span.
        """
        before = self.samples[-1]
        self.samples.append(kernel_s())
        return self._scaled(name, wall, [before, self.samples[-1]])

    def medians(self):
        """{kernel: median seconds} over the samples taken."""
        return {k: statistics.median(_reference(k, s) for s in self.samples)
                for k in REFERENCE_S}
