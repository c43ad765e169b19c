"""A clock that reads in reference units instead of seconds.

The host's speed drifts by a quarter or more within seconds, because
other tenants share its cores, so raw times of the same work spread too
widely to compare two commits.  A :class:`RefClock` samples that speed
while the work runs: every ``PERIOD`` seconds a ``SIGALRM`` handler times
one run of a fixed reference computation, in the same process and on the
same core as the work.  An interval then reads as the number of
reference computations that would have fitted into it: its length, less
the time the samples took, times the mean of 1 / (sample time) over the
samples in and around it.  The mean of the reciprocals integrates the
speed over time, so a slow phase and a fast phase weigh by how long each
lasts.

The clock assumes one thread, and that the work does not use
``SIGALRM`` or ``setitimer`` itself.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.025  # seconds between samples
TERMS = 12  # about 0.5 ms per sample on a 2.x GHz Xeon, 2% of the period


def reference_unit() -> int:
    """The fixed reference computation: the square of a 12-term polynomial
    in two variables held as a dict with Fraction coefficients, the kind of
    work fdpb's ring does.  It touches nothing of fdpb."""
    a = {(i % 3, i): Fraction(i + 1, i % 7 + 1) for i in range(TERMS)}
    out: dict = {}
    for (l1, x1), c1 in a.items():
        for (l2, x2), c2 in a.items():
            key = (l1 + l2, x1 + x2)
            out[key] = out.get(key, 0) + c1 * c2
    return len(out)


def measure_rate() -> float:
    """Reference units per second now: 1 / the time of one reference
    computation, with the garbage collector off so that the heap of the
    work around it does not slow it down."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_unit()
        return 1.0 / (time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()


class RefClock:
    def __init__(self, period: float = PERIOD):
        self.period = period
        # (start, end, rate) per sample: the handler's own span, and 1 / the
        # time of the reference computation inside it
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        rate = measure_rate()
        self.samples.append((start, time.perf_counter(), rate))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def between(self, t0: float, t1: float) -> float:
        """Reference units from ``t0`` to ``t1``, two ``perf_counter()``
        readings taken between ``start`` and ``stop``.

        A sample never straddles a reading, since the handler runs between
        two bytecodes.  The samples that start inside the interval are
        taken out of its length; the rate is their mean together with the
        last sample before the interval and the first after it, so an
        interval shorter than the period still has two.
        """
        starts = [s[0] for s in self.samples]
        i0, i1 = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        spent = sum(end - start for start, end, _ in self.samples[i0:i1])
        rates = [rate for _, _, rate in self.samples[max(i0 - 1, 0):i1 + 1]]
        return (t1 - t0 - spent) * statistics.fmean(rates)

    def spent(self) -> float:
        """Seconds spent in samples since ``start``."""
        return sum(end - start for start, end, _ in self.samples)

    def rate(self) -> float:
        """Mean rate over every sample: reference units per second."""
        return statistics.fmean(rate for _, _, rate in self.samples)
