"""Machine-speed reference for normalizing times.

On a shared machine the same code runs up to 1.6x slower while other
tenants load the host.  The machine flips between a fast and a slow state
within a fraction of a second, and the share of time spent slow drifts over
minutes, which moves every time of a run alike.  A run therefore also times
a short reference job from a SIGALRM timer every PERIOD seconds, also while
an op runs: small complex matrix decompositions and products plus plain
Python work, the mix cstarlab spends its time on.  The job does not use
cstarlab, so a change to the library cannot move it.

The time the timer takes is subtracted from every measured interval, and an
interval's time at reference speed is its raw time multiplied by
REFERENCE_S / (mean reference time of the samples in and around it).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

# Median time of one reference job on an idle 2-CPU x86 box (Intel Xeon,
# Python 3.11, numpy 2.4 with one OpenBLAS thread).  A fixed constant: it
# sets the unit of the normalized times, so it must never change.
REFERENCE_S = 0.002

PERIOD = 0.05     # seconds between reference jobs (about 4% of the time)
PAD = 0.25        # an interval also uses the samples this close to it
MIN_SAMPLES = 4   # ... and at least this many samples nearest to it

_rng = np.random.default_rng(20091026)
_MATS = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
         for n in (4, 4, 6, 6, 8, 8, 12)]


def reference_job() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for m in _MATS:
        h = m + m.conj().T
        for _ in range(4):
            s = np.linalg.svd(m, compute_uv=False)
            w, v = np.linalg.eigh(h)
            x = (v * w) @ v.conj().T - h
            acc += float(s[0]) + float(np.abs(x).max())
            for i in range(40):
                table[i % 13] = table.get(i % 13, 0.0) + acc * 1e-9 + i
    return acc + sum(table.values())


class SpeedMeter:
    """Runs the reference job from a timer while installed (a context
    manager).  The main thread runs it between bytecodes, never inside a
    numpy call, so the measured program's results do not change."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self._ticking = False

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # a tick due while a slow tick runs is skipped
            return
        self._ticking = True
        t0 = time.perf_counter()
        reference_job()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)
        self._ticking = False

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # shorter than one period: sample once now
            self._tick(signal.SIGALRM, None)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] the reference job took."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.times[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """Raw seconds of [t0, t1] times this give seconds at reference
        speed."""
        lo = bisect.bisect_left(self.starts, t0 - PAD)
        hi = bisect.bisect_left(self.starts, t1 + PAD)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2.0)
            lo = max(0, min(mid - MIN_SAMPLES // 2,
                            len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])
