"""Reference work that measures how fast the CPU runs at a given moment.

On a shared host the speed of one CPU swings by up to 1.8x, for seconds to
minutes at a time, and the two CPUs swing independently.  Raw op times then
measure the host more than the program.  The worker therefore runs this fixed
reference work between every two ops and charges each op in reference
milliseconds:

    op reference ms = op seconds * REFERENCE_MS / reference seconds

where reference seconds is the mean of the reference work's time just before
and just after the op.  On an idle host (`nproc` = 2, Python 3.11.7) the
reference work takes about REFERENCE_MS, so a reference millisecond is about a
millisecond there.

The reference work resembles what dglcalc spends its time on (exact rational
row reduction, dicts keyed by tuples of letters, sorting) but uses only the
standard library, so no change to dglcalc can change its speed.  It runs with
the garbage collector off, so a larger dglcalc heap cannot slow it either.
"""
from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

REFERENCE_MS = 2.0

_rng = random.Random(20260401)
_MATRIX = [[_rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(9)] for _ in range(8)]
_WORDS = [tuple(_rng.randrange(4) for _ in range(_rng.randrange(2, 6))) for _ in range(40)]


def _rank(rows) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        rows[rank] = [x / p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _brackets() -> list:
    acc = {}
    for a in _WORDS[:20]:
        for b in _WORDS[20:]:
            acc[a + b] = acc.get(a + b, 0) + 1
            acc[b + a] = acc.get(b + a, 0) - 1
    return sorted(k for k, v in acc.items() if v)


def _once() -> float:
    start = time.perf_counter()
    _rank(_MATRIX)
    _brackets()
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Time of the reference work: the faster of two runs, garbage collector off.

    The first run also refills the caches an op may have evicted.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_once(), _once())
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times one call at a time in wall seconds and in reference milliseconds.

    The reference work runs before and after the call and, with `interval`
    set, from a SIGALRM handler `interval` seconds after the call starts and
    after each sample.  The handler's own time is taken out of the call's
    time.  Each stretch of the call between two samples is charged at the mean
    speed of its two ends, so an op that straddles a slow and a fast phase is
    charged for each in turn.
    """

    def __init__(self, interval: float | None = None):
        self.interval = interval
        self.last = reference_seconds()
        self._samples = []
        self._paused = 0.0
        self._active = False

    def _sample(self, *_):
        if not self._active:
            return
        start = time.perf_counter()
        ref = reference_seconds()
        self._samples.append((start - self._paused, ref))
        self._paused += time.perf_counter() - start
        # one-shot timer, re-armed here, so the handler can never nest
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def call(self, fn, *args):
        """(fn's result, wall seconds, reference ms) of one call of fn."""
        before = self.last
        self._samples, self._paused = [], 0.0
        self._active = True
        start = time.perf_counter()
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            result = fn(*args)
        finally:
            self._active = False
            end = time.perf_counter()
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.last = reference_seconds()
        wall = end - start - self._paused
        points = [(0.0, before)]
        points += [(t - start, ref) for t, ref in self._samples]
        points.append((wall, self.last))
        units = sum((t1 - t0) * (1 / r0 + 1 / r1) / 2
                    for (t0, r0), (t1, r1) in zip(points, points[1:]))
        return result, wall, units * REFERENCE_MS
