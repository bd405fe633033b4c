"""Machine-speed normalization of measured times.

On a shared machine the speed of one core drifts: the same job list took
15.9 s in some runs and 22.9 s in others, and within a run the speed can
change by a fifth from one two-second stretch to the next and by half
for tens of milliseconds.  The run therefore times a fixed reference
computation (pure Python set, dict, sort, tuple and Fraction work on a
working set of a few hundred kilobytes, like the library's) every
SAMPLE_PERIOD_S, from a timer
signal that briefly pauses whatever is running, and rescales each measured
interval by REF_NOMINAL_S / (median reference time within WINDOW_S of it).
The pauses are subtracted from the intervals they fall in.  The reference
runs with the garbage collector off, so a library that grows the heap or the
collector's load does not slow the reference and divide its own cost out
(``test_bench.py`` checks this).

Reported times are "normalized seconds": what the job would take on a
machine where the reference takes REF_NOMINAL_S.  A change to the library
moves them; a change in machine speed mostly does not.  Raw wall times are
printed beside them.
"""

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REF_NOMINAL_S = 0.0015
# A period of 0.3 s and a window of 1 s left the median-band jobs of a few
# milliseconds unnormalized against short slow stretches: discrete's
# job_p50_ms spread by 19% between seeds, against 13% with these values
# (interquartile range over median, 10 seeds each).
# Sampling pauses the pass for about 4.5% of its time.
WINDOW_S = 0.3
SAMPLE_PERIOD_S = 0.1
_REF_ROWS = ((3, 1, 4, 1, 5), (9, 2, 6, 5, 3), (5, 8, 9, 7, 9), (3, 2, 3, 8, 4),
             (6, 2, 6, 4, 3))


def _reference_work():
    """Set, dict, sort, tuple and Fraction work over about 2000 points."""
    pts = [(i * 7919 % 1009, i * 104729 % 1013, i % 97) for i in range(2000)]
    members = set(pts)
    hits = sum((p[0] + 1, p[1], p[2]) in members for p in pts)
    pts.sort()
    index = {p: i for i, p in enumerate(pts)}
    total = Fraction(hits + len(index))
    for i in range(12):
        rows = tuple(tuple(a + i * b for a in r) for b, r in enumerate(_REF_ROWS))
        total += Fraction(det(rows), i + 1)
    return total


def reference_seconds():
    """Median time of three back-to-back runs of the reference computation.

    The first run refills the caches after whatever ran before it; the
    median is a warm run, which does not depend on that.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Clock:
    """Reference samples taken through a pass, to rescale the intervals in it.

    As a context manager it samples on entry, every SAMPLE_PERIOD_S from a
    timer signal, and on exit.  `mark()` registers a measured interval;
    `settle()` lists each as (seconds minus the sampling pauses inside it,
    normalized seconds), in the order marked.
    """

    def __init__(self):
        self.samples = []   # (start, reference seconds, pause)
        self.intervals = []
        self._previous = None
        self.sample()

    def sample(self, *_signal_args):
        start = time.perf_counter()
        ref = reference_seconds()
        self.samples.append((start, ref, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def mark(self, start, end):
        self.intervals.append((start, end))

    def settle(self):
        times = [t for t, _, _ in self.samples]
        out = []
        for start, end in self.intervals:
            inside = self.samples[bisect_left(times, start):bisect_right(times, end)]
            seconds = end - start - sum(pause for _, _, pause in inside)
            lo = max(0, bisect_left(times, start - WINDOW_S) - 1)
            hi = bisect_right(times, end + WINDOW_S) + 1
            ref = statistics.median(r for _, r, _ in self.samples[lo:hi])
            out.append((seconds, seconds * REF_NOMINAL_S / ref))
        return out


def det(rows):
    """Bareiss determinant of a square integer matrix.

    The reference computation's kernel, and the benchmark's own determinant
    for checking the library's answers.
    """
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1
