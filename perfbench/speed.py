"""Machine-speed calibration, so that timings from a shared machine compare.

On a machine shared with other tenants the same pure-Python work can take
anywhere from 1.0 to 1.9 times its best time, changing over seconds, while
the ratio of two such pieces of work measured side by side stays within a
few percent.  So the workers interleave a fixed calibration kernel with
the measured operations, and every timing is scaled by

    REFERENCE_S / (mean kernel time around that operation)

to the time it would take when the kernel takes REFERENCE_S.  The kernel
does the kinds of work sytkit does, on fixed inputs, but is written here
and in gates.py, so a change to the library's code does not change the
kernel.  It runs in the worker's process, though, beside the library's
heap and caches (inside long operations from a SIGALRM handler), so a
change to the library's memory footprint may move the scale and partly
hide its own effect.  That is not ruled out, so raw times and the scale
are reported next to the scaled times.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time

import gates

# the kernel's best time on a 2-core x86-64 VM with Python 3.11.7; any
# fixed value works, this one makes scaled times read as seconds on that
# machine when nothing else runs on it
REFERENCE_S = 0.00073
# an operation's scale comes from the kernel samples taken during it and
# within its own length of it, at most WINDOW_S: a millisecond check is
# compared with the samples right beside it, which share its bursts of
# load, and a long sweep with a second on either side, which averages out
# the sample-to-sample noise it does not share
WINDOW_S = 1.0
MIN_SAMPLES = 6
SAMPLE_EVERY_S = 0.1  # inside long operations

_WORDS = [tuple(random.Random(i).sample(range(1, 9), 8)) for i in range(80)]
_INDEX = {word: i for i, word in enumerate(_WORDS)}
_CLASS_START = gates.row_word(gates.insertion(_WORDS[0]))


def _knuth_class(start):
    """Words reachable by Knuth moves, as a set of tuples."""
    seen, frontier = {start}, [start]
    while frontier:
        u = frontier.pop()
        for p in range(len(u) - 2):
            a, b, c = u[p:p + 3]
            if min(b, c) < a < max(b, c):
                v = u[:p] + (a, c, b) + u[p + 3:]
            elif min(a, b) < c < max(a, b):
                v = u[:p] + (b, a, c) + u[p + 3:]
            else:
                continue
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def kernel() -> None:
    """About a millisecond of the kinds of work sytkit does: row insertion,
    growing a class as a set of tuples, dict lookups.  (Big-integer mask
    work, as in the poset's reachability rows, was tried too: it tracked
    the library's slowdowns worse than these two and is left out.)"""
    # without the cyclic collector, whose passes cost in proportion to the
    # worker's heap: the kernel must time the machine, not the heap
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        hits = 0
        for word in _WORDS:
            gates.rsk(word)
            hits += word[::-1] in _INDEX
        _knuth_class(_CLASS_START)
    finally:
        if was_enabled:
            gc.enable()


class SpeedMeter:
    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints, perf_counter clock
        self.seconds: list[float] = []

    def sample(self, count: int = 3) -> None:
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.seconds.append(end - start)

    @contextlib.contextmanager
    def inside(self):
        """Sample every SAMPLE_EVERY_S while the block runs, from a SIGALRM
        handler, so that a load change during a long operation is seen.
        Yields a one-item list: the seconds the samples took, which the
        caller takes off the block's time."""
        spent = [0.0]

        def on_alarm(signum, frame):
            before = len(self.seconds)
            self.sample(1)
            spent[0] += self.seconds[before]

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor that converts the time of an operation that ran from
        ``start`` to ``end`` to the reference speed, from the kernel samples
        during it and within min(its length, WINDOW_S) of it, or at least
        the MIN_SAMPLES nearest ones."""
        margin = min(end - start, WINDOW_S)
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        if hi - lo < MIN_SAMPLES:
            at = bisect.bisect_left(self.times, start)
            lo, hi = max(0, at - MIN_SAMPLES // 2), at + MIN_SAMPLES // 2
        return REFERENCE_S / _middle_mean(self.seconds[lo:hi])

    def overall(self) -> float:
        return REFERENCE_S / _middle_mean(self.seconds)


def _middle_mean(values: list[float]) -> float:
    """Mean of the middle half: an operation lasting many samples pays the
    average slowdown, which a median misses when the machine switches
    between a fast and a slow state; one disturbed sample is still
    ignored."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])
