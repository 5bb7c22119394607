"""Host-speed sampling, so pass times can be read in reference units.

On a shared host the speed a process gets swings by half or more within
seconds, and the swings hit the program and any fixed piece of Python work
alike.  While a `HostSpeed` is active, a SIGALRM handler runs a fixed slice
of pure-Python work every SAMPLE_EVERY seconds of wall time and records how
long it took.  `timed()` runs one call, subtracts the slices that ran inside
it, and divides the rest by the mean slice time measured during the call:
the result is the call's duration in reference units, which stays steady
while the host's speed moves.  The slice does not touch genpol, so a change
to the program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_EVERY = 0.025   # seconds of wall time between slices
# Reference speed: a slice taking this long.  Times reported in seconds "at
# reference speed" are reference units times SLICE_S.
SLICE_S = 0.001


def reference_slice() -> int:
    """About a millisecond of the operations genpol's hot loops are made of:
    frozenset difference and union, dict lookups, int bit counting."""
    index: dict = {}
    base = frozenset(range(0, 48, 2))
    acc = 0
    for i in range(600):
        s = (base - {i % 48}) | {(i * 7) % 48}
        j = index.get(s)
        if j is None:
            index[s] = j = len(index)
        acc += bin((i * 2654435761) & 0xFFFF).count("1") + j
    return acc


class HostSpeed:
    """Context manager that samples the reference slice while active."""

    def __init__(self):
        self.starts: list = []  # perf_counter() at the start of each slice
        self.slices: list = []  # seconds each slice took
        self._unit = None   # latest mean slice time, for calls too short to sample
        self._old = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        reference_slice()
        self.slices.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._unit = min(self._slice_once() for _ in range(5))
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    @staticmethod
    def _slice_once() -> float:
        t0 = time.perf_counter()
        reference_slice()
        return time.perf_counter() - t0

    def timed(self, fn, *args):
        """Calls fn(*args); returns (result, seconds, reference units), both
        times net of the slices that ran during the call.  If fn raises, the
        exception propagates."""
        n0 = len(self.slices)
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        inside = self.slices[n0:]
        if inside:
            self._unit = statistics.fmean(inside)
        net = dt - sum(inside)
        return result, net, net / self._unit
