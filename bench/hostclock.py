"""Measured times scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes, as other tenants come and go, while the
process's CPU time moves with its wall time.  Unscaled, two sets of runs of the
same code then differ by more than any bound a regression gate could use.

So while a workload is measured, ``HostClock`` times a fixed reference kernel
every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler, interleaved with the
work itself.  The kernel mixes the work memalign does: small matrix-vector
products and outer products, dot products of long vectors, and Python loops
over lists and sets.  Each measured interval then reports

    (its wall time - the kernel time inside it) * REFERENCE_S / k

where ``k`` is the median kernel time from ``WINDOW_S`` before the interval
to ``WINDOW_S`` after it: the time the interval would have taken on a host
that runs the kernel in ``REFERENCE_S``.  The host's speed swings by ±20%
within seconds, so a short window follows it better than a run-wide median:
on the long-memory requests it halved the spread of one graph's decode time.
``REFERENCE_S`` is a fixed constant, the same for every commit, so scaled
times compare across commits as wall times would on a steady host.  The raw
times are reported beside the scaled ones.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Kernel time of the reference host: one kernel call, on the benchmark's 2-vCPU
# host at its faster speed.
REFERENCE_S = 0.0014
INTERVAL_S = 0.04
WINDOW_S = 0.25

_rng = np.random.default_rng(20260218)
_W = _rng.standard_normal((128, 128)) / 11.3
_WC = _rng.standard_normal((128, 160)) / 12.6
_X = _rng.standard_normal(160)
_ROWS = _rng.standard_normal((8, 2048))
_VOCAB = 700
_LOGITS = _rng.standard_normal(_VOCAB)
_EDGE_LINES = [[int(v) for v in row] for row in _rng.integers(0, _VOCAB, size=(1100, 3))]
_EMITTED = set(range(0, _VOCAB, 2))
_USED = set(range(0, len(_EDGE_LINES), 5))


def kernel() -> float:
    """The fixed reference work, about a millisecond and a half.

    Its parts follow where the workloads spend their time, weighted to the
    Python loops that tracked the decode workload's speed best: a
    constrained decode step (scan the edge lines, mask the logits, take the
    argmax, update a 128-wide recurrent state), outer-product gradient
    accumulation, and cosine similarities of 2048-wide vectors.
    """
    state = np.zeros(128)
    for _ in range(4):
        open_edges = []
        for i, line in enumerate(_EDGE_LINES):
            if i in _USED:
                continue
            if line[0] in _EMITTED and line[2] in _EMITTED:
                open_edges.append(i)
        allowed = sorted({_EDGE_LINES[i][0] for i in open_edges})
        masked = np.full(_VOCAB, -np.inf)
        masked[allowed] = _LOGITS[allowed]
        state = np.tanh(_WC @ _X + _W @ state) * float(np.argmax(masked) > 0)
    grads = np.zeros((128, 128))
    for _ in range(12):
        state = np.tanh(_W @ state + _X[:128])
        grads += np.outer(state, _X[:128])
    acc = 0.0
    for row in _ROWS:
        for col in _ROWS[:4]:
            acc += float(row @ col) / float(np.linalg.norm(row) * np.linalg.norm(col))
    return acc + float(grads[0, 0]) + len(open_edges)


@dataclass
class Interval:
    start: float = 0.0
    end: float = 0.0
    raw: float = 0.0  # wall time minus the kernel time inside it


class HostClock:
    """Samples the kernel's time while running (``with clock:``) and scales
    the intervals timed with ``clock.timed()``."""

    def __init__(self):
        self.sample_at: list[float] = []
        self.sample_s: list[float] = []
        self.kernel_total_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.sample_at.append(start)
        self.sample_s.append(seconds)
        self.kernel_total_s += seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A last sample, so that every interval has one after it.
        self._tick(signal.SIGALRM, None)
        return False

    @contextmanager
    def timed(self):
        """Time the block; the yielded interval is filled in when it ends."""
        interval = Interval()
        kernel_before = self.kernel_total_s
        interval.start = time.perf_counter()
        try:
            yield interval
        finally:
            interval.end = time.perf_counter()
            interval.raw = (interval.end - interval.start
                            - (self.kernel_total_s - kernel_before))

    def speed(self) -> float:
        """The reference kernel time over this clock's median kernel time."""
        return REFERENCE_S / statistics.median(self.sample_s)

    def scaled(self, interval: Interval) -> float:
        """The interval's time at the reference speed, in seconds.  Call it
        when the clock has stopped, so that the samples after it are in."""
        lo = bisect.bisect_left(self.sample_at, interval.start - WINDOW_S)
        hi = bisect.bisect_right(self.sample_at, interval.end + WINDOW_S)
        # At least the nearest sample on each side.
        lo = min(lo, max(bisect.bisect_left(self.sample_at, interval.start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.sample_at, interval.end) + 1,
                         len(self.sample_at)))
        return interval.raw * REFERENCE_S / statistics.median(self.sample_s[lo:hi])
