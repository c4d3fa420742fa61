"""Host-speed probes: times expressed at a fixed reference speed.

The benchmark shares a few cores of a busy host.  Measured here, the same
pure-Python call ran 60 ms in some half-minutes and 100 ms in others, in
wall time and in CPU time alike: the host, not the program, set a fifth
of every figure.  So the end-to-end times are taken against a yardstick.
Every ``PROBE_GAP_S`` the clock runs a fixed stdlib computation,
``reference()``, and notes how long it took: from an interval timer's
signal handler while a workload runs in this process (so a long call is
probed from inside), between calls otherwise (cli children).  A stretch
of time between two probes is divided by the reference time measured
around it and multiplied by ``REFERENCE_S``; probes are left out of every
timed interval.  A time reported this way reads "seconds on a host where
``reference()`` takes ``REFERENCE_S``": a slower program reads more, a
slower host does not.  The stretch's reference time is the median of the
samples taken within ``HORIZON_S`` of it, since one sample alone scatters
widely.

``reference()`` is a pure-Python backtracking count, the same kind of
work as the pure kernel (loops, set lookups, calls); it uses nothing
from ``cordant`` and must never change, or every figure moves with it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# reference() on the baseline host (pure kernel, 2 cores) in a fast phase;
# a scale only: it turns ratios into seconds of a familiar size
REFERENCE_S = 0.0025
# probe at most this often; a probe costs about REFERENCE_S per sample
PROBE_GAP_S = 0.1
# after a long call, take one more sample per this much unprobed time
BURST_EVERY_S = 0.25
BURST_MAX = 8
# a stretch is scaled by the median of every sample taken within this
# many seconds of it: the host's speed drifts over seconds, while single
# samples scatter by tens of percent
HORIZON_S = 1.0


def _queens(n: int, row: int, cols: set, up: set, down: set) -> int:
    if row == n:
        return 1
    total = 0
    for c in range(n):
        if c not in cols and row + c not in up and row - c not in down:
            cols.add(c)
            up.add(row + c)
            down.add(row - c)
            total += _queens(n, row + 1, cols, up, down)
            cols.discard(c)
            up.discard(row + c)
            down.discard(row - c)
    return total


def reference() -> int:
    """The yardstick: count the 92 solutions of the 8-queens puzzle."""
    return _queens(8, 0, set(), set(), set())


class SpeedClock:
    """Probes interleaved with timed calls, and the conversion of raw
    ``perf_counter`` intervals into reference seconds."""

    def __init__(self) -> None:
        # (start, end) of each probe; a probe holds one or more samples
        self.probes: list[tuple[float, float]] = []
        self._times: list[float] = []      # midpoint of each sample
        self._samples: list[float] = []    # duration of each sample
        self._scale: dict[int, float] = {}
        self._busy = False
        self._saved_handler = None

    def probe(self, samples: int = 1) -> None:
        if self._busy:   # a timer probe arrived during a probe
            return
        self._busy = True
        try:
            self._probe(samples)
        finally:
            self._busy = False

    def _probe(self, samples: int) -> None:
        start = time.perf_counter()
        t = start
        for _ in range(samples):
            if reference() != 92:
                raise RuntimeError("reference computation is wrong")
            now = time.perf_counter()
            self._times.append((t + now) / 2)
            self._samples.append(now - t)
            t = now
        self.probes.append((start, t))

    def maybe_probe(self) -> None:
        """Probe when the last probe ended at least PROBE_GAP_S ago, with
        more samples the longer it has been."""
        if not self.probes:
            self.probe()
            return
        idle = time.perf_counter() - self.probes[-1][1]
        if idle >= PROBE_GAP_S:
            self.probe(min(BURST_MAX, 1 + int(idle / BURST_EVERY_S)))

    def start_timer(self) -> None:
        """Probe every PROBE_GAP_S from a SIGALRM handler, also in the
        middle of a call (pure-Python code yields to the handler between
        bytecodes; compiled code at its next return to the interpreter)."""
        self._saved_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._saved_handler is not None:
            signal.signal(signal.SIGALRM, self._saved_handler)
            self._saved_handler = None

    def _gap_scale(self, k: int) -> float:
        """Reference seconds per raw second in the gap after probe k."""
        if k not in self._scale:
            lo = bisect.bisect_left(self._times,
                                    self.probes[k][1] - HORIZON_S)
            hi = bisect.bisect_right(self._times,
                                     self.probes[k + 1][0] + HORIZON_S)
            self._scale[k] = REFERENCE_S / statistics.median(
                self._samples[lo:hi])
        return self._scale[k]

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds in the raw interval [start, end], leaving out
        the probes inside it.  Call once every probe within HORIZON_S
        after ``end`` is taken; needs a probe before start and after end."""
        probes = self.probes
        if not probes or probes[0][1] > start or probes[-1][0] < end:
            raise RuntimeError("interval not bracketed by probes")
        ends = [b for _, b in probes]
        total = 0.0
        # the gaps after probes first..last-1 can overlap [start, end]
        first = max(0, bisect.bisect_right(ends, start) - 1)
        for k in range(first, len(probes) - 1):
            if probes[k][1] >= end:
                break
            lo = max(start, probes[k][1])
            hi = min(end, probes[k + 1][0])
            if hi > lo:
                total += (hi - lo) * self._gap_scale(k)
        return total
