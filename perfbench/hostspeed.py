"""Wall times scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed follows its
neighbours' load.  A fixed piece of work varies by about 20% from one tenth
of a second to the next, and 20-second averages minutes apart differ by a
quarter or more.  So while a workload runs, a short calibration kernel of
fixed work runs every ``INTERVAL_S`` (from a timer signal, between the
library's Python bytecodes), and the wall time between two calibrations is
scaled by the kernel's reference time over the mean of their kernel times.
A scaled time is the time the work would have taken on a host where the
kernel takes its reference time; the calibrations' own time is left out.
A change in the library's speed is not scaled away, since the kernel runs
only benchmark code.

The kernel does the kinds of work its workload does, since the host's load
slows them by different amounts: a pure-Python scalar loop (the binary
probe), a loop of 16-cell numpy operations (the white-noise and scan
fixpoints), a random gather from an array larger than L2 (the Monte Carlo
passes).  Each workload names the parts it is calibrated with.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1

PY_STEPS = 18_000
NP_STEPS = 300
GATHER = 150_000

#: Median time of each kernel part on a 2-vCPU Intel Xeon guest at 2.1 GHz
#: (Python 3.11, numpy 2.4).  They set only the scale of the reported times.
REFERENCE_S = {"python": 0.0020, "numpy": 0.0018, "memory": 0.0023}

_rng = np.random.default_rng(20020302)
_MAT = _rng.random((16, 16))
_VEC = _rng.random(16)
_BIG = _rng.integers(0, 256, 8 << 20, dtype=np.uint8)  # 8 MiB, twice the L2
_IDX = _rng.integers(0, _BIG.size, GATHER)


def python_part():
    x, y = 0.3, 0.1
    for _ in range(PY_STEPS):
        x = x * 0.999 + y * y
        y = (y + x) * 0.5


def numpy_part():
    v = _VEC.copy()
    for _ in range(NP_STEPS):
        v = _MAT @ v
        v /= v.sum()


def memory_part():
    int(_BIG[_IDX].sum())


PARTS = {"python": python_part, "numpy": numpy_part, "memory": memory_part}


class HostSpeed:
    """A timeline of calibrations, and wall-time intervals scaled by it.

    Times are ``time.perf_counter()`` readings, which on Linux are
    CLOCK_MONOTONIC readings and so comparable across processes.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[p] for p in parts]
        self.reference_s = sum(REFERENCE_S[p] for p in parts)
        self.spans: list[tuple[float, float]] = []  # (start, end) of each calibration
        self._ends: list[float] = []

    def calibrate(self, *_):
        t0 = perf_counter()
        for part in self.parts:
            part()
        self.spans.append((t0, perf_counter()))
        self._ends.append(self.spans[-1][1])

    @contextmanager
    def running(self):
        """Calibrate now, every ``INTERVAL_S`` in the block, and at its end."""
        self.calibrate()
        previous = signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.calibrate()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """Wall time and scaled time of the work between two readings.

        Both leave out the calibrations in the interval, which must lie
        between the first and the last calibration.
        """
        wall = scaled = 0.0
        i = max(bisect.bisect_right(self._ends, start) - 1, 0)
        while i + 1 < len(self.spans) and self.spans[i][1] < end:
            (s0, e0), (s1, e1) = self.spans[i], self.spans[i + 1]
            overlap = min(end, s1) - max(start, e0)
            if overlap > 0:
                wall += overlap
                scaled += overlap * self.reference_s / (0.5 * (e0 - s0 + e1 - s1))
            i += 1
        return wall, scaled

    def summary(self) -> str:
        cal = statistics.median(e - s for s, e in self.spans)
        return (f"host speed: {len(self.spans)} calibrations, median {1e3 * cal:.3f} ms, "
                f"reference {1e3 * self.reference_s:.3f} ms")
