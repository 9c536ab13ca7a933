"""Reference clock: timings in reference-seconds, plus summary statistics.

The boxes this benchmark runs on are shared micro-VMs whose speed drifts by
tens of percent over tens of seconds (a fixed pure-Python loop measured here
ranged 8.1-14.3 ms per unit within one 15 s window, CPU time tracking wall
time, so it is the host, not this process).  Raw wall-clock rates therefore
spread 10-27 % between back-to-back runs of the same commit, which no
regression bound survives.  The drift is slow, so it can be measured: every
timed slice is bracketed by a fixed *reference unit* (pure-Python arithmetic,
NumPy sort/unique/cumsum, and a random gather/scatter over 32 MB — the same
interpreter / NumPy / memory mix the repo's hot paths are made of, but no
code from ``src/``), and the slice's wall time is divided by how much slower
than nominal the reference ran around it.  The result is a time in
**reference-seconds**: what the slice would have taken on this box at the
speed at which the reference parts take ``REF_NOMINAL_S``.  Same-seed runs
then agree within 2-5 % instead of 10-27 %.  ``perf.machine_slowdown``
reports the factor so a raw figure can be recovered.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

#: The reference sub-unit has three parts, timed apart: interpreter-bound
#: (a pure-Python loop), NumPy on cache-resident data (sort / unique /
#: cumsum of 8 k integers) and memory-bound (random gather + scatter over a
#: 32 MB array).  Neighbours on the host slow the three differently, and the
#: repo's hot paths are a mix of all three; calibrating with their equal mix
#: left a 2-5 % run-to-run spread where any single part left 4-8 %.
_REF_PY_ITERS = 16_000
_REF_SMALL_N = 8_000
_REF_BIG_N = 4_000_000
_REF_TOUCHED = 30_000
#: Wall seconds each part takes on the box the benchmark was pinned on
#: while it is quiet (10th percentile of ~1300 boundaries).
REF_NOMINAL_S = (0.00055, 0.00114, 0.00041)
_REF_SUBUNITS = 3


class RefClock:
    """Measures the machine's current slowdown and calibrates slice times.

    ``mark()`` runs one reference boundary (median of three sub-units, so a
    single preemption inside the boundary does not deflate the slice next to
    it).  ``factor()`` runs a boundary and returns the mean of it and the
    previous one: the slowdown that applied to whatever ran in between.
    """

    def __init__(self) -> None:
        self._small = np.random.default_rng(1).integers(
            0, 1 << 30, _REF_SMALL_N)
        self._big = np.random.default_rng(2).integers(0, 1 << 30, _REF_BIG_N)
        self._index = np.random.default_rng(3).integers(
            0, _REF_BIG_N, _REF_TOUCHED)
        self.history: list[float] = []
        self._prev = self._boundary()

    def _subunit(self) -> float:
        """One reference sub-unit; returns its slowdown against nominal."""
        t0 = time.perf_counter()
        x = 0
        for i in range(_REF_PY_ITERS):
            x += i * i
        t1 = time.perf_counter()
        order = np.argsort(self._small, kind="stable")
        np.unique(self._small[order] >> 3)
        np.cumsum(self._small)
        t2 = time.perf_counter()
        gathered = self._big[self._index]
        self._big[self._index] = gathered + 1
        gathered.sum()
        t3 = time.perf_counter()
        parts = (t1 - t0, t2 - t1, t3 - t2)
        return sum(t / n for t, n in zip(parts, REF_NOMINAL_S)) / len(parts)

    def _boundary(self) -> float:
        slow = statistics.median(
            self._subunit() for _ in range(_REF_SUBUNITS))
        self.history.append(slow)
        return slow

    def mark(self) -> None:
        """Refresh the leading boundary (call after an untimed stretch)."""
        self._prev = self._boundary()

    def factor(self) -> float:
        """Slowdown over the slice that ran since the previous boundary."""
        new = self._boundary()
        mean = (self._prev + new) / 2.0
        self._prev = new
        return mean

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` as one slice; return ``(result, reference_seconds)``."""
        self.mark()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        return result, wall / self.factor()

    @property
    def median_slowdown(self) -> float:
        return statistics.median(self.history)

    def close(self) -> None:
        """Nothing to release; :class:`PairedClock` has a helper to stop."""


class PairedClock(RefClock):
    """A reference clock for a workload that keeps two CPUs busy.

    ``serve_mixed`` runs its clients on one CPU and the server on another,
    and the host slows the two independently.  Every boundary therefore
    also runs, at the same moment, in a helper process on ``cpu`` (the
    server's), and the slowdown is the mean of the two.
    """

    def __init__(self, cpu: int) -> None:
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})  # inherited by the helper
        try:
            self._helper = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1)
        finally:
            os.sched_setaffinity(0, mine)
        super().__init__()

    def _boundary(self) -> float:
        self._helper.stdin.write("boundary\n")
        here = super()._boundary()
        there = float(self._helper.stdout.readline())
        self.history[-1] = (here + there) / 2.0
        return self.history[-1]

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()


def summary(values) -> dict:
    """Median, quartiles and count of a sample (the shape every timed
    metric is reported in)."""
    values = [float(v) for v in values]
    if not values:
        return {"median": float("nan"), "q1": float("nan"),
                "q3": float("nan"), "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def percentile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


if __name__ == "__main__":
    # PairedClock's helper: one boundary per line read, its slowdown printed
    _clock = RefClock()
    for _line in sys.stdin:
        print(_clock._boundary(), flush=True)
