"""Host-speed calibration.

On a shared host the speed of the same pure-Python work drifts by tens of
percent over tens of seconds, whatever the run length.  The benchmark
therefore runs a fixed calibration kernel in short bursts between items
and scales every measured interval by ``(REFERENCE_S / local burst
time) ** ELASTICITY``.  The kernel is exact elimination over the
rationals and a prime field, written here and not in the library, so a
change to the library leaves it untouched: what the scaling removes is
the host's speed, not the program's.

The library's speed moves less than the small kernel's: over 30 runs of
the three workloads on a 2-core x86-64 host, the log of the raw items/s
rose by 0.5-0.84 (per workload) per unit of the log of the kernel's
speed.  ``ELASTICITY`` is that slope, rounded; with the full ratio (1.0)
runs on a fast host were over-corrected.  Raw, unscaled figures are
printed beside the scaled ones.

The bursts run in the measured process.  The cyclic garbage collector is
off during a burst, so a collection of the library's heap never lands in
one and a change that grows that heap is not scaled away.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.004  # about one burst on a 2-core x86-64 host, Python 3.11; fixes the unit only
INTERVAL_S = 0.25  # calibrate once this much time has passed since the last bursts
SHARE = 0.03  # bursts then take this share of the time that has passed
WINDOW_S = 3.0  # bursts this close to an interval calibrate it
ELASTICITY = 0.6


def _kernel() -> int:
    n = 9
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    p, m = 101, 30
    mat = [[(i * 31 + j * 17 + i * j) % p for j in range(m)] for i in range(m)]
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, m) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        for i in range(r + 1, m):
            f = mat[i][c] * inv % p
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return rank + r


class Speed:
    """Calibration bursts over a run, and the scale factor for any interval."""

    def __init__(self):
        self.times: list[float] = []  # burst midpoints, increasing
        self.durations: list[float] = []
        self.last = perf_counter()

    def burst(self) -> float:
        gc.disable()
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.last = t1
        return t1 - t0

    def calibrate(self) -> None:
        """Bursts worth SHARE of the time since the last ones, once at
        least INTERVAL_S has passed: a long item is followed by many."""
        due = SHARE * (perf_counter() - self.last)
        if self.times and due < SHARE * INTERVAL_S:
            return
        spent = 0.0
        while spent < due or spent == 0.0:
            spent += self.burst()

    def factor(self, t0: float, t1: float) -> float:
        """The scale factor from the median burst within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.durations[lo:hi]
        if not near:  # fall back to the closest burst on either side
            k = bisect.bisect_left(self.times, t0)
            near = self.durations[max(k - 1, 0) : k + 1]
        return (REFERENCE_S / statistics.median(near)) ** ELASTICITY
