"""
A fixed calibration workload that tracks how fast the machine runs right now.

A small shared virtual machine changes speed with its neighbours' load.  On
a 2-vCPU VM (Python 3.11) the speed moved between states about 1.9x apart,
each lasting from a second to a minute: 20-second windows of the same growth
queries spread by 25 % between quartiles over five minutes, and by 3 to 6 %
after this correction.  probe() times a few milliseconds of
fixed pure-Python work in the mix knotcover spends its time on (big-integer
fraction-free elimination, dense polynomial products, Fraction sums).  It
does not use knotcover, so a change to the program cannot change it.  The
benchmark divides each measured time by slowdown() of the probes around it.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# probe() on the machine the baseline was recorded on, in its fast state.
REFERENCE_S = 0.0016


def _work() -> int:
    n = 16
    m = [[(i * 7 + j * 13) % 17 - 8 for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] += 40
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    a, b = list(range(1, 80)), list(range(3, 90))
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return m[n - 1][n - 1] + total.numerator + out[-2]


def _once() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one pass of the fixed work takes now: the median of three
    passes, so that a pause of a few milliseconds does not count as a state."""
    return statistics.median(_once() for _ in range(3))


def slowdown(seconds: float) -> float:
    """How many times slower than the reference a probe of `seconds` ran."""
    return seconds / REFERENCE_S
