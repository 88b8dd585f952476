"""Reference-speed calibration.

On a machine whose cores are shared, the same op can take 1.8 times longer
from one second to the next while another tenant runs on the same core;
process CPU time rises with wall time, so it does not help.  The benchmark
therefore times a fixed pure-Python kernel before and after every timed
step and scales the step's wall time by REFERENCE_S / (kernel time around
it).  The result is the step's time at the interpreter speed at which the
kernel takes REFERENCE_S, about the speed of an idle core of the machine the
baseline was measured on.  The kernel shares no code with longspan, so a
change to the library moves calibrated times exactly as it moves wall times
at a fixed speed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.00175

_POINTS = [((7 * i) % 101 / 101.0, (13 * i) % 97 / 97.0) for i in range(90)]


def _kernel() -> float:
    # the library's mix: float distance loops and exact rational arithmetic
    best = 0.0
    for p in _POINTS:
        for q in _POINTS:
            d = math.hypot(p[0] - q[0], p[1] - q[1])
            if d > best:
                best = d
    acc = Fraction(0)
    for p in _POINTS:
        acc += (Fraction(p[0]) - Fraction(p[1])) * Fraction(p[1])
    return best + float(acc)


def _kernel_seconds() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class Clock:
    """Brackets consecutive steps with the kernel: create it before the
    first step and call `factor()` after each one."""

    def __init__(self):
        self._before = _kernel_seconds()

    def factor(self) -> float:
        """Scale for the step just ended; times the kernel once more."""
        after = _kernel_seconds()
        scale = REFERENCE_S / ((self._before + after) / 2.0)
        self._before = after
        return scale
