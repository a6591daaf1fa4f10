"""Speed-normalised timing for a shared machine.

On a small shared host the speed of the same pure-Python loop moves
between levels up to 1.5x apart, each held for seconds, because of the
other tenants; raw wall times of identical passes differ as much.  So
every timed span is bracketed by a fixed calibration loop, and its wall
time is rescaled by how fast that loop ran right before and right after:

    reference seconds = wall seconds * REFERENCE_S / calibration seconds

A reference second is a second at the speed where the calibration loop
takes REFERENCE_S, its time at full speed on the host the baseline was
measured on (2 vCPUs, Python 3.11).  The calibration mixes the work fialg
spends its time on: small-int arithmetic, dict stores and Fraction adds.
Raw wall times are reported next to the reference ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0015


def calibration_work():
    acc = 0
    table = {}
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    q = Fraction(0)
    for i in range(1, 200):
        q += Fraction(acc % 97 + i, i + 1)
    return acc, q


def calibrate() -> float:
    """The calibration loop's time, best of two runs (an interrupt in one
    run does not count)."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        calibration_work()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times spans of work, each between two calibrations; consecutive
    spans share the calibration between them."""

    def __init__(self):
        self.last = calibrate()

    def time(self, fn, *args):
        """(result, wall seconds, reference seconds) of fn(*args)."""
        before = self.last
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        self.last = calibrate()
        return result, wall, wall * REFERENCE_S * 2 / (before + self.last)
