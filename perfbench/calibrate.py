"""Machine-speed calibration, interleaved with the timed operations.

The benchmark runs on shared machines whose speed drifts: on a shared
two-core host the same round of pure-Python work took from 1x to 1.9x as
long within minutes, while CPU time stayed equal to wall time, so neither
longer runs nor CPU clocks remove it.  Every timed operation is therefore
followed by a calibration sample: a fixed pure-Python kernel (row-dict
sparse products over GF(7) and over Fractions, the same kind of work as the
library's inner loops, but the benchmark's own code) run for SHARE of the
operation's time, one unit at least.  The time per unit of the samples
nearest an operation in time, WINDOW_S of them at least, against REFERENCE_UNIT_S
is the machine's slowdown at that moment, and the operation's time divided
by it is its time at the reference speed.  The end-to-end times are
reported in these reference seconds; on a machine running at the reference
speed they equal wall-clock seconds.

The kernel does not depend on the library, so a change to the program
moves the reported times exactly as it moves the wall-clock times at a
fixed machine speed.  The collector is paused during a sample, so the
library's heap does not enter the machine's measured speed.
"""

import gc
import operator
import random
import time
from fractions import Fraction

__all__ = ["Calibrator", "REFERENCE_UNIT_S", "SHARE", "WINDOW_S", "reference_times"]

REFERENCE_UNIT_S = 0.00045  # one unit on a two-core shared host at its usual speed
SHARE = 0.25  # calibration time per second of timed operation
WINDOW_S = 0.01  # least calibration time behind one operation's slowdown
WARM_UNITS = 20  # untimed units before a fresh process's first sample


def _sparse(rng, n, width, value):
    return [{rng.randrange(n): value(rng) for _ in range(width)} for _ in range(n)]


def _product(left, right, add, mul):
    out = []
    for row in left:
        acc = {}
        for k, a in row.items():
            for j, b in right[k].items():
                v = mul(a, b)
                w = acc.get(j)
                acc[j] = v if w is None else add(w, v)
        out.append({j: v for j, v in acc.items() if v})
    return out


def _add7(a, b):
    return (a + b) % 7


def _mul7(a, b):
    return (a * b) % 7


class Calibrator:
    """Times a fixed kernel and turns wall time into reference time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        rng = random.Random(0)
        self._gf = _sparse(rng, 24, 4, lambda r: r.randrange(1, 7))
        self._q = _sparse(rng, 8, 3, lambda r: Fraction(r.randrange(-9, 10), r.randrange(1, 9)))
        start = clock()
        for _ in range(WARM_UNITS):
            self.unit()
        self.spent_s = clock() - start  # wall time spent calibrating so far

    def unit(self):
        _product(self._gf, self._gf, _add7, _mul7)
        _product(self._q, self._q, operator.add, operator.mul)

    def sample(self, seconds):
        """Run whole units for at least `seconds`, one unit at least, with
        the collector paused; returns (elapsed seconds, units)."""
        clock = self.clock
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            units = 0
            while True:
                self.unit()
                units += 1
                elapsed = clock() - start
                if elapsed >= seconds:
                    break
        finally:
            if enabled:
                gc.enable()
        self.spent_s += elapsed
        return elapsed, units

    def slowdown(self, seconds):
        """The time per unit of one sample, as a multiple of REFERENCE_UNIT_S."""
        elapsed, units = self.sample(seconds)
        return elapsed / (units * REFERENCE_UNIT_S)


def reference_times(busy, samples, window_s=WINDOW_S):
    """Convert wall times to reference seconds.

    `busy[i]` is the i-th operation's wall time and `samples[i]` the
    (elapsed, units) sample taken right after it.  The i-th slowdown pools
    the samples nearest operation i in time: its own, then the one just
    before it, then alternately later and earlier ones, until `window_s` of
    calibration time is pooled or every sample is used."""
    n = len(busy)
    out = []
    for i in range(n):
        elapsed, units = samples[i]
        step = 1
        while elapsed < window_s and step < n:
            for j in (i - step, i + step):
                if 0 <= j < n and elapsed < window_s:
                    elapsed += samples[j][0]
                    units += samples[j][1]
            step += 1
        out.append(busy[i] * units * REFERENCE_UNIT_S / elapsed)
    return out
