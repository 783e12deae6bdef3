"""Host-speed calibration for single-client timings.

On a shared virtual machine the speed of the CPU the benchmark gets changes
by up to 2x within seconds, and the program's wall times follow.  A timed
single-client phase therefore alternates slices of program calls with a
fixed calibration block: benchmark-owned interpreter work on small data (a
``bisect`` on a 64-entry list, a dict lookup and a method call per
iteration) that allocates no container object, so it never triggers the
cyclic GC and does not depend on the program's heap.  Its slow-down tracks
the program's over windows of a few slices.

Each slice's times are multiplied by ``REFERENCE_S`` over the rolling median
of the calibration times around it: the result is what the slice would have
taken on a host where the block takes ``REFERENCE_S``.  The block and the
constant belong to the benchmark, so two commits of the program are compared
at the same reference speed; the unscaled figures are reported beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

BLOCK_ITERATIONS = 400
# block time that defines the reference speed: about the block's median on a
# 2-vCPU cloud VM running CPython 3.11
REFERENCE_S = 200e-6
# calibrations either side of a slice in its rolling median
HALF_WINDOW = 8

_SMALL_KEYS = list(range(64))
_SMALL_MAP = {k: k for k in _SMALL_KEYS}


class _Accumulator:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def step(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        return self.value


_ACC = _Accumulator()


def block(iterations: int = BLOCK_ITERATIONS) -> int:
    keys = _SMALL_KEYS
    lookup = _SMALL_MAP.get
    find = bisect.bisect_left
    step = _ACC.step
    total = 0
    for i in range(iterations):
        x = (i * 7919) & 63
        total += step(find(keys, x) + lookup(x))
    return total


def timed_block(clock=time.perf_counter) -> float:
    t0 = clock()
    block()
    return clock() - t0


def factors(calibrations) -> list:
    """Per slice, ``REFERENCE_S`` over the median of the calibration times of
    the slices within ``HALF_WINDOW`` of it."""
    n = len(calibrations)
    out = []
    for s in range(n):
        window = calibrations[max(0, s - HALF_WINDOW):s + HALF_WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out
