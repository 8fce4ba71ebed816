"""Exhaustive parity: unboxed bounds kernels vs ``Interval`` methods.

The range solver's inner loop works on raw ``(lower, upper)`` pairs, so
every scalar ``bounds_*`` kernel must match its boxed ``Interval`` method
twin bit-for-bit on every input, including the empty interval and the
half-/all-infinite ones.

The grid below crosses every interval shape the domain can produce:
all-finite, half-infinite both ways, top, single-point, zero-crossing,
and bottom.
"""

import pytest

from repro.rangeanalysis.interval import (
    Interval,
    NEG_INF,
    POS_INF,
    bounds_add,
    bounds_div,
    bounds_join,
    bounds_meet,
    bounds_mul,
    bounds_narrow,
    bounds_refine_greater_equal,
    bounds_refine_greater_than,
    bounds_refine_less_equal,
    bounds_refine_less_than,
    bounds_rem,
    bounds_sub,
    bounds_widen,
)

# Every interval shape over a small bound alphabet, plus bottom.  Bounds are
# stored canonically: bottom is (POS_INF, NEG_INF) and lower > upper is the
# emptiness test, mirroring IntervalTable.
_VALUES = (NEG_INF, -5, -2, -1, 0, 1, 2, 5, POS_INF)
GRID = [(lo, hi) for lo in _VALUES for hi in _VALUES if lo <= hi]
GRID.append((POS_INF, NEG_INF))  # bottom


def _boxed(bounds):
    lo, hi = bounds
    if lo > hi:
        return Interval.bottom()
    return Interval(lo, hi)


def _unboxed(interval):
    return (interval.lower, interval.upper)


KERNEL_METHOD_TWINS = [
    (bounds_join, Interval.join),
    (bounds_meet, Interval.meet),
    (bounds_widen, Interval.widen),
    (bounds_narrow, Interval.narrow),
    (bounds_add, Interval.add),
    (bounds_sub, Interval.sub),
    (bounds_mul, Interval.mul),
    (bounds_div, Interval.div),
    (bounds_rem, Interval.rem),
    (bounds_refine_less_than, Interval.refine_less_than),
    (bounds_refine_less_equal, Interval.refine_less_equal),
    (bounds_refine_greater_than, Interval.refine_greater_than),
    (bounds_refine_greater_equal, Interval.refine_greater_equal),
    (bounds_meet, Interval.refine_equal),
]


@pytest.mark.parametrize(
    "kernel,method", KERNEL_METHOD_TWINS,
    ids=[m.__name__ for _k, m in KERNEL_METHOD_TWINS])
def test_scalar_kernels_match_interval_methods(kernel, method):
    for a in GRID:
        boxed_a = _boxed(a)
        for b in GRID:
            expected = _unboxed(method(boxed_a, _boxed(b)))
            assert kernel(a[0], a[1], b[0], b[1]) == expected, (a, b)
