"""Deterministic reductions: one explicit left fold for modelled float
sums, and one nearest-rank percentile.

CPython 3.12 changed the builtin ``sum`` of floats to compensated
(Neumaier) summation, while 3.10 and 3.11 add strictly left to right, so
the same reduction can differ by an ULP between interpreters. Modelled
seconds are the output under test and must be the same bits everywhere:
every modelled float reduction goes through :func:`left_sum`, which adds
left to right on every Python (the 3.11 values). Percentiles pick an
element (:func:`nearest_rank`), so they interpolate nothing.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def left_sum(values: Iterable[float]) -> float:
    """``values`` added strictly left to right from the integer 0, exactly
    what the builtin ``sum`` returned before Python 3.12."""
    total = 0
    for value in values:
        total += value
    return total


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` percentile (``q`` in [0, 1]) of an ascending
    sequence: its ``ceil(q * n)``-th element (the first for ``q = 0``),
    0.0 when it is empty."""
    if not ordered:
        return 0.0
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


__all__ = ["left_sum", "nearest_rank"]
