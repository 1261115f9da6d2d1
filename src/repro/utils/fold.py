"""One explicit left fold for modelled float reductions.

CPython 3.12 changed the builtin ``sum`` of floats to compensated
(Neumaier) summation, while 3.10 and 3.11 add strictly left to right, so
the same reduction can differ by an ULP between interpreters. Modelled
seconds are the output under test and must be the same bits everywhere:
every modelled float reduction goes through :func:`left_sum`, which adds
left to right on every Python (the 3.11 values).
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``values`` added strictly left to right from the integer 0, exactly
    what the builtin ``sum`` returned before Python 3.12."""
    total = 0
    for value in values:
        total += value
    return total


__all__ = ["left_sum"]
