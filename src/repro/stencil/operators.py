"""Vectorised stencil operators.

Each operator writes into the *valid interior* of a same-shape output array
and leaves a border of ``stencil_radius(order)`` points untouched (zero when
the caller passes a fresh array). The propagators keep wavefields inside an
absorbing layer wider than the stencil radius, so the untouched border never
feeds back into the physics.

All operators are pure NumPy slice arithmetic — views, not copies — so a
single fused expression per axis keeps memory traffic at the theoretical
minimum the roofline model in :mod:`repro.gpusim` assumes.

The set-up of a call is built once, as devito builds a stencil operator
once and applies it every time step: each call looks up the memoised
*plan* of its (operator, ndim, axis, order, spacing and its type, scalar
type) — the slice tuples and the coefficient scalars it applies
(:func:`_plan`). Slice stops count from the end of the axis, so the key
holds no length: one plan serves every length, and a live band growing
through many row counts adds no entry. The axis length is still checked
on every call. A planned call runs the same ufunc sequence on the same
scalars as building them per call did, so its results are bitwise those
of the per-call form (``tests/stencil/test_plans.py``).
"""

from __future__ import annotations

import numpy as np

from repro.stencil.coefficients import (
    DEFAULT_SPACE_ORDER,
    second_derivative_coefficients,
    staggered_coefficients,
)
from repro.utils.errors import ConfigurationError


def stencil_radius(order: int = DEFAULT_SPACE_ORDER) -> int:
    """Half-width of the stencil of the given accuracy order (4 for the
    paper's width-8 operators)."""
    if order <= 0 or order % 2 != 0:
        raise ConfigurationError(f"order must be a positive even integer, got {order}")
    return order // 2


def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


#: One plan per (operator, ndim, axis, order, spacing, type(spacing),
#: scalar type of the field): see :func:`_plan`. The spacing's type is part
#: of the key because the coefficient arithmetic follows it (``1.0 /
#: np.float32(h)`` rounds in float32), so a float spacing and an equal
#: ``np.float32`` one give different bits.
_PLANS: dict[tuple, tuple] = {}


def _build_plan(op: str, ndim: int, axis: int, order: int, spacing, scal) -> tuple:
    """The slices and coefficients of one operator call, for any axis
    length: every slice stop counts from the end of the axis.

    ``"second"`` gives ``(need, center, c0, terms)``, ``"forward"`` and
    ``"backward"`` give ``(need, target, terms)``: ``need`` is the shortest
    axis the operator accepts, and each term is ``(coefficient, hi, lo)``
    with the coefficient a ``scal`` scalar (the field's precision).
    """
    m = stencil_radius(order)

    def sl(start: int, from_end: int) -> tuple[slice, ...]:
        return _axis_slice(ndim, axis, slice(start, -from_end or None))

    if op == "second":
        c0, side = second_derivative_coefficients(order)
        inv_h2 = 1.0 / (spacing * spacing)
        terms = tuple(
            (scal(ck * inv_h2), sl(m + k, m - k), sl(m - k, m + k))
            for k, ck in enumerate(side, start=1)
        )
        return 2 * m + 1, sl(m, m), scal(c0 * inv_h2), terms
    inv_h = 1.0 / spacing
    terms = tuple(
        (scal(ck * inv_h), sl(m - 1 + k, m - k), sl(m - k, m + k - 1))
        for k, ck in enumerate(staggered_coefficients(order), start=1)
    )
    if op == "forward":
        return 2 * m, sl(m - 1, m), terms
    return 2 * m + 1, sl(m, m - 1), terms


def _plan(op: str, u: np.ndarray, axis: int, spacing, order: int) -> tuple:
    """The memoised plan of ``op`` for ``u``, after checking that ``u`` is
    long enough along ``axis`` (on every call: a plan fits any length)."""
    scal = u.dtype.type
    key = (op, u.ndim, axis, order, spacing, type(spacing), scal)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _build_plan(op, u.ndim, axis, order, spacing, scal)
    n = u.shape[axis]
    if n < plan[0]:
        raise ConfigurationError(
            f"axis {axis} has {n} points, needs >= {plan[0]} for order {order}"
        )
    return plan


def second_derivative(
    u: np.ndarray,
    axis: int,
    spacing: float,
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
    accumulate: bool = False,
) -> np.ndarray:
    """Centered 2nd derivative of ``u`` along ``axis``.

    Valid for indices ``radius .. n-radius-1`` along ``axis``; other
    positions of ``out`` are untouched. With ``accumulate=True`` the result
    is added to ``out`` instead of overwriting — that is how
    :func:`laplacian` fuses the axis contributions without temporaries.
    """
    _, center, c0, terms = _plan("second", u, axis, spacing, order)
    if out is None:
        out = np.zeros_like(u)
        accumulate = False
    acc = np.multiply(u[center], c0)
    for ck, up, dn in terms:
        acc += ck * (u[up] + u[dn])
    if accumulate:
        out[center] += acc
    else:
        out[center] = acc
    return out


def laplacian(
    u: np.ndarray,
    spacing: tuple[float, ...],
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """High-order Laplacian of ``u`` (sum of per-axis 2nd derivatives).

    The first axis overwrites ``out``'s interior and subsequent axes
    accumulate, so only the *common* interior (radius border on every axis)
    holds the complete Laplacian; that is the region the propagators update.
    """
    if len(spacing) != u.ndim:
        raise ConfigurationError(
            f"spacing needs {u.ndim} entries, got {len(spacing)}"
        )
    if out is None:
        out = np.zeros_like(u)
    else:
        out.fill(0.0)
    for axis, h in enumerate(spacing):
        second_derivative(u, axis, h, order=order, out=out, accumulate=True)
    return out


def _staggered(u: np.ndarray, out: np.ndarray | None, target, terms) -> np.ndarray:
    """Apply a staggered plan: the sum of ``coefficient * (hi - lo)`` terms
    into ``out[target]``."""
    if out is None:
        out = np.zeros_like(u)
    acc = None
    for ck, hi, lo in terms:
        term = ck * (u[hi] - u[lo])
        acc = term if acc is None else acc + term
    out[target] = acc
    return out


def staggered_diff_forward(
    u: np.ndarray,
    axis: int,
    spacing: float,
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """First derivative taken *forward* to half points: sample ``i`` of the
    result approximates ``du/dx`` at ``i + 1/2``.

    ``D+ u[i] = (1/h) * sum_m c_m (u[i+m] - u[i-m+1])``.
    Valid for ``i`` in ``m-1 .. n-m-1``.
    """
    _, target, terms = _plan("forward", u, axis, spacing, order)
    return _staggered(u, out, target, terms)


def staggered_diff_backward(
    u: np.ndarray,
    axis: int,
    spacing: float,
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """First derivative taken *backward* from half points: sample ``i`` of
    the result approximates ``du/dx`` at integer point ``i`` given samples at
    half points (stored with the same-shape convention, sample ``j`` == point
    ``j + 1/2``).

    ``D- u[i] = (1/h) * sum_m c_m (u[i+m-1] - u[i-m])``.
    Valid for ``i`` in ``m .. n-m``.
    """
    _, target, terms = _plan("backward", u, axis, spacing, order)
    return _staggered(u, out, target, terms)


# ----------------------------------------------------------------------
# cost metadata consumed by the GPU cost model
# ----------------------------------------------------------------------
def laplacian_reads_per_point(ndim: int, order: int = DEFAULT_SPACE_ORDER) -> int:
    """Distinct input samples per output point of the Laplacian: the paper's
    25-point figure for ndim=3, order=8."""
    return ndim * order + 1


def laplacian_flops_per_point(ndim: int, order: int = DEFAULT_SPACE_ORDER) -> int:
    """Floating-point operations per output point of the symmetric-form
    Laplacian: per axis, m adds for symmetric pairs, m multiplies, m adds to
    accumulate, plus the centre multiply-add."""
    m = order // 2
    per_axis = 3 * m
    return ndim * per_axis + 2
