"""Vectorised stencil operators, run as unit-stride passes over one flat run.

The paper transposes its staggered kernels so that the innermost loop
walks unit stride (Fig. 13). The host form of the same cost is a NumPy
shift along any axis but the first: an N-D slice there is a strided view
that NumPy walks one short grid line at a time. So every operator here
views its C-contiguous field as one 1-D array, where a shift of ``k``
points along ``axis`` is a shift of ``k * s`` elements (``s`` the product
of the axis lengths after ``axis``), and takes every term of a derivative,
along any axis, from two flat slices of it: one contiguous pass per ufunc.

Such a run crosses from one grid line along ``axis`` into the next. Its
points there, the *seams* (``2m - 1`` per line boundary for a staggered
derivative of radius ``m``, ``2m`` for the second derivative), are points
a per-axis slice never writes. They compute on values from two grid lines
and are then set to +0.0, as are the points before and after the run, so
every point ends with exactly the bits per-axis slicing gives. On finite
fields of physical size a seam cannot overflow, so no floating-point error
state is switched around a call.

What each operator writes:

* :func:`staggered_diff_forward` and :func:`staggered_diff_backward` write
  every point of ``out``: the valid interior with the derivative, every
  other point with +0.0, which is what ``out=None`` returns. The run goes
  straight into ``out`` when it is C-contiguous, of the field's dtype and
  shape, and shares no memory with the field; any other ``out`` receives
  one copy of a fresh result.
* :func:`second_derivative` writes (or, with ``accumulate=True``, adds)
  only the valid interior of ``out``, through its centre slice, and leaves
  the border untouched.
* :func:`laplacian` zero-fills ``out`` and adds each axis's run into it in
  one contiguous pass, seams +0.0. That is bitwise the per-axis sum over
  each centre: adding +0.0 changes no value but -0.0, and a sum that
  starts at +0.0 never holds -0.0. Only the common interior (a radius
  border on every axis) holds the complete Laplacian; that is the region
  the propagators update.

A field that is not C-contiguous goes through one explicit contiguous copy;
a flat view is never a silent copy (:func:`_flat`).

The set-up of a call is built once, as devito builds a stencil operator
once and applies it every time step: each call looks up the memoised
*plan* of its (operator, axis lengths after the first, axis, order, spacing
and its type, scalar type) — the flat slices, the seam geometry and the
coefficient scalars it applies (:func:`_plan`). Slice stops count from the
end of the run, so the key holds no row count: one plan serves every
length of the first axis, and a live band growing through many row counts
adds no entry. The axis length is still checked on every call. A planned
call runs the same ufunc sequence on the same scalars, point by point, as
per-axis slicing built per call, so its results are bitwise those of the
per-call form (``tests/stencil/test_plans.py``).
"""

from __future__ import annotations

import math

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


def _flat(a: np.ndarray) -> np.ndarray:
    """``a`` as one flat run: a 1-D view of it, never a copy."""
    if not a.flags.c_contiguous:
        raise ValueError("a flat run needs a C-contiguous array")
    return a.reshape(-1)


def _writes_into(out: np.ndarray | None, u: np.ndarray) -> bool:
    """Whether a run over ``u`` may be written straight into ``out``: a
    C-contiguous array of ``u``'s shape and dtype that shares no memory
    with ``u`` (a run reads ``u`` after it has written ``out``)."""
    return (
        out is not None
        and out.flags.c_contiguous
        and out.shape == u.shape
        and out.dtype == u.dtype
        and not np.may_share_memory(out, u)
    )


def _delivered(dest: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The result computed into ``dest``, in ``out`` when one was given:
    one copy unless the run was written straight into it."""
    if out is None or dest is out:
        return dest
    out[...] = dest
    return out


#: One plan per (operator, axis lengths after the first, axis, order,
#: spacing, type(spacing), scalar type of the field): see :func:`_plan`.
#: The spacing's type is part of the key because the coefficient
#: arithmetic follows it (``1.0 / np.float32(h)`` rounds in float32), so a
#: float spacing and an equal ``np.float32`` one give different bits.
_PLANS: dict[tuple, tuple] = {}


def _build_plan(op: str, trailing: tuple[int, ...], axis: int, order: int, spacing, scal) -> tuple:
    """The flat slices, seams and coefficients of one operator call on a
    field whose axis lengths after the first are ``trailing``, for any
    first length: every slice stop counts from the end of the run.

    ``"second"`` gives ``(need, run, c0, terms, seams, centre)``,
    ``"forward"`` and ``"backward"`` give ``(need, run, terms, head, tail,
    seams)``. ``need`` is the shortest axis the operator accepts, ``run``
    the flat slice it computes and ``centre`` that slice's valid points as
    an N-D slice. Each term is ``(coefficient, a, b)`` with ``a`` and ``b``
    flat slices and the coefficient a ``scal`` scalar (the field's
    precision). ``head`` and ``tail`` are the flat slices before and after
    the run. ``seams`` is ``None`` along the first axis, where the run
    crosses no line boundary; otherwise ``(region, line, width)``: the
    ``region`` slice of a run-aligned flat array, cut into rows of
    ``line`` elements, begins each row with the ``width`` seam points of
    one line boundary.
    """
    m = stencil_radius(order)
    ndim = len(trailing) + 1
    axis %= ndim
    s = math.prod(trailing[axis:])

    def flat(lo: int, hi: int) -> slice:
        """From point ``lo`` of the first line along ``axis`` to ``hi``
        points before the end of the last."""
        return slice(lo * s, -hi * s or None)

    def layout(lo: int, hi: int) -> tuple:
        """The run of a stencil valid from point ``lo`` to ``hi`` points
        before the end of each line, and its seams."""
        seams = None
        if axis and s:
            n = trailing[axis - 1]
            seams = (flat(n - hi, hi), n * s, (lo + hi) * s)
        return flat(lo, hi), seams

    if op == "second":
        c0, side = second_derivative_coefficients(order)
        inv_h2 = 1.0 / (spacing * spacing)
        terms = tuple(
            (scal(ck * inv_h2), flat(m + k, m - k), flat(m - k, m + k))
            for k, ck in enumerate(side, start=1)
        )
        run, seams = layout(m, m)
        centre = _axis_slice(ndim, axis, slice(m, -m))
        return 2 * m + 1, run, scal(c0 * inv_h2), terms, seams, centre
    # D- u[i] = D+ u[i - 1]: one run of terms, written one point later
    lo, hi, need = (m - 1, m, 2 * m) if op == "forward" else (m, m - 1, 2 * m + 1)
    inv_h = 1.0 / spacing
    terms = tuple(
        (scal(ck * inv_h), flat(m - 1 + k, m - k), flat(m - k, m + k - 1))
        for k, ck in enumerate(staggered_coefficients(order), start=1)
    )
    run, seams = layout(lo, hi)
    tail = slice(-hi * s, None) if hi * s else slice(0, 0)
    return need, run, terms, slice(0, lo * s), tail, seams


def _plan(op: str, u: np.ndarray, axis: int, spacing, order: int) -> tuple:
    """The memoised plan of ``op`` for ``u``, after checking that ``u`` is
    long enough along ``axis`` (on every call: a plan fits any row
    count)."""
    n = u.shape[axis]
    scal = u.dtype.type
    key = (op, u.shape[1:], axis, order, spacing, type(spacing), scal)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _build_plan(op, u.shape[1:], axis, order, spacing, scal)
    if n < plan[0]:
        raise ConfigurationError(
            f"axis {axis} has {n} points, needs >= {plan[0]} for order {order}"
        )
    return plan


def _zero_seams(a: np.ndarray, seams) -> None:
    """Set the seam points of the run-aligned flat array ``a`` to +0.0."""
    if seams is not None:
        region, line, width = seams
        a[region].reshape(-1, line)[:, :width] = 0


def _second_run(src: np.ndarray, run: slice, c0, terms) -> np.ndarray:
    """A flat array aligned with ``src`` whose ``run`` holds the centred
    second-derivative sum (the rest is not written)."""
    buf = np.empty_like(src)
    acc = buf[run]
    np.multiply(src[run], c0, out=acc)
    term = np.empty_like(acc)
    for ck, up, dn in terms:
        np.add(src[up], src[dn], out=term)
        np.multiply(ck, term, out=term)
        np.add(acc, term, out=acc)
    return buf


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
    is added to ``out`` instead of overwriting.
    """
    _, run, c0, terms, _, centre = _plan("second", u, axis, spacing, order)
    buf = _second_run(_flat(np.ascontiguousarray(u)), run, c0, terms)
    part = buf.reshape(u.shape)[centre]
    if out is None:
        out = np.zeros_like(u)
        accumulate = False
    if accumulate:
        out[centre] += part
    else:
        out[centre] = part
    return out


def laplacian(
    u: np.ndarray,
    spacing: tuple[float, ...],
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """High-order Laplacian of ``u`` (sum of per-axis 2nd derivatives).

    ``out`` is zero-filled, then each axis's run is added into it, so only
    the *common* interior (radius border on every axis) holds the complete
    Laplacian; that is the region the propagators update.
    """
    if len(spacing) != u.ndim:
        raise ConfigurationError(
            f"spacing needs {u.ndim} entries, got {len(spacing)}"
        )
    plans = [_plan("second", u, axis, h, order) for axis, h in enumerate(spacing)]
    src = _flat(np.ascontiguousarray(u))
    if _writes_into(out, u):
        dest = out
        dest.fill(0.0)
    else:
        dest = np.zeros(u.shape, u.dtype if out is None else out.dtype)
    flat = _flat(dest)
    for _, run, c0, terms, seams, _ in plans:
        buf = _second_run(src, run, c0, terms)
        _zero_seams(buf, seams)
        part = flat[run]
        np.add(part, buf[run], out=part)
    return _delivered(dest, out)


def _staggered(u: np.ndarray, out: np.ndarray | None, plan: tuple) -> np.ndarray:
    """Apply a staggered plan: the sum of ``coefficient * (a - b)`` terms
    over the run, +0.0 everywhere else, into every point of ``out``."""
    _, run, terms, head, tail, seams = plan
    src = _flat(np.ascontiguousarray(u))
    dest = out if _writes_into(out, u) else np.empty(u.shape, u.dtype)
    flat = _flat(dest)
    (ck, hi, lo), *rest = terms
    acc = flat[run]
    np.subtract(src[hi], src[lo], out=acc)
    np.multiply(ck, acc, out=acc)
    if rest:
        term = np.empty_like(acc)
        for ck, hi, lo in rest:
            np.subtract(src[hi], src[lo], out=term)
            np.multiply(ck, term, out=term)
            np.add(acc, term, out=acc)
    flat[head] = 0
    flat[tail] = 0
    _zero_seams(flat, seams)
    return _delivered(dest, out)


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
    Valid for ``i`` in ``m-1 .. n-m-1``. Every point of ``out`` is written:
    the valid interior with the derivative, the rest with +0.0 (as a fresh
    result from ``out=None``).
    """
    return _staggered(u, out, _plan("forward", u, axis, spacing, order))


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
    Valid for ``i`` in ``m .. n-m``. Every point of ``out`` is written: the
    valid interior with the derivative, the rest with +0.0 (as a fresh
    result from ``out=None``).
    """
    return _staggered(u, out, _plan("backward", u, axis, spacing, order))


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
