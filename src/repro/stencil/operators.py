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

The set-up of a call is built in two layers, as devito builds a stencil
operator once and applies it every time step:

* a *plan* (:func:`_plan`) is memoised per (operator, axis lengths after
  the first, axis, order, spacing and its type, scalar type): the flat
  slices, the seam geometry and the coefficient scalars. Slice stops count
  from the end of the run, so the key holds no row count: one plan serves
  every length of the first axis, and a live band growing through many
  row counts adds no entry.
* a *binding* (:class:`StaggeredBinding`, :class:`SecondBinding`,
  :class:`LaplacianBinding`) applies a plan to one field and one
  destination: it checks the axis lengths and cuts every view a run reads
  or writes (the terms' flat operands, the destination's run, head, tail
  and seams) once, and its ``run`` method applies them to the field as it
  is then. A field that is not C-contiguous, or an ``out`` the run cannot
  be written straight into, takes its copies on every run. Temporaries
  (the term buffer, a second-derivative run) are allocated per run. A
  binding holds its field and ``out``; whoever keeps one rebuilds it when
  either is another object.

Each public operator binds, then runs once, so every ufunc sequence has
one definition. A run applies the same ufunc sequence to the same scalars,
point by point, as per-axis slicing built per call, so its results are
bitwise those of the per-call form (``tests/stencil/test_plans.py``).
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


def _seam_view(a: np.ndarray, seams) -> tuple[np.ndarray, ...]:
    """The seam points of the run-aligned flat array ``a`` as one view, or
    none along the first axis."""
    if seams is None:
        return ()
    region, line, width = seams
    return (a[region].reshape(-1, line)[:, :width],)


def _operands(src: np.ndarray, terms) -> list:
    """Each term ``(coefficient, a, b)`` of a plan with its flat slices
    ``a`` and ``b`` cut from the flat run ``src``."""
    return [(ck, src[a], src[b]) for ck, a, b in terms]


def _second_sum(acc: np.ndarray, mid: np.ndarray, c0, terms) -> None:
    """The centred second-derivative sum into ``acc``: the centre ``mid``
    times ``c0``, plus each term's coefficient times its two operands."""
    np.multiply(mid, c0, out=acc)
    term = np.empty_like(acc)
    for ck, up, dn in terms:
        np.add(up, dn, out=term)
        np.multiply(ck, term, out=term)
        np.add(acc, term, out=acc)


class SecondBinding:
    """:func:`second_derivative` bound to the field ``u`` and to ``out``.

    :meth:`run` writes (or, with ``accumulate``, adds) the derivative of
    ``u`` as it is then into the valid interior of ``out``, through its
    centre slice cut once, or into a fresh zeroed array when ``out`` is
    None."""

    def __init__(
        self,
        u: np.ndarray,
        axis: int,
        spacing: float,
        order: int = DEFAULT_SPACE_ORDER,
        out: np.ndarray | None = None,
        accumulate: bool = False,
    ):
        _, self._run, self._c0, self._terms, _, self._centre = _plan(
            "second", u, axis, spacing, order
        )
        self.u, self.out = u, out
        self._accumulate = accumulate and out is not None
        self._src = self._cut(_flat(u)) if u.flags.c_contiguous else None
        self._part = None if out is None else out[self._centre]

    def _cut(self, src: np.ndarray) -> tuple:
        return src[self._run], _operands(src, self._terms)

    def run(self) -> np.ndarray:
        u, out, part = self.u, self.out, self._part
        mid, terms = self._src or self._cut(_flat(np.ascontiguousarray(u)))
        buf = np.empty(u.shape, u.dtype)
        _second_sum(buf.reshape(-1)[self._run], mid, self._c0, terms)
        if out is None:
            out = np.zeros_like(u)
            part = out[self._centre]
        if self._accumulate:
            part += buf[self._centre]
        else:
            part[...] = buf[self._centre]
        return out


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
    return SecondBinding(u, axis, spacing, order, out, accumulate).run()


class LaplacianBinding:
    """:func:`laplacian` bound to the field ``u`` and to ``out``.

    :meth:`run` zero-fills ``out`` (a fresh array when ``out`` is None) and
    adds each axis's run of the derivative of ``u`` as it is then into it,
    seams +0.0."""

    def __init__(
        self,
        u: np.ndarray,
        spacing: tuple[float, ...],
        order: int = DEFAULT_SPACE_ORDER,
        out: np.ndarray | None = None,
    ):
        if len(spacing) != u.ndim:
            raise ConfigurationError(
                f"spacing needs {u.ndim} entries, got {len(spacing)}"
            )
        self.u, self.out = u, out
        self._plans = [_plan("second", u, axis, h, order) for axis, h in enumerate(spacing)]
        self._views = (
            self._cut(_flat(u), out)
            if u.flags.c_contiguous and _writes_into(out, u) else None
        )

    def _cut(self, src: np.ndarray, dest: np.ndarray) -> tuple:
        """Per axis: the centre and terms read from ``src``, the run and its
        seams, and the run of ``dest``."""
        flat = _flat(dest)
        return [
            (src[run], c0, _operands(src, terms), run, seams, flat[run])
            for _, run, c0, terms, seams, _ in self._plans
        ]

    def run(self) -> np.ndarray:
        u, views, dest = self.u, self._views, self.out
        if views is None:
            if not _writes_into(dest, u):
                dest = np.zeros(u.shape, u.dtype if dest is None else dest.dtype)
            views = self._cut(_flat(np.ascontiguousarray(u)), dest)
        if dest is self.out:
            dest.fill(0.0)
        for mid, c0, terms, run, seams, part in views:
            buf = np.empty(u.size, u.dtype)
            acc = buf[run]
            _second_sum(acc, mid, c0, terms)
            for seam in _seam_view(buf, seams):
                seam.fill(0)
            np.add(part, acc, out=part)
        return _delivered(dest, self.out)


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
    return LaplacianBinding(u, spacing, order, out).run()


class StaggeredBinding:
    """A staggered derivative, ``op`` ``"forward"``
    (:func:`staggered_diff_forward`) or ``"backward"``, bound to the field
    ``u`` and to ``out``.

    :meth:`run` writes the derivative of ``u`` as it is then into every
    point of ``out`` (the sum of ``coefficient * (a - b)`` terms over the
    run, +0.0 everywhere else), or of a fresh array when ``out`` is None,
    and returns it."""

    def __init__(
        self,
        op: str,
        u: np.ndarray,
        axis: int,
        spacing: float,
        order: int = DEFAULT_SPACE_ORDER,
        out: np.ndarray | None = None,
    ):
        self.u, self.out = u, out
        _, self._run, self._terms, *self._edges = _plan(op, u, axis, spacing, order)
        self._views = (
            self._cut(_flat(u), out)
            if u.flags.c_contiguous and _writes_into(out, u) else None
        )

    def _cut(self, src: np.ndarray, dest: np.ndarray) -> tuple:
        """The terms' operands in ``src``, the run of ``dest`` and the views
        of ``dest`` a run sets to +0.0 (head, tail and seams)."""
        flat = _flat(dest)
        head, tail, seams = self._edges
        zeros = (flat[head], flat[tail]) + _seam_view(flat, seams)
        return _operands(src, self._terms), flat[self._run], zeros

    def run(self) -> np.ndarray:
        views, dest = self._views, self.out
        if views is None:
            if not _writes_into(dest, self.u):
                dest = np.empty(self.u.shape, self.u.dtype)
            views = self._cut(_flat(np.ascontiguousarray(self.u)), dest)
        ((ck, hi, lo), *rest), acc, zeros = views
        np.subtract(hi, lo, out=acc)
        np.multiply(ck, acc, out=acc)
        if rest:
            term = np.empty_like(acc)
            for ck, hi, lo in rest:
                np.subtract(hi, lo, out=term)
                np.multiply(ck, term, out=term)
                np.add(acc, term, out=acc)
        for zero in zeros:
            zero.fill(0)
        return _delivered(dest, self.out)


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
    return StaggeredBinding("forward", u, axis, spacing, order, out).run()


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
    return StaggeredBinding("backward", u, axis, spacing, order, out).run()


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
