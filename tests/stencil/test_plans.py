"""Memoised flat-run stencil plans and bindings against per-axis slicing
built per call.

Each operator looks up one plan per (operator, axis lengths after the
first, axis, order, spacing and its type, scalar type): the flat slices,
seams and coefficient scalars of its unit-stride run. A binding applies a
plan to one field and one ``out``, cutting their views once, and runs as
often as the field changes; each public operator binds, then runs once.
``CPML`` builds its broadcast damping profiles once, and a damping binding
cuts them and the memory variable to one derivative buffer's rows. The
references below are per-axis slice bodies built on every call; every
result must equal theirs bit for bit (compared as unsigned integers, so
-0.0 differs from +0.0 and NaNs compare by payload). The staggered
operators write every point of ``out``: it must equal the reference's
``out=None`` result, border +0.0 included.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.boundary.cpml import CPML, DampingBinding
from repro.grid import Grid
from repro.stencil import operators
from repro.stencil.coefficients import (
    second_derivative_coefficients,
    staggered_coefficients,
)
from repro.stencil.operators import (
    LaplacianBinding,
    SecondBinding,
    StaggeredBinding,
    laplacian,
    second_derivative,
    staggered_diff_backward,
    staggered_diff_forward,
    stencil_radius,
)
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError


# ----------------------------------------------------------------------
# the per-call references
# ----------------------------------------------------------------------
def _axis_slice(ndim, axis, sl):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def ref_second_derivative(u, axis, spacing, order=8, out=None, accumulate=False):
    m = stencil_radius(order)
    n = u.shape[axis]
    if n < 2 * m + 1:
        raise ConfigurationError(f"axis {axis} too short")
    c0, side = second_derivative_coefficients(order)
    inv_h2 = 1.0 / (spacing * spacing)
    ndim = u.ndim
    center = _axis_slice(ndim, axis, slice(m, n - m))
    if out is None:
        out = np.zeros_like(u)
        accumulate = False
    scal = u.dtype.type
    acc = np.multiply(u[center], scal(c0 * inv_h2))
    for k, ck in enumerate(side, start=1):
        up = u[_axis_slice(ndim, axis, slice(m + k, n - m + k))]
        dn = u[_axis_slice(ndim, axis, slice(m - k, n - m - k))]
        acc += scal(ck * inv_h2) * (up + dn)
    if accumulate:
        out[center] += acc
    else:
        out[center] = acc
    return out


def ref_laplacian(u, spacing, order=8, out=None):
    if out is None:
        out = np.zeros_like(u)
    else:
        out.fill(0.0)
    for axis, h in enumerate(spacing):
        ref_second_derivative(u, axis, h, order=order, out=out, accumulate=True)
    return out


def ref_staggered_diff_forward(u, axis, spacing, order=8, out=None):
    m = stencil_radius(order)
    n = u.shape[axis]
    if n < 2 * m:
        raise ConfigurationError(f"axis {axis} too short")
    coefs = staggered_coefficients(order)
    inv_h = 1.0 / spacing
    ndim = u.ndim
    target = _axis_slice(ndim, axis, slice(m - 1, n - m))
    if out is None:
        out = np.zeros_like(u)
    scal = u.dtype.type
    acc = None
    for k, ck in enumerate(coefs, start=1):
        hi = u[_axis_slice(ndim, axis, slice(m - 1 + k, n - m + k))]
        lo = u[_axis_slice(ndim, axis, slice(m - k, n - m - k + 1))]
        term = scal(ck * inv_h) * (hi - lo)
        acc = term if acc is None else acc + term
    out[target] = acc
    return out


def ref_staggered_diff_backward(u, axis, spacing, order=8, out=None):
    m = stencil_radius(order)
    n = u.shape[axis]
    if n < 2 * m + 1:
        raise ConfigurationError(f"axis {axis} too short")
    coefs = staggered_coefficients(order)
    inv_h = 1.0 / spacing
    ndim = u.ndim
    target = _axis_slice(ndim, axis, slice(m, n - m + 1))
    if out is None:
        out = np.zeros_like(u)
    scal = u.dtype.type
    acc = None
    for k, ck in enumerate(coefs, start=1):
        hi = u[_axis_slice(ndim, axis, slice(m + k - 1, n - m + k))]
        lo = u[_axis_slice(ndim, axis, slice(m - k, n - m - k + 1))]
        term = scal(ck * inv_h) * (hi - lo)
        acc = term if acc is None else acc + term
    out[target] = acc
    return out


def ref_damp(cpml, name, axis, deriv, half, rows=None):
    shape = cpml.grid.shape
    if rows is not None:
        shape = (len(range(shape[0])[rows]),) + shape[1:]
    if deriv.shape != shape:
        raise ConfigurationError("derivative shape does not match grid rows")
    if cpml.width == 0:
        return deriv
    psi = cpml._psi.get(name)
    if psi is None:
        psi = np.zeros(cpml.grid.shape, dtype=DTYPE)
        cpml._psi[name] = psi

    def broadcast(arr1d):
        shape_ones = [1] * cpml.grid.ndim
        shape_ones[axis] = len(arr1d)
        return arr1d.reshape(shape_ones)

    b = broadcast(cpml.b[axis][half])
    a = broadcast(cpml.a[axis][half])
    if rows is not None:
        psi = psi[rows]
        if axis == 0:
            b, a = b[rows], a[rows]
    psi *= b
    psi += a * deriv
    deriv += psi
    return deriv


#: operator -> (plan, reference, shortest axis for radius m, written range
#: along the axis for radius m and length n)
OPS = {
    "second": (
        second_derivative, ref_second_derivative,
        lambda m: 2 * m + 1, lambda m, n: (m, n - m),
    ),
    "forward": (
        staggered_diff_forward, ref_staggered_diff_forward,
        lambda m: 2 * m, lambda m, n: (m - 1, n - m),
    ),
    "backward": (
        staggered_diff_backward, ref_staggered_diff_backward,
        lambda m: 2 * m + 1, lambda m, n: (m, n - m + 1),
    ),
}
#: a spacing given as a Python float, an np.float32 and an np.float64
SPACING_TYPES = (float, np.float32, np.float64)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _assert_bitwise(got, want, msg="") -> None:
    assert got.shape == want.shape, msg
    np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=msg)


#: how a field sits in memory: C-contiguous, a row band of a taller array
#: (C-contiguous too), a column slice of a wider one, or every other point
#: along the last axis (neither is C-contiguous, in 1-D the last one only)
LAYOUTS = ("contiguous", "band", "columns", "strided")


def _field(rng, shape, dtype, layout):
    """Random values (signed zeros among them) of ``shape``, laid out as
    ``layout`` (one of :data:`LAYOUTS`)."""
    pad = [0] * len(shape)
    if layout == "band":
        pad[0] = 5
    elif layout == "columns":
        pad[min(1, len(shape) - 1)] = 7
    elif layout == "strided":
        pad[-1] = shape[-1]
    full = rng.standard_normal([n + p for n, p in zip(shape, pad)]).astype(dtype)
    full[rng.random(full.shape) < 0.1] = dtype(-0.0)
    full[rng.random(full.shape) < 0.1] = dtype(0.0)
    if layout == "strided":
        return full[..., ::2]
    cut = tuple(slice(p // 2, p // 2 + n) for n, p in zip(shape, pad))
    return full[cut]


#: orders whose coefficients each operator can represent: the 2nd-derivative
#: weights lose their symmetry check past order 12
ORDERS = {
    op: tuple(order for order in range(2, 17, 2) if op != "second" or order <= 12)
    for op in OPS
}


def _check_call(fn, ref, op, u, axis, h, order, out=None, accumulate=False):
    """One call against its reference, bit for bit: ``out`` (if given) must
    receive the result; a staggered operator writes all of it (the
    reference's ``out=None`` result), ``second`` only its valid interior."""
    extra = {"accumulate": True} if accumulate else {}
    if out is None:
        _assert_bitwise(fn(u, axis, h, order, **extra), ref(u, axis, h, order, **extra))
        return
    init = out.copy()
    got = fn(u, axis, h, order, out=out, **extra)
    assert got is out
    if op == "second":
        want = ref(u, axis, h, order, out=init.copy(), **extra)
        lo, hi = OPS[op][3](order // 2, u.shape[axis])
        border = np.ones(u.shape[axis], dtype=bool)
        border[lo:hi] = False
        _assert_bitwise(
            np.compress(border, out, axis=axis),
            np.compress(border, init, axis=axis),
            "border written",
        )
    else:
        want = ref(u, axis, h, order)
    _assert_bitwise(out, want, f"spacing {type(h).__name__}")


@st.composite
def _calls(draw):
    op = draw(st.sampled_from(sorted(OPS)))
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(0, ndim - 1))
    order = draw(st.sampled_from(ORDERS[op]))
    m = order // 2
    shape = [draw(st.integers(1, 6)) for _ in range(ndim)]
    # down to the shortest axis the operator takes (2m, or 2m + 1)
    shape[axis] = OPS[op][2](m) + draw(st.integers(0, 5))
    return dict(
        op=op, axis=axis, order=order, shape=tuple(shape),
        dtype=draw(st.sampled_from((np.float32, np.float64))),
        layout=draw(st.sampled_from(LAYOUTS)),
        out=draw(st.sampled_from(("none",) + LAYOUTS)),
        accumulate=op == "second" and draw(st.booleans()),
        # float32-representable, so the three spacing types compare equal
        spacing=draw(st.floats(0.25, 64.0, width=32)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=_calls())
def test_plans_bitwise_like_per_call_construction(call):
    """Every operator, ndim 1-3, orders 2-16, every axis, axis lengths down
    to the minimum, float32 and float64 fields in four layouts, ``out``
    absent or holding random values in any of the four layouts,
    ``accumulate``; the same spacing value as a float, an np.float32 and
    an np.float64, in turn (equal keys but for the type, whose arithmetic
    differs)."""
    op = call["op"]
    fn, ref, _, _ = OPS[op]
    rng = np.random.default_rng(call["seed"])
    u = _field(rng, call["shape"], call["dtype"], call["layout"])
    u0 = u.copy()
    for cast in SPACING_TYPES:
        out = None
        if call["out"] != "none":
            out = _field(rng, call["shape"], call["dtype"], call["out"])
        _check_call(fn, ref, op, u, call["axis"], cast(call["spacing"]),
                    call["order"], out, call["accumulate"])
    _assert_bitwise(u, u0, "input written")


@pytest.mark.parametrize("op, order", [
    (op, order) for op in sorted(OPS) for order in ORDERS[op]
])
def test_shortest_axes_in_every_layout(op, order):
    """Axis lengths 2m and 2m + 1 (the shortest ones, one of them the
    minimum), every axis of 1-3 dimensions with two lines or more around
    it, every layout of the field and of ``out``: each seam of the flat
    run, down to a single point, reads +0.0 or keeps ``out``'s value."""
    fn, ref, need, _ = OPS[op]
    m = order // 2
    rng = np.random.default_rng(order)
    for ndim in (1, 2, 3):
        for axis in range(ndim):
            for n in {need(m), 2 * m + 1}:
                shape = [3] * ndim
                shape[axis] = n
                for layout, out_layout in itertools.product(LAYOUTS, (None,) + LAYOUTS):
                    u = _field(rng, tuple(shape), np.float32, layout)
                    for accumulate in {False, op == "second"}:
                        out = (None if out_layout is None
                               else _field(rng, tuple(shape), np.float32, out_layout))
                        _check_call(fn, ref, op, u, axis, 10.0, order, out, accumulate)


def test_out_sharing_memory_with_the_field():
    """A run reads the field after it has written ``out``, so an ``out``
    that overlaps the field gets one copy of a fresh result: the same bits
    as a separate ``out``."""
    rng = np.random.default_rng(3)
    for op in ("forward", "backward"):
        fn, ref, _, _ = OPS[op]
        for axis in (0, 1):
            u = _field(rng, (12, 11), np.float32, "contiguous")
            want = ref(u, axis, 10.0, 4)
            assert fn(u, axis, 10.0, 4, out=u) is u
            _assert_bitwise(u, want, op)
    u = _field(rng, (12, 11), np.float32, "contiguous")
    want = ref_laplacian(u, (10.0, 12.5), 4)
    _assert_bitwise(laplacian(u, (10.0, 12.5), 4, out=u), want)


def test_a_flat_run_is_never_a_silent_copy():
    """The flat view of an array that is not C-contiguous raises rather
    than copies; the operators route such arrays through one explicit
    copy instead (the layouts above)."""
    a = np.zeros((6, 8), np.float32)
    flat = operators._flat(a)
    flat[5] = 1.0
    assert a[0, 5] == 1.0
    for view in (a[:, 1:], a[:, ::2], a.T):
        with pytest.raises(ValueError):
            operators._flat(view)


@settings(max_examples=60, deadline=None)
@given(
    ndim=st.integers(1, 3),
    order=st.sampled_from(ORDERS["second"]),
    dtype=st.sampled_from((np.float32, np.float64)),
    spacing=st.lists(
        st.tuples(st.sampled_from(SPACING_TYPES), st.floats(0.25, 64.0, width=32)),
        min_size=3, max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_laplacian_bitwise_like_per_call_construction(ndim, order, dtype, spacing, seed):
    """Every axis's run added into ``out`` in one pass, seams +0.0, equals
    the per-axis sum over each centre; fields and ``out`` in every layout,
    axis lengths from the shortest (2m + 1) up."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(order + 1, order + 6, ndim))
    u = _field(rng, shape, dtype, LAYOUTS[seed % len(LAYOUTS)])
    h = tuple(cast(v) for cast, v in spacing[:ndim])
    _assert_bitwise(laplacian(u, h, order), ref_laplacian(u, h, order))
    out = _field(rng, shape, dtype, LAYOUTS[seed // 7 % len(LAYOUTS)])
    ref_out = out.copy()
    assert laplacian(u, h, order, out=out) is out
    _assert_bitwise(out, ref_laplacian(u, h, order, out=ref_out))


# ----------------------------------------------------------------------
# bindings: built once, run as often as the field changes
# ----------------------------------------------------------------------
#: where a binding's ``out`` is: absent, the field itself, or its own
#: array in one of the :data:`LAYOUTS`
OUTS = ("none", "field") + LAYOUTS


def _outs(rng, u, twin, where, dtype):
    """The ``out`` a binding on ``u`` gets, placed as ``where`` (one of
    :data:`OUTS`), and the public call's on ``twin``, a copy of ``u``."""
    if where == "field":
        return u, twin
    if where == "none":
        return None, None
    out = _field(rng, u.shape, dtype, where)
    return out, out.copy()


@st.composite
def _bound_calls(draw):
    call = draw(_calls())
    call["out"] = draw(st.sampled_from(OUTS))
    call["out_dtype"] = draw(st.sampled_from((np.float32, np.float64)))
    call["runs"] = draw(st.integers(3, 5))
    return call


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=_bound_calls())
def test_binding_reruns_bitwise_like_the_public_call(call):
    """A binding built once and run three to five times, the field
    rewritten in place before each run: every run gives the public call's
    bits on a twin, for every operator, field layout and ``out`` (absent,
    the field itself, or in any layout, of the field's dtype or another).
    An ``out`` the run cannot be written straight into (not C-contiguous,
    another dtype, or the field) takes the documented copy: the run still
    returns ``out``, holding every bit the public call writes."""
    op, axis, order = call["op"], call["axis"], call["order"]
    fn = OPS[op][0]
    h = call["spacing"]
    rng = np.random.default_rng(call["seed"])
    u = _field(rng, call["shape"], call["dtype"], call["layout"])
    twin = u.copy()
    out, twin_out = _outs(rng, u, twin, call["out"], call["out_dtype"])
    if op == "second":
        bound = SecondBinding(u, axis, h, order, out, call["accumulate"])
    else:
        bound = StaggeredBinding(op, u, axis, h, order, out)
    extra = {"accumulate": True} if call["accumulate"] else {}
    for _ in range(call["runs"]):
        values = _field(rng, call["shape"], call["dtype"], "contiguous")
        u[...] = values
        twin[...] = values
        got = bound.run()
        want = fn(twin, axis, h, order, out=twin_out, **extra)
        if out is not None:
            assert got is out
        _assert_bitwise(got, want, f"out {call['out']}")


@settings(max_examples=60, deadline=None)
@given(
    ndim=st.integers(1, 3),
    order=st.sampled_from(ORDERS["second"]),
    dtype=st.sampled_from((np.float32, np.float64)),
    out_dtype=st.sampled_from((np.float32, np.float64)),
    where=st.sampled_from(OUTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_laplacian_binding_reruns_bitwise_like_the_public_call(
    ndim, order, dtype, out_dtype, where, seed
):
    """A Laplacian binding run three times, the field rewritten in place
    before each run, gives the public call's bits on a twin, for a field
    in every layout and every ``out`` of :data:`OUTS`."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(order + 1, order + 6, ndim))
    u = _field(rng, shape, dtype, LAYOUTS[seed % len(LAYOUTS)])
    twin = u.copy()
    h = tuple(float(x) for x in rng.uniform(5.0, 20.0, ndim))
    out, twin_out = _outs(rng, u, twin, where, out_dtype)
    bound = LaplacianBinding(u, h, order, out)
    for _ in range(3):
        values = _field(rng, shape, dtype, "contiguous")
        u[...] = values
        twin[...] = values
        got = bound.run()
        if out is not None:
            assert got is out
        _assert_bitwise(got, laplacian(twin, h, order, out=twin_out), where)


@pytest.mark.parametrize("op, order", [
    (op, order) for op in sorted(OPS) for order in ORDERS[op]
])
def test_every_spacing_type_keeps_its_own_coefficients(op, order):
    """At orders 2-16, a float spacing and an equal np.float32 or np.float64
    one each get the coefficients their own arithmetic gives, whichever was
    planned first."""
    fn, ref, need, _ = OPS[op]
    rng = np.random.default_rng(order)
    u = rng.standard_normal((need(order // 2) + 3, 4)).astype(np.float32)
    for value in (10.0, 12.5, 3.7, 0.3):
        for cast in SPACING_TYPES + SPACING_TYPES[::-1]:
            h = cast(float(np.float32(value)))
            _assert_bitwise(fn(u, 0, h, order), ref(u, 0, h, order), cast.__name__)


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("ndim", (1, 2, 3))
@pytest.mark.parametrize("order", (2, 4, 6, 8))
def test_short_axis_raises_after_its_plan_exists(op, ndim, order):
    """A plan fits every axis length, so the length check runs on each call:
    an axis one point short raises ConfigurationError, before and after a
    call of the same key has built the plan."""
    fn, ref, need, _ = OPS[op]
    m = order // 2
    for axis in range(ndim):
        for h in (10.0, np.float32(10.0)):
            shape = [3] * ndim
            shape[axis] = need(m)
            fn(np.ones(shape, np.float32), axis, h, order)
            shape[axis] = need(m) - 1
            short = np.ones(shape, np.float32)
            for f in (fn, ref):
                with pytest.raises(ConfigurationError):
                    f(short, axis, h, order)


def test_set_up_runs_only_while_building(monkeypatch):
    """Once a plan and the profiles exist, a call builds no plan, slice
    tuple or broadcast profile. Once a binding exists (on a C-contiguous
    field, with an ``out`` its run is written straight into), running it
    looks up no plan, takes no flat view, checks no ``out``, tests no
    overlap and cuts no profile."""
    grid = Grid((24, 20), spacing=10.0)
    cpml = CPML(grid, 4, vmax=3000.0, dt=1e-3)
    u = np.ones(grid.shape, np.float32)
    calls = [
        lambda: laplacian(u, grid.spacing),
        lambda: second_derivative(u, 1, 10.0),
        lambda: staggered_diff_forward(u, 1, 10.0),
        lambda: staggered_diff_backward(u, 0, 10.0),
        lambda: cpml.damp("d", 0, u[3:9].copy(), True, rows=slice(3, 9)),
        lambda: cpml.damp("d", 1, u.copy(), False),
    ]
    for call in calls:
        call()
    bindings = [
        LaplacianBinding(u, grid.spacing, out=np.empty_like(u)),
        SecondBinding(u, 1, 10.0, out=np.empty_like(u)),
        SecondBinding(u, 0, 10.0, out=np.zeros_like(u), accumulate=True),
        StaggeredBinding("forward", u, 1, 10.0, out=np.empty_like(u)),
        StaggeredBinding("backward", u, 0, 10.0, out=np.empty_like(u)),
        DampingBinding(cpml, "d", 0, u[3:9].copy(), True, rows=slice(3, 9)),
        DampingBinding(cpml, "e", 1, u.copy(), False),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("per-call set-up")

    monkeypatch.setattr(operators, "_build_plan", refuse)
    monkeypatch.setattr(operators, "_axis_slice", refuse)
    monkeypatch.setattr(CPML, "_broadcast", refuse)
    for call in calls:
        call()
    for name in ("_plan", "_flat", "_writes_into"):
        monkeypatch.setattr(operators, name, refuse)
    monkeypatch.setattr(np, "may_share_memory", refuse)
    for bound in bindings * 2:
        bound.run()


def test_invalid_order_is_refused_on_every_call():
    u = np.ones((16, 16), np.float32)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            staggered_diff_forward(u, 0, 10.0, order=5)


# ----------------------------------------------------------------------
# C-PML damping profiles
# ----------------------------------------------------------------------
@st.composite
def _damp_runs(draw):
    ndim = draw(st.integers(2, 3))
    width = draw(st.sampled_from((0, 3, 5)))
    shape = tuple(
        draw(st.integers(2 * width + 2, 2 * width + 9)) for _ in range(ndim)
    )
    n0 = shape[0]
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            r0 = draw(st.integers(0, n0 - 1))
            rows = slice(r0, draw(st.integers(r0 + 1, n0)))
        else:
            rows = None
        calls.append((
            draw(st.sampled_from(("dpdx", "dqdz", "dvx"))),
            draw(st.integers(0, ndim - 1)),
            draw(st.booleans()),
            rows,
        ))
    return shape, width, calls, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_damp_runs())
def test_damp_bitwise_like_per_call_profiles(run):
    """Random grids, layer widths (0 included), memory variables, axes,
    halves and row windows: the damped derivative and every memory
    variable equal the per-call broadcast's, bit for bit."""
    shape, width, calls, seed = run
    grid = Grid(shape, spacing=10.0)
    cpml, twin = (CPML(grid, width, vmax=3000.0, dt=1e-3, alpha_max=20.0)
                  for _ in range(2))
    rng = np.random.default_rng(seed)
    for name, axis, half, rows in calls:
        n = shape[0] if rows is None else rows.stop - rows.start
        deriv = rng.standard_normal((n,) + shape[1:]).astype(DTYPE)
        got = cpml.damp(name, axis, deriv.copy(), half, rows=rows)
        want = ref_damp(twin, name, axis, deriv.copy(), half, rows=rows)
        _assert_bitwise(got, want, "damped derivative")
        assert cpml.memory_names() == twin.memory_names()
        for p, q in zip(cpml.memory_arrays(), twin.memory_arrays()):
            _assert_bitwise(p, q, name)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_damp_runs())
def test_damping_binding_reruns_bitwise_like_damp(run):
    """Each call of a random damping run (widths 0 and above, rows absent
    or a window) bound once and run three times, the derivative buffer
    rewritten in place before each run: the damped buffer and every
    memory variable equal ``CPML.damp``'s on a twin, bit for bit."""
    shape, width, calls, seed = run
    grid = Grid(shape, spacing=10.0)
    cpml, twin = (CPML(grid, width, vmax=3000.0, dt=1e-3, alpha_max=20.0)
                  for _ in range(2))
    rng = np.random.default_rng(seed)
    for name, axis, half, rows in calls:
        n = shape[0] if rows is None else rows.stop - rows.start
        deriv = np.empty((n,) + shape[1:], DTYPE)
        bound = DampingBinding(cpml, name, axis, deriv, half, rows)
        assert bound.holds(deriv, rows)
        for _ in range(3):
            deriv[...] = rng.standard_normal(deriv.shape)
            want = twin.damp(name, axis, deriv.copy(), half, rows=rows)
            assert bound.run() is deriv
            _assert_bitwise(deriv, want, "damped derivative")
            assert cpml.memory_names() == twin.memory_names()
            for p, q in zip(cpml.memory_arrays(), twin.memory_arrays()):
                _assert_bitwise(p, q, name)


def test_damping_binding_holds_only_its_own_call():
    """A damping binding holds for its own buffer, rows and live memory
    variable only: another buffer or window, or a restore that deleted the
    memory variable (born after the capture), makes it stale."""
    cpml = CPML(Grid((20, 12), spacing=10.0), 4, vmax=3000.0, dt=1e-3)
    before = cpml.capture()
    deriv = np.ones((6, 12), DTYPE)
    bound = DampingBinding(cpml, "d", 0, deriv, True, rows=slice(2, 8))
    assert bound.holds(deriv, slice(2, 8))
    assert not bound.holds(deriv.copy(), slice(2, 8))
    assert not bound.holds(deriv, slice(3, 9))
    bound.run()
    cpml.restore(before)
    assert cpml.memory_names() == ()
    assert not bound.holds(deriv, slice(2, 8))


def test_damp_refuses_a_window_of_the_wrong_rows():
    cpml = CPML(Grid((20, 12), spacing=10.0), 4, vmax=3000.0, dt=1e-3)
    with pytest.raises(ConfigurationError):
        cpml.damp("d", 0, np.zeros((5, 12), DTYPE), True, rows=slice(2, 8))


# ----------------------------------------------------------------------
# the memo stays bounded
# ----------------------------------------------------------------------
def test_memo_holds_one_plan_per_key_across_band_sizes(monkeypatch):
    """A banded el2d RTM shot and an ac3d shot step bands of many row
    counts; the memo gains one plan per (operator, axis lengths after the
    first, axis, order, spacing and its type, dtype), none per row count."""
    from repro.core import ModelingConfig, RTMConfig, run_modeling, run_rtm
    from repro.model import constant_model, layered_model

    plans: dict = {}
    monkeypatch.setattr(operators, "_PLANS", plans)
    keys, lengths = set(), set()
    plan = operators._plan

    def recording(op, u, axis, spacing, order):
        keys.add((op, u.shape[1:], axis, order, spacing, type(spacing), u.dtype))
        lengths.add(u.shape[0])
        return plan(op, u, axis, spacing, order)

    monkeypatch.setattr(operators, "_plan", recording)
    el2d = layered_model((96, 64), spacing=10.0, interfaces=[480.0],
                         velocities=[1500.0, 2400.0], vs_ratio=0.5)
    run_rtm(RTMConfig(physics="elastic", model=el2d, nt=60, peak_freq=15.0,
                      snap_period=4))
    ac3d = constant_model((40, 24, 24), spacing=10.0)
    run_modeling(ModelingConfig(physics="acoustic", model=ac3d, nt=16,
                                peak_freq=15.0, boundary_width=6))
    assert len(lengths) >= 10  # the bands went through many row counts
    assert len(plans) == len(keys)
    # el2d and ac3d: forward and backward derivatives along each axis, each
    # on one trailing shape
    assert {(op, tail) for op, tail, *_ in keys} == {
        ("forward", (64,)), ("backward", (64,)),
        ("forward", (24, 24)), ("backward", (24, 24)),
    }
    assert len(plans) == 2 * 2 + 2 * 3


#: a propagator's attributes that hold its kept bindings and band views
KEPT = ("_bindings", "_bound", "_kept_views")


def _arrays_in(x, into: list) -> list:
    """Every ndarray reachable from ``x`` through containers, namespaces and
    bindings (not through other objects, such as the C-PML a damping
    binding refers to)."""
    if isinstance(x, np.ndarray):
        into.append(x)
    elif isinstance(x, dict):
        for v in x.values():
            _arrays_in(v, into)
    elif isinstance(x, (list, tuple)):
        for v in x:
            _arrays_in(v, into)
    elif isinstance(x, SimpleNamespace) or type(x).__name__.endswith("Binding"):
        _arrays_in(vars(x), into)
    return into


def _own_arrays(p) -> list:
    """The propagator's own arrays: fields, coefficients, scratch and, in
    its boundary, psi and the profiles."""
    own = [v for k, v in vars(p).items() if k not in KEPT]
    for member in ("cpml", "pml"):
        if hasattr(p, member):
            own.append(vars(getattr(p, member)))
    return _arrays_in(own, [])


def test_bindings_stay_bounded_and_hold_views_not_buffers(monkeypatch):
    """2-D RTM shots whose bands change tens of times, then a full-grid
    shot: afterwards each propagator keeps one stencil and one damping
    binding per derivative call site, at most two isotropic step bindings
    (``u`` and ``u_prev`` alternate) and one set of band views, and every
    array they reference shares memory with one of the propagator's own
    arrays: a binding holds views, never a buffer of its own."""
    from repro.core import RTMConfig, run_rtm
    from repro.model import constant_model, layered_model
    from repro.propagators.base import Propagator

    seen: dict = {}
    step = Propagator.step

    def recording(self, sources=()):
        step(self, sources)
        seen.setdefault(id(self), (self, set()))[1].add(self._band)

    monkeypatch.setattr(Propagator, "step", recording)
    #: derivative call sites per step, by physics, in 2-D
    sites = {"acoustic": 4, "elastic": 8}

    def check(physics):
        assert seen
        for p, bands in seen.values():
            if physics == "isotropic":
                assert 1 <= len(p._bound) <= 2
            else:
                assert len(p._bindings) == sites[physics]
                assert all(len(b) == 2 for b in p._bindings.values())
            own = _own_arrays(p)
            for a in _arrays_in([getattr(p, k, None) for k in KEPT], []):
                assert any(np.may_share_memory(a, o) for o in own), (physics, a.shape)
        return max(len(bands) for _, bands in seen.values())

    for physics in ("isotropic", "acoustic", "elastic"):
        seen.clear()
        model = layered_model((128, 40), spacing=10.0, interfaces=[640.0],
                              velocities=[1500.0, 2400.0],
                              vs_ratio=0.5 if physics == "elastic" else None)
        run_rtm(RTMConfig(physics=physics, model=model, nt=60, peak_freq=15.0,
                          snap_period=4))
        assert check(physics) >= 10  # the band changed tens of times
    seen.clear()
    model = constant_model((40, 40), spacing=10.0, vs_ratio=0.5)
    run_rtm(RTMConfig(physics="elastic", model=model, nt=12, peak_freq=15.0,
                      snap_period=4, boundary_width=6))
    assert check("elastic") <= 2  # measured once, then every row
