"""Memoised flat-run stencil plans against per-axis slicing built per call.

Each operator looks up one plan per (operator, axis lengths after the
first, axis, order, spacing and its type, scalar type): the flat slices,
seams and coefficient scalars of its unit-stride run. ``CPML`` builds its
broadcast damping profiles once. The references below are per-axis slice
bodies built on every call; every result must equal theirs bit for bit
(compared as unsigned integers, so -0.0 differs from +0.0 and NaNs compare
by payload). The staggered operators write every point of ``out``: it
must equal the reference's ``out=None`` result, border +0.0 included.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.boundary.cpml import CPML
from repro.grid import Grid
from repro.stencil import operators
from repro.stencil.coefficients import (
    second_derivative_coefficients,
    staggered_coefficients,
)
from repro.stencil.operators import (
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
    tuple or broadcast profile."""
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

    def refuse(*args):
        raise AssertionError("per-call set-up")

    monkeypatch.setattr(operators, "_build_plan", refuse)
    monkeypatch.setattr(operators, "_axis_slice", refuse)
    monkeypatch.setattr(CPML, "_broadcast", refuse)
    for call in calls:
        call()


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
