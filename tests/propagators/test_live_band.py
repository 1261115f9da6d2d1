"""The live band of :meth:`Propagator.step` against full-grid stepping.

A band spanning every row runs the full-grid step with no check, so a
propagator whose band is pinned to the whole grid before each step, and
that keeps no binding or band view from one step to the next (so each
call binds afresh, as the public operators do), is the reference. After
every operation, every field and C-PML memory variable of the banded
propagator, which keeps its views and bindings, must equal the
reference's bit for bit (compared as ``uint32``, so -0.0 differs from
+0.0), and every row outside the band must be +0.0. After every step the
observable (``snapshot_field``, which the elastic propagators derive over
the band only) must match too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model import constant_model, layered_model, with_thomsen
from repro.propagators import make_propagator

#: (physics, ndim, extra constructor arguments)
CASES = (
    ("isotropic", 2, {"pml_variant": "branchy"}),
    ("isotropic", 2, {"pml_variant": "restructured"}),
    ("isotropic", 2, {"pml_variant": "everywhere"}),
    ("acoustic", 2, {}),
    ("acoustic", 3, {}),
    ("elastic", 2, {}),
    ("elastic", 3, {}),
    ("vti", 2, {}),
)
KINDS = ("step",) * 6 + ("inject",) * 2 + ("capture", "restore", "reset")


def _ids(case):
    physics, ndim, extra = case
    return f"{physics}{ndim}d" + "".join(f"-{v}" for v in extra.values())


def _memory(p) -> dict[str, np.ndarray]:
    cpml = getattr(p, "cpml", None)
    if cpml is None:
        return {}
    return dict(zip(cpml.memory_names(), cpml.memory_arrays()))


def _assert_same_state(banded, full) -> None:
    assert banded.state.step == full.state.step
    for name, a in full.fields.items():
        np.testing.assert_array_equal(
            banded.fields[name].view(np.uint32), a.view(np.uint32), err_msg=name
        )
    # a memory variable is allocated by the first step that damps it; one
    # not allocated yet is +0.0 everywhere
    zero = np.zeros(full.grid.shape, dtype=np.float32)
    mb, mf = _memory(banded), _memory(full)
    for name in mb.keys() | mf.keys():
        np.testing.assert_array_equal(
            mb.get(name, zero).view(np.uint32),
            mf.get(name, zero).view(np.uint32),
            err_msg=name,
        )


def _assert_same_observable(banded, full) -> None:
    np.testing.assert_array_equal(
        banded.snapshot_field().view(np.uint32),
        full.snapshot_field().view(np.uint32),
        err_msg="snapshot_field",
    )


def _assert_zero_outside_band(p) -> None:
    if p._band is None:
        return
    r0, r1 = p._band
    for a in list(p.fields.values()) + list(_memory(p).values()):
        bits = a.view(np.uint32)
        assert not bits[:r0].any() and not bits[max(r0, r1):].any()


def _full_step(p, sources=()) -> None:
    """The reference: a band spanning the grid is the full-grid step, and
    with no binding or band view kept from the last step every call binds
    afresh."""
    for kept in ("_bindings", "_bound"):
        if hasattr(p, kept):
            getattr(p, kept).clear()
    p._kept_views = None
    p._band = (0, p.grid.shape[0])
    p.step(sources)


def _checking_invariant(p):
    """``p`` with its band invariant asserted at every step start: each
    row holding a nonzero bit pattern lies ``margin`` rows inside every
    band edge that is not a grid edge."""
    step_impl = p._step_impl

    def checked(v, rows, sources):
        if rows is not None:
            bits = [a.view(np.uint32) for a in list(p.fields.values())
                    + list(_memory(p).values())]
            live = np.flatnonzero(np.any([b.reshape(len(b), -1).any(axis=1)
                                          for b in bits], axis=0))
            if live.size:
                assert rows.start == 0 or live[0] >= rows.start + p.margin
                assert rows.stop == p.grid.shape[0] or live[-1] < rows.stop - p.margin
        step_impl(v, rows, sources)

    p._step_impl = checked
    return p


def _pair(physics, ndim, extra, model, **kwargs):
    """A banded propagator (invariant checked) and its full-grid twin."""
    banded, full = (
        make_propagator(physics, model, check_health_every=0, **extra, **kwargs)
        for _ in range(2)
    )
    return _checking_invariant(banded), full


@st.composite
def _runs(draw, physics: str, ndim: int):
    order = draw(st.sampled_from((4, 8)))
    r = order // 2
    width = draw(st.sampled_from((0, r + 1, r + 3)))
    n_min = max(2 * width + 2, 2 * order + 1)
    # a band within two margins of the grid takes every row: leave room
    margin = (1 + (1 if physics in ("isotropic", "vti") else 2)) * r
    n0 = n_min + 4 * margin + draw(st.integers(0, 30 if ndim == 2 else 10))
    lateral = tuple(
        draw(st.integers(n_min, n_min + (8 if ndim == 2 else 2)))
        for _ in range(ndim - 1)
    )
    shape = (n0,) + lateral
    interfaces = sorted(
        draw(st.lists(st.integers(1, n0 - 1), min_size=1, max_size=2, unique=True))
    )
    velocities = [
        draw(st.floats(1500.0, 3000.0)) for _ in range(len(interfaces) + 1)
    ]
    model = layered_model(
        shape, spacing=10.0, interfaces=[10.0 * i for i in interfaces],
        velocities=velocities,
        vs_ratio=0.5 if physics == "elastic" else None,
    )
    if physics == "vti":
        eps = draw(st.floats(0.0, 0.3))
        model = with_thomsen(model, eps, draw(st.floats(0.0, eps)))

    def point():
        row = draw(st.sampled_from((0, n0 - 1)) | st.integers(0, n0 - 1))
        return (row,) + tuple(draw(st.integers(0, n - 1)) for n in lateral)

    amp = st.floats(-50.0, 50.0, allow_nan=False)
    ops = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=4, max_size=16)):
        if kind == "step":
            sources = [(point(), draw(amp))] if draw(st.integers(0, 2)) else []
            ops.append((kind, sources))
        elif kind == "inject":
            pts = [point() for _ in range(draw(st.integers(1, 3)))]
            ops.append((kind, (np.array(pts), [draw(amp) for _ in pts])))
        elif kind == "restore":
            ops.append((kind, draw(st.integers(0, 3))))
        else:
            ops.append((kind, None))
    return model, order, width, ops


def _apply(p, kind, arg, captures, step) -> None:
    if kind == "step":
        step(p, arg)
    elif kind == "inject":
        indices, amplitudes = arg
        p.inject_pressure(indices, amplitudes, scale=np.float32(0.5))
    elif kind == "capture":
        captures.append(p.capture_state())
    elif kind == "restore" and captures:
        p.restore_state(captures[arg % len(captures)])
    elif kind == "reset":
        p.reset()


@pytest.mark.parametrize("case", CASES, ids=_ids)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_band_steps_bitwise_like_the_full_grid(case, data):
    """Random layered models and shapes, boundary widths 0 and above the
    stencil radius, orders 4 and 8, sources on any row (0 and n-1
    included), receiver injection anywhere, restores to earlier captures
    and resets: the band never changes a bit."""
    physics, ndim, extra = case
    model, order, width, ops = data.draw(_runs(physics, ndim))
    banded, full = _pair(
        physics, ndim, extra, model, space_order=order, boundary_width=width
    )
    caps_b, caps_f = [], []
    for kind, arg in ops:
        _apply(banded, kind, arg, caps_b, lambda p, s: p.step(s))
        _apply(full, kind, arg, caps_f, _full_step)
        _assert_same_state(banded, full)
        _assert_zero_outside_band(banded)
        if kind == "step":
            _assert_same_observable(banded, full)


def test_band_inside_the_interior_keeps_the_absorbing_formula():
    """A band wholly between the top and bottom absorbing slabs: whether
    the grid absorbs is read from the whole grid, so the branchy update
    keeps its formulas there, bit for bit."""
    model = layered_model((128, 48), spacing=10.0, interfaces=[640.0],
                          velocities=[1800.0, 2400.0])
    banded, full = _pair("isotropic", 2, {"pml_variant": "branchy"}, model,
                         boundary_width=16)
    src = [((64, 24), 1.0)]
    for _ in range(4):
        banded.step(src)
        _full_step(full, src)
        r0, r1 = banded._band
        assert 16 <= r0 and r1 <= 128 - 16
        _assert_same_state(banded, full)


def _small_pair(case):
    physics, ndim, extra = case
    shape = (64, 20) if ndim == 2 else (64, 18, 18)
    model = constant_model(shape, spacing=10.0, vs_ratio=0.5)
    if physics == "vti":
        model = with_thomsen(model, 0.2, 0.1)
    return _pair(physics, ndim, extra, model, boundary_width=5)


def _at(row, p):
    return (row,) + (9,) * (p.grid.ndim - 1)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_negative_zero_is_live(case):
    """-0.0 written into a state array before the first step is live: a
    full-grid step turns it into +0.0, so its row must be stepped."""
    banded, full = _small_pair(case)
    for p in (banded, full):
        for a in p.fields.values():
            a[_at(40, p)] = np.float32(-0.0)
    src = [(_at(6, banded), 1.0)]
    for _ in range(3):
        banded.step(src)
        _full_step(full, src)
        _assert_same_state(banded, full)
        _assert_same_observable(banded, full)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_restore_measures_the_band_again(case):
    """Restoring a capture whose live rows lie outside the current band (a
    reset and a source elsewhere came between) measures the band anew,
    and the narrower band it finds steps exactly; the observable derived
    over the band forgets the rows the new band leaves out."""
    banded, full = _small_pair(case)
    deep, shallow = [(_at(34, banded), 1.0)], [(_at(4, banded), 1.0)]
    ops = (
        [("step", deep), ("capture", None)] + [("step", deep)] * 5
        + [("reset", None), ("step", shallow), ("restore", 0)]
        + [("step", [])] * 3
    )
    caps_b, caps_f = [], []
    for kind, arg in ops:
        _apply(banded, kind, arg, caps_b, lambda p, s: p.step(s))
        _apply(full, kind, arg, caps_f, _full_step)
        _assert_same_state(banded, full)
        _assert_zero_outside_band(banded)
        if kind == "step":
            _assert_same_observable(banded, full)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_kept_bindings_follow_restores_resets_and_band_changes(case):
    """Kept views and bindings against the reference, which binds afresh
    every step: live rows near both grid edges make every band the whole
    grid, so a restore to the capture taken before the first step (before
    any C-PML memory variable existed; each one born since is deleted)
    keeps the views and must still bind every damping again; after a
    reset, a source inside the grid grows the band step by step, so views
    and bindings are cut again at each new band."""
    banded, full = _small_pair(case)
    edges = (np.array([_at(6, banded), _at(57, banded)]), [1.0, -1.0])
    ops = (
        [("inject", edges), ("capture", None)] + [("step", [])] * 4
        + [("restore", 0)] + [("step", [])] * 4
        + [("reset", None)] + [("step", [(_at(30, banded), 1.0)])] * 6
    )
    caps_b, caps_f, bands = [], [], set()
    for kind, arg in ops:
        _apply(banded, kind, arg, caps_b, lambda p, s: p.step(s))
        _apply(full, kind, arg, caps_f, _full_step)
        _assert_same_state(banded, full)
        _assert_zero_outside_band(banded)
        if kind == "step":
            _assert_same_observable(banded, full)
            bands.add(banded._band)
    assert (0, 64) in bands and len(bands) >= 3


def test_rebinding_u_from_outside_leaves_no_stale_view():
    """Swapping ``u``/``u_prev`` from outside, as the time-reversibility
    test does, is seen by the next step: kept views and bindings are
    checked against the arrays' identities every step."""
    model = constant_model((48, 48), spacing=10.0, with_density=False)
    banded, full = _pair("isotropic", 2, {}, model, boundary_width=0)
    blob = np.random.default_rng(5).standard_normal((8, 8)).astype(np.float32)
    for p in (banded, full):
        p.u[20:28, 20:28] = blob
        p.u_prev[20:28, 20:28] = blob
    for _ in range(4):
        banded.step()
        _full_step(full)
    for p in (banded, full):
        p.u, p.u_prev = p.u_prev, p.u
    for _ in range(4):
        banded.step()
        _full_step(full)
        np.testing.assert_array_equal(banded.u.view(np.uint32), full.u.view(np.uint32))
        np.testing.assert_array_equal(
            banded.u_prev.view(np.uint32), full.u_prev.view(np.uint32)
        )


def test_sub_stages_step_every_row_and_reset_the_band():
    """``step_pressure``/``step_flow`` (the multi-rank example's halo
    interleaving) step every row, and the next step measures again."""
    model = constant_model((128, 32), spacing=10.0)
    banded, full = _pair("acoustic", 2, {}, model, boundary_width=0)
    src = [((8, 16), 1.0)]
    for _ in range(2):
        banded.step(src)
        _full_step(full, src)
    assert banded._band[1] < 100
    for p in (banded, full):
        p.step_pressure()
        p.p[120, 3] = np.float32(2.0)  # a halo write far below the band
        p.step_flow()
    for _ in range(3):
        banded.step()
        _full_step(full)
        _assert_same_state(banded, full)
