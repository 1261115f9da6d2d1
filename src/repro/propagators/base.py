"""Common propagator machinery.

A :class:`Propagator` owns named wavefield arrays (``fields``), advances them
one leapfrog step at a time, and reports per-step *kernel workloads* — the
iteration space, flop and byte counts the OpenACC/GPU layers use to model
execution cost. The physics itself always runs for real in NumPy; the
workload metadata is pure bookkeeping.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.boundary.cpml import CPML
from repro.grid.grid import Grid
from repro.model.earth_model import EarthModel
from repro.propagators.cfl import default_dt, max_stable_dt
from repro.source.injection import PointSource
from repro.stencil.operators import staggered_diff_backward, staggered_diff_forward
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError, StabilityError


@dataclass(frozen=True)
class KernelWorkload:
    """Cost metadata of one compute kernel launched per time step.

    A frozen value: equal workloads hash equal, so the device and the acc
    runtime price and lower each distinct one once. Derive variants with
    :func:`dataclasses.replace`.

    Attributes
    ----------
    name:
        Kernel identity (stable across steps; the profiler groups by it).
    points:
        Iteration-space size (grid points updated).
    flops_per_point:
        Floating-point operations per updated point.
    reads_per_point / writes_per_point:
        Array elements read/written per point (element = 4 bytes here).
    loop_dims:
        Extents of the perfectly-nested loop levels, outermost first —
        consumed by the directive compiler to choose a launch configuration.
    address_streams:
        Number of distinct multi-dimensional array bases indexed in the body
        — a proxy for the address-arithmetic register pressure the paper
        blames for the acoustic-3D fission win ("most of the register
        pressure ... was with the array address variables").
    has_branches:
        Whether the body carries data-dependent branches (the PML
        if-statements of the isotropic kernel).
    inner_contiguous:
        Whether the innermost parallel loop walks unit-stride memory —
        drives the coalescing factor of the GPU model.
    """

    name: str
    points: int
    flops_per_point: float
    reads_per_point: float
    writes_per_point: float
    loop_dims: tuple[int, ...]
    address_streams: int = 4
    has_branches: bool = False
    inner_contiguous: bool = True
    #: whether successive iterations of a parallelizable level genuinely
    #: depend on each other — asserting ``independent`` on such a nest is
    #: wrong-code territory, which the static analyzer flags
    loop_carried: bool = False
    #: number of grid axes the body's widest stencil gathers along: the
    #: isotropic Laplacian reads a 25-point cross spanning every axis
    #: (``ndim``), while staggered first-derivative kernels gather along one
    #: axis per array. Multi-axis gathers waste GPU memory transactions
    #: (no shared-memory tiling under 2014-era OpenACC codegen).
    gather_axes: int = 1

    @property
    def flops(self) -> float:
        return self.points * self.flops_per_point

    @property
    def bytes_moved(self) -> float:
        return self.points * 4.0 * (self.reads_per_point + self.writes_per_point)


@dataclass
class PropagatorState:
    """Diagnostics snapshot: step counter and wavefield health."""

    step: int = 0
    last_max_amplitude: float = 0.0


class Propagator(ABC):
    """Base class: named fields + leapfrog stepping + workload metadata.

    Subclasses name their grid-shaped arrays once in :attr:`grid_arrays`
    and implement :meth:`_step_impl` (pure physics on those arrays) and
    :meth:`kernel_workloads`.

    **The live band.** :meth:`step` updates only a band of rows
    ``[r0, r1)`` along axis 0 (depth): the subclass's step arithmetic runs
    unchanged on row views of :attr:`grid_arrays` (C-contiguous, so each
    view is one block). Rows outside the band are +0.0 in every field and
    C-PML memory variable, which is exactly what a full-grid step leaves
    there, so skipping them changes no bit. The invariant, at every step
    start: each row holding a nonzero bit pattern (-0.0 included) in any
    field or C-PML memory variable lies at least :attr:`margin` =
    (:attr:`stages` + 1) x radius rows inside every band edge that is not
    a grid edge (12 rows for order-8 staggered physics). One step carries
    state at most ``stages`` x radius rows, and the extra radius keeps
    zero the border rows a stencil leaves unwritten at the view's edge.

    The band is measured from the arrays on the first step and after
    :meth:`restore_state` or :meth:`reset`. It widens for the rows of step
    sources and of :meth:`inject_pressure`, grows when a check of its
    margin rows at a step start finds live state, and never shrinks. Once
    fewer than two margins of rows lie outside it, it takes every row:
    from then on a step is the full-grid code with no check.

    The contract that keeps the band exact: after the first step, state
    changes only through the propagator's own methods (:meth:`step`,
    :meth:`inject_pressure`, :meth:`restore_state`, :meth:`reset`).
    Sub-stage methods called directly (``step_pressure``/``step_flow``)
    step every row and make the next :meth:`step` measure the band again.

    Parameters
    ----------
    model:
        Earth model providing the physical parameters.
    dt:
        Time step in seconds; ``None`` picks a safe default from the CFL
        bound. An explicitly unstable ``dt`` raises
        :class:`~repro.utils.errors.StabilityError` immediately.
    space_order:
        FD accuracy order (the paper's operators are order 8).
    boundary_width:
        Absorbing-layer width in cells.
    check_health_every:
        Period (steps) of the non-finite wavefield check; 0 disables.
    """

    #: 'second_order' or 'staggered' — the CFL family of the subclass.
    scheme: str = "second_order"
    #: short physics tag ('isotropic', 'acoustic', 'elastic')
    physics: str = "base"
    #: stencil stages per step: how often one step differentiates state it
    #: has just updated (two for the staggered leapfrog's sub-stages)
    stages: int = 1
    #: the grid-shaped arrays a step reads or writes (state, coefficients
    #: and scratch); a dotted name reaches into a member (``pml.sigma2``)
    grid_arrays: tuple[str, ...] = ()

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        check_health_every: int = 50,
    ):
        self.model = model
        self.grid: Grid = model.grid
        self.space_order = int(space_order)
        if self.space_order <= 0 or self.space_order % 2:
            raise ConfigurationError("space_order must be a positive even integer")
        self.radius = self.space_order // 2
        self.boundary_width = int(boundary_width)
        if self.boundary_width < 0:
            raise ConfigurationError("boundary_width must be >= 0")
        if self.boundary_width and self.boundary_width < self.radius:
            raise ConfigurationError(
                f"boundary_width {boundary_width} thinner than stencil radius "
                f"{self.radius}"
            )
        limit = max_stable_dt(model.max_wave_speed(), self.grid.spacing, self.scheme, self.space_order)
        if dt is None:
            dt = default_dt(model.max_wave_speed(), self.grid.spacing, self.scheme, self.space_order)
        elif dt <= 0:
            raise ConfigurationError("dt must be positive")
        elif dt > limit:
            raise StabilityError(
                f"dt={dt:g}s exceeds the CFL limit {limit:g}s for "
                f"{self.physics}/{self.scheme} on this grid"
            )
        self.dt = float(dt)
        self.check_health_every = int(check_health_every)
        self.state = PropagatorState()
        self.fields: dict[str, np.ndarray] = {}
        #: rows a live value keeps from a band edge that is not a grid edge
        self.margin = (self.stages + 1) * self.radius
        #: the live band ``(r0, r1)``: None until measured, ``(n0, 0)`` while
        #: every row is +0.0
        self._band: tuple[int, int] | None = None
        #: the band at the last :meth:`_observed_rows` call
        self._observed_band: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # field management
    # ------------------------------------------------------------------
    def _new_field(self, name: str) -> np.ndarray:
        a = np.zeros(self.grid.shape, dtype=DTYPE)
        self.fields[name] = a
        return a

    def reset(self) -> None:
        """Zero all wavefields and C-PML memory variables and restart the
        step counter (coefficients and material fields are kept)."""
        for a in self.fields.values():
            a.fill(0.0)
        cpml = getattr(self, "cpml", None)
        if cpml is not None:
            cpml.reset()
        self.state = PropagatorState()
        self._band = None

    def wavefield_bytes(self) -> int:
        """Bytes of all time-varying fields (what must live on the device)."""
        return sum(a.nbytes for a in self.fields.values())

    # ------------------------------------------------------------------
    # checkpoint support (repro.resilience)
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Deep-copy the complete time-varying state: every wavefield, the
        step counter, and (for the C-PML systems) the boundary memory
        variables. Restoring this dict and replaying the same steps is
        bitwise identical to never having stopped."""
        state: dict = {
            "step": self.state.step,
            "fields": {name: a.copy() for name, a in self.fields.items()},
        }
        cpml = getattr(self, "cpml", None)
        if cpml is not None:
            state["psi"] = cpml.capture()
        return state

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`capture_state`'s snapshot in place (array
        identities survive — any device present-table entry keyed by these
        arrays' names stays valid; only the *values* roll back)."""
        for name, a in state["fields"].items():
            self.fields[name][...] = a
        self.state = PropagatorState(step=int(state["step"]))
        cpml = getattr(self, "cpml", None)
        if cpml is not None:
            cpml.restore(state.get("psi", {}))
        self._band = None

    @abstractmethod
    def snapshot_field(self) -> np.ndarray:
        """The observable wavefield recorded in snapshots/seismograms
        (displacement for isotropic, pressure for acoustic/elastic)."""

    def inject_pressure(
        self,
        indices: np.ndarray,
        amplitudes: np.ndarray | float,
        scale: float = 1.0,
    ) -> None:
        """Add a pressure-like perturbation at grid points — the receiver
        injection of the RTM backward phase — and widen the live band to
        the rows written."""
        self._add_pressure(indices, amplitudes, scale)
        n0 = self.grid.shape[0]
        if self._band is None or self._band == (0, n0):
            return  # the next step measures, or every row is stepped
        rows = np.atleast_2d(indices)[:, 0] % n0
        if rows.size:
            self._band = self._widened(self._band, int(rows.min()), int(rows.max()))

    def _add_pressure(self, indices, amplitudes, scale) -> None:
        """Write a pressure injection. The default adds into the observable
        field directly (valid when :meth:`snapshot_field` returns real
        propagator state); the elastic propagator drives the diagonal
        stresses instead."""
        from repro.source.injection import inject

        inject(self.snapshot_field(), indices, amplitudes, scale=scale)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    @abstractmethod
    def _step_impl(
        self,
        v,
        rows: slice,
        sources: Sequence[tuple[tuple[int, ...], float]],
    ) -> None:
        """Advance all fields by one time step over ``rows``, injecting the
        given ``(index, amplitude)`` source terms (grid indices, written
        into the full arrays). ``v`` holds :attr:`grid_arrays` cut to
        ``rows`` under their own names; when the band spans every row, ``v``
        is ``self`` and ``rows`` is None."""

    def step(self, sources: Sequence[tuple[tuple[int, ...], float]] = ()) -> None:
        """Advance one time step over the live band (see the class
        docstring). ``sources`` carries point-source injections for this
        step."""
        rows = self._band_rows(sources)
        if rows is None:
            self._step_impl(self, None, sources)
        elif rows.start < rows.stop:
            self._step_impl(self._band_views(rows), rows, sources)
        self.state.step += 1
        if self.check_health_every and self.state.step % self.check_health_every == 0:
            self._check_health()

    def run(
        self,
        nt: int,
        source: PointSource | None = None,
        on_step: Callable[[int, "Propagator"], None] | None = None,
    ) -> None:
        """Run ``nt`` steps with an optional point source and per-step hook."""
        if nt < 0:
            raise ConfigurationError("nt must be >= 0")
        for n in range(nt):
            srcs: list[tuple[tuple[int, ...], float]] = []
            if source is not None:
                amp = source.amplitude(n)
                if amp != 0.0:
                    srcs.append((source.index, amp))
            self.step(srcs)
            if on_step is not None:
                on_step(n, self)

    def _check_health(self) -> None:
        u = self.snapshot_field()
        peak = float(np.max(np.abs(u)))
        self.state.last_max_amplitude = peak
        if not np.isfinite(peak):
            raise StabilityError(
                f"{self.physics} wavefield turned non-finite at step "
                f"{self.state.step} (dt too large or model pathological?)"
            )

    # ------------------------------------------------------------------
    # the live band
    # ------------------------------------------------------------------
    def _band_rows(self, sources) -> slice | None:
        """The rows this step updates (None for all of them), after
        measuring, widening and guarding the band."""
        n0 = self.grid.shape[0]
        band = self._band
        if band == (0, n0):
            return None
        if band is None:
            band = self._measured()
        if sources:
            rows = [index[0] % n0 for index, _ in sources]
            band = self._widened(band, min(rows), max(rows))
        band = self._guarded(band)
        if band[1] - band[0] > n0 - 2 * self.margin:
            # the few rows left outside would not pay for the guard's
            # reads of its margins each step
            band = (0, n0)
        self._band = band
        return None if band == (0, n0) else slice(*band)

    def _observed_rows(self) -> slice:
        """The rows in which an observable derived row by row from the state
        (the elastic pressure, kept in a buffer) must be recomputed: the live
        band when it holds the band of the previous call, else every row.

        Outside the band the state is +0.0, and each row there was outside
        the previous band too, so the buffer already holds what +0.0 state
        derives to. A band that is not known yet, or re-measured narrower
        (after :meth:`restore_state` or :meth:`reset`), takes every row once.
        """
        band, last = self._band, self._observed_band
        self._observed_band = band
        if band is None or last is None or band[0] > last[0] or band[1] < last[1]:
            return slice(None)
        return slice(*band)

    def _state_arrays(self) -> list[np.ndarray]:
        """Every time-varying array: the fields and C-PML memory variables."""
        arrays = list(self.fields.values())
        cpml = getattr(self, "cpml", None)
        if cpml is not None:
            arrays.extend(cpml.memory_arrays())
        return arrays

    def _measured(self) -> tuple[int, int]:
        """The band around every live row of the state."""
        n0 = self.grid.shape[0]
        live = np.flatnonzero(_live_rows(self._state_arrays(), 0, n0))
        if not live.size:
            return (n0, 0)
        return self._widened((n0, 0), int(live[0]), int(live[-1]))

    def _widened(self, band: tuple[int, int], lo: int, hi: int) -> tuple[int, int]:
        """``band`` grown so that rows ``lo`` to ``hi`` lie :attr:`margin`
        rows inside it, clipped to the grid."""
        return (
            min(band[0], max(0, lo - self.margin)),
            max(band[1], min(self.grid.shape[0], hi + 1 + self.margin)),
        )

    def _guarded(self, band: tuple[int, int]) -> tuple[int, int]:
        """``band`` grown past the live rows in its margins: the last step
        may have carried state up to ``stages`` x radius rows outward."""
        r0, r1 = band
        n0, m = self.grid.shape[0], self.margin
        margins = []
        if 0 < r0 < r1:
            margins.append((r0, min(r0 + m, r1)))
        if r0 < r1 < n0:
            margins.append((max(r1 - m, r0), r1))
        if not margins:
            return band
        arrays = self._state_arrays()
        rows = np.concatenate([np.arange(lo, hi) for lo, hi in margins])
        # every array's margin rows in one block: one reduction per step,
        # not one per array, whose call costs would rival the rows a band
        # saves on a small grid
        block = np.concatenate([a[lo:hi] for a in arrays for lo, hi in margins])
        bits = block.view(np.uint32).reshape(len(arrays), len(rows), -1)
        live = rows[np.bitwise_or.reduce(bits).any(axis=1)]
        if not live.size:
            return band
        return self._widened(band, int(live.min()), int(live.max()))

    def _band_views(self, rows: slice) -> SimpleNamespace:
        """:attr:`grid_arrays` cut to ``rows`` under their own names (a list
        or dict of arrays item by item; ``owner.name`` nests one level)."""
        views = SimpleNamespace()
        for name in self.grid_arrays:
            owner, _, leaf = name.rpartition(".")
            value = getattr(getattr(self, owner) if owner else self, leaf)
            if isinstance(value, list):
                value = [a[rows] for a in value]
            elif isinstance(value, dict):
                value = {k: a[rows] for k, a in value.items()}
            else:
                value = value[rows]
            dst = views.__dict__.setdefault(owner, SimpleNamespace()) if owner else views
            setattr(dst, leaf, value)
        return views

    # ------------------------------------------------------------------
    # cost metadata
    # ------------------------------------------------------------------
    @abstractmethod
    def kernel_workloads(self) -> list[KernelWorkload]:
        """The compute kernels launched per forward time step, with their
        cost metadata (consumed by :mod:`repro.acc` / :mod:`repro.gpusim`)."""

    def total_flops_per_step(self) -> float:
        return sum(w.flops for w in self.kernel_workloads())

    def total_bytes_per_step(self) -> float:
        return sum(w.bytes_moved for w in self.kernel_workloads())


class StaggeredPropagator(Propagator):
    """A first-order staggered-grid system (Eqs. 2 and 3) absorbed by
    C-PML, whose every spatial derivative is one :meth:`_damped_diff`.

    ``cpml_alpha_max`` is the peak of the C-PML frequency-shift profile.
    """

    scheme = "staggered"
    stages = 2

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        cpml_alpha_max: float = 0.0,
        **kwargs,
    ):
        super().__init__(model, dt, space_order, boundary_width, **kwargs)
        self.cpml = CPML(
            self.grid,
            boundary_width,
            model.max_wave_speed(),
            self.dt,
            alpha_max=cpml_alpha_max,
        )

    def _damped_diff(
        self,
        out: np.ndarray,
        f: np.ndarray,
        axis: int,
        forward: bool,
        name: str,
        rows: slice | None,
    ) -> np.ndarray:
        """The derivative of ``f`` along ``axis`` into ``out``, taken forward
        to half points (D+) or backward to integer points (D-), then damped
        through the C-PML memory variable ``name`` over ``rows``.

        The operator writes every point of ``out`` (+0.0 where the stencil
        does not reach), so no stale value of the reused buffer leaks into
        a sum or the memory variable."""
        diff = staggered_diff_forward if forward else staggered_diff_backward
        d = diff(f, axis, self.grid.spacing[axis], self.space_order, out=out)
        return self.cpml.damp(name, axis, d, half=forward, rows=rows)


def _live_rows(arrays: Iterable[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Per row in ``[lo, hi)`` along axis 0: does any of ``arrays`` hold a
    nonzero bit pattern there? -0.0 is live: a full-grid step can turn it
    into +0.0, which a skipped row would not."""
    live = np.zeros(hi - lo, dtype=bool)
    for a in arrays:
        live |= a[lo:hi].reshape(hi - lo, -1).view(np.uint32).any(axis=1)
    return live


def staggered_average(param: np.ndarray, axis: int) -> np.ndarray:
    """Arithmetic average of a material parameter onto half points along
    ``axis`` (same-shape convention: sample ``i`` -> location ``i + 1/2``;
    the last sample replicates its neighbour)."""
    out = param.astype(np.float64).copy()
    sl_lo = [slice(None)] * param.ndim
    sl_hi = [slice(None)] * param.ndim
    sl_lo[axis] = slice(0, -1)
    sl_hi[axis] = slice(1, None)
    out[tuple(sl_lo)] = 0.5 * (
        param[tuple(sl_lo)].astype(np.float64) + param[tuple(sl_hi)].astype(np.float64)
    )
    return out.astype(DTYPE)


def staggered_harmonic_average(param: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """Harmonic average onto points half-shifted along all ``axes`` — the
    physically correct interpolation for the shear modulus at shear-stress
    positions (a zero in any contributing cell keeps the average zero, as a
    fluid cell must)."""
    inv = np.where(param > 0, 1.0 / np.maximum(param.astype(np.float64), 1e-300), np.inf)
    acc = inv.copy()
    count = 1
    for axis in axes:
        sl_hi = [slice(None)] * param.ndim
        sl_hi[axis] = slice(1, None)
        shifted = np.empty_like(acc)
        sl_lo = [slice(None)] * param.ndim
        sl_lo[axis] = slice(0, -1)
        shifted[tuple(sl_lo)] = acc[tuple(sl_hi)]
        sl_last = [slice(None)] * param.ndim
        sl_last[axis] = slice(-1, None)
        shifted[tuple(sl_last)] = acc[tuple(sl_last)]
        acc = acc + shifted
        count *= 2
    with np.errstate(divide="ignore"):
        out = np.where(np.isinf(acc), 0.0, count / np.maximum(acc, 1e-300))
    return out.astype(DTYPE)
