"""Acoustic variable-density propagator — Eq. 2 of the paper.

First-order pressure/velocity-flow system on a staggered grid (the paper's
"25-point stencil staggered grid first order system"), absorbed by C-PML.
Dimension-agnostic: the same class covers the 2-D system of Eq. 2 and its
3-D extension (an extra ``q_y`` flow component).

Staggering (same-shape storage): pressure ``p`` on integer points, flow
``q_i`` half-shifted along axis ``i``. The leapfrog step is

1. ``p += dt * rho * vp^2 * (sum_i D-_i q_i) + dt * rho * vp^2 * F(t)``
   with ``F`` the *time-integrated* wavelet (Eq. 2 injects
   :math:`\\partial_t^{-1} f`);
2. ``q_i += dt * (1/rho)_i * D+_i p`` for each axis.

Every spatial derivative passes through the C-PML convolution
(:meth:`~repro.propagators.base.StaggeredPropagator._damped_diff`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.model.earth_model import EarthModel
from repro.propagators.base import KernelWorkload, StaggeredPropagator, staggered_average
from repro.utils.arrays import DTYPE


class AcousticPropagator(StaggeredPropagator):
    """Variable-density acoustic propagator (2-D or 3-D, from the model)."""

    physics = "acoustic"
    grid_arrays = ("p", "q", "kappa", "buoyancy", "_deriv", "_div")

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        cpml_alpha_max: float = 0.0,
        **kwargs,
    ):
        super().__init__(
            model, dt, space_order, boundary_width, cpml_alpha_max, **kwargs
        )
        self.p = self._new_field("p")
        self.q: list[np.ndarray] = [
            self._new_field(f"q{tag}") for tag in self.grid.axis_names
        ]
        rho = model.density().astype(np.float64)
        vp = model.vp.astype(np.float64)
        #: bulk-modulus-like coefficient of the pressure update: rho * vp^2
        self.kappa = (rho * vp**2).astype(DTYPE)
        #: buoyancy 1/rho averaged to each flow component's half position
        self.buoyancy: list[np.ndarray] = [
            staggered_average((1.0 / rho).astype(DTYPE), ax)
            for ax in range(self.grid.ndim)
        ]
        self._deriv = np.zeros(self.grid.shape, dtype=DTYPE)
        self._div = np.zeros(self.grid.shape, dtype=DTYPE)

    def snapshot_field(self) -> np.ndarray:
        return self.p

    # ------------------------------------------------------------------
    def step_pressure(self, sources: Sequence[tuple[tuple[int, ...], float]] = ()) -> None:
        """First leapfrog sub-stage over every row: update ``p`` from the
        flow divergence and inject sources. Exposed separately so
        domain-decomposed drivers can exchange the fresh pressure halos
        before :meth:`step_flow`; the next :meth:`step` measures the live
        band again."""
        self._band = None
        self._update_pressure(self, None, sources)

    def step_flow(self) -> None:
        """Second leapfrog sub-stage over every row: update the flow
        components from the (fresh) pressure gradient."""
        self._band = None
        self._update_flow(self, None)

    def _update_pressure(self, v, rows, sources) -> None:
        div = v._div
        div.fill(0.0)
        for ax in range(self.grid.ndim):
            div += self._damped_diff(v._deriv, v.q[ax], ax, False, f"dq{ax}", rows)
        v.p += np.float32(self.dt) * v.kappa * div
        # source: Eq. 2 injects rho*vp^2 * time-integral of the wavelet; the
        # driver passes the integrated amplitude
        for index, amp in sources:
            self.p[index] += np.float32(self.dt) * self.kappa[index] * np.float32(amp)

    def _update_flow(self, v, rows) -> None:
        for ax in range(self.grid.ndim):
            d = self._damped_diff(v._deriv, v.p, ax, True, f"dp{ax}", rows)
            v.q[ax] += np.float32(self.dt) * v.buoyancy[ax] * d

    def _step_impl(self, v, rows, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        self._update_pressure(v, rows, sources)
        self._update_flow(v, rows)

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import acoustic_workloads

        return acoustic_workloads(self.grid.shape, self.space_order)
