"""Elastic 2-D (P-SV) velocity-stress propagator — Eq. 3 of the paper,
restricted to the (z, x) plane.

Virieux staggering with our (z, x) axis order and same-shape storage:

====================  =========================
field                 stagger
====================  =========================
``sxx``, ``szz``      integer points
``vz``                half along z (axis 0)
``vx``                half along x (axis 1)
``sxz``               half along z and x
====================  =========================

Per step (leapfrog, velocities then stresses):

* ``vx += dt * (1/rho)_x * (D+_x sxx + D-_z sxz)``
* ``vz += dt * (1/rho)_z * (D-_x sxz + D+_z szz)``
* ``sxx += dt * ((lam + 2 mu) * D-_x vx + lam * D-_z vz)``
* ``szz += dt * ((lam + 2 mu) * D-_z vz + lam * D-_x vx)``
* ``sxz += dt * mu_xz * (D+_z vx + D+_x vz)``

``mu_xz`` is harmonically averaged to the shear position (so fluid cells
carry zero shear stress), densities arithmetically to the velocity
positions. Every derivative passes through C-PML. Explosive sources add to
both diagonal stresses.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.boundary.cpml import CPML
from repro.model.earth_model import EarthModel
from repro.propagators.base import (
    KernelWorkload,
    Propagator,
    staggered_average,
    staggered_harmonic_average,
)
from repro.stencil.operators import staggered_diff_backward, staggered_diff_forward
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError

_Z, _X = 0, 1


class ElasticPropagator2D(Propagator):
    """Isotropic elastic P-SV propagator in the (z, x) plane."""

    scheme = "staggered"
    physics = "elastic"
    stages = 2
    grid_arrays = (
        "vx", "vz", "sxx", "szz", "sxz",
        "lam", "lam2mu", "buoy_x", "buoy_z", "mu_xz", "_d1", "_d2",
    )

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        cpml_alpha_max: float = 0.0,
        **kwargs,
    ):
        if model.grid.ndim != 2:
            raise ConfigurationError("ElasticPropagator2D needs a 2-D model")
        super().__init__(model, dt, space_order, boundary_width, **kwargs)
        lam, mu = model.lame_parameters()
        rho = model.density().astype(np.float64)
        self.lam = lam
        self.mu = mu
        self.lam2mu = (lam.astype(np.float64) + 2.0 * mu.astype(np.float64)).astype(DTYPE)
        self.buoy_x = staggered_average((1.0 / rho).astype(DTYPE), _X)
        self.buoy_z = staggered_average((1.0 / rho).astype(DTYPE), _Z)
        self.mu_xz = staggered_harmonic_average(mu, (_Z, _X))
        self.vx = self._new_field("vx")
        self.vz = self._new_field("vz")
        self.sxx = self._new_field("sxx")
        self.szz = self._new_field("szz")
        self.sxz = self._new_field("sxz")
        self.cpml = CPML(
            self.grid,
            boundary_width,
            model.max_wave_speed(),
            self.dt,
            alpha_max=cpml_alpha_max,
        )
        self._d1 = np.zeros(self.grid.shape, dtype=DTYPE)
        self._d2 = np.zeros(self.grid.shape, dtype=DTYPE)
        self._pressure = np.zeros(self.grid.shape, dtype=DTYPE)

    def snapshot_field(self) -> np.ndarray:
        """Pressure-like observable ``-(sxx + szz)/2`` (what a hydrophone in
        the solid would sense; the RTM imaging condition correlates it).

        The returned array is the propagator's buffer, recomputed over the
        live band only (:meth:`_observed_rows`): read or copy it, never
        write it."""
        rows = self._observed_rows()
        p = self._pressure[rows]
        np.add(self.sxx[rows], self.szz[rows], out=p)
        p *= np.float32(-0.5)
        return self._pressure

    def _add_pressure(self, indices, amplitudes, scale) -> None:
        """Pressure injection drives both diagonal stresses: adding dp to
        the observable ``-(sxx+szz)/2`` means subtracting dp from each."""
        from repro.source.injection import inject

        inject(self.sxx, indices, amplitudes, scale=-scale)
        inject(self.szz, indices, amplitudes, scale=-scale)

    # ------------------------------------------------------------------
    def _diff(self, v, rows, f, axis, fwd, name):
        """One C-PML-damped staggered derivative of the band view ``f``
        (x derivatives land in ``_d1``, z derivatives in ``_d2``)."""
        out = v._d1 if axis == _X else v._d2
        out.fill(0.0)
        diff = staggered_diff_forward if fwd else staggered_diff_backward
        d = diff(f, axis, self.grid.spacing[axis], self.space_order, out=out)
        return self.cpml.damp(name, axis, d, half=fwd, rows=rows)

    def _step_impl(self, v, rows, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        dt = np.float32(self.dt)
        d = partial(self._diff, v, rows)
        # --- velocities ---------------------------------------------------
        v.vx += dt * v.buoy_x * (
            d(v.sxx, _X, True, "dsxx_dx") + d(v.sxz, _Z, False, "dsxz_dz")
        )
        v.vz += dt * v.buoy_z * (
            d(v.sxz, _X, False, "dsxz_dx") + d(v.szz, _Z, True, "dszz_dz")
        )
        # --- stresses ------------------------------------------------------
        dvx_dx = d(v.vx, _X, False, "dvx_dx").copy()
        dvz_dz = d(v.vz, _Z, False, "dvz_dz")
        v.sxx += dt * (v.lam2mu * dvx_dx + v.lam * dvz_dz)
        v.szz += dt * (v.lam2mu * dvz_dz + v.lam * dvx_dx)
        v.sxz += dt * v.mu_xz * (
            d(v.vx, _Z, True, "dvx_dz") + d(v.vz, _X, True, "dvz_dx")
        )
        # --- explosive source: equal push on the diagonal stresses ---------
        for index, amp in sources:
            a = dt * np.float32(amp)
            self.sxx[index] += a
            self.szz[index] += a

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import elastic_workloads

        return elastic_workloads(self.grid.shape, self.space_order)
