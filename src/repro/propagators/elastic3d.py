"""Elastic 3-D velocity-stress propagator — Eq. 3 of the paper in full.

Nine wavefields on the standard 3-D staggered lattice, axes ``(z, x, y)``:

==============================  ============================
field                           stagger (half-shifted along)
==============================  ============================
``sxx``, ``syy``, ``szz``       — (integer points)
``vz`` / ``vx`` / ``vy``        z / x / y
``sxy``                         x and y
``sxz``                         x and z
``syz``                         y and z
==============================  ============================

This is "the most computationally intensive case" of the paper — nine field
updates with 22 C-PML-damped spatial derivatives per time step — and the one
whose wavefields exceed the Fermi M2090's 6 GB at the paper's 3-D sizes
(the ``x`` entries in its Tables 3 and 4).
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

_Z, _X, _Y = 0, 1, 2


class ElasticPropagator3D(Propagator):
    """Isotropic elastic velocity-stress propagator in 3-D."""

    scheme = "staggered"
    physics = "elastic"
    stages = 2
    grid_arrays = (
        "vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz",
        "lam", "lam2mu", "buoy", "mu_xy", "mu_xz", "mu_yz", "_buf",
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
        if model.grid.ndim != 3:
            raise ConfigurationError("ElasticPropagator3D needs a 3-D model")
        super().__init__(model, dt, space_order, boundary_width, **kwargs)
        lam, mu = model.lame_parameters()
        rho = model.density().astype(np.float64)
        self.lam = lam
        self.lam2mu = (lam.astype(np.float64) + 2.0 * mu.astype(np.float64)).astype(DTYPE)
        inv_rho = (1.0 / rho).astype(DTYPE)
        self.buoy = {
            _Z: staggered_average(inv_rho, _Z),
            _X: staggered_average(inv_rho, _X),
            _Y: staggered_average(inv_rho, _Y),
        }
        self.mu_xy = staggered_harmonic_average(mu, (_X, _Y))
        self.mu_xz = staggered_harmonic_average(mu, (_X, _Z))
        self.mu_yz = staggered_harmonic_average(mu, (_Y, _Z))
        self.vx = self._new_field("vx")
        self.vy = self._new_field("vy")
        self.vz = self._new_field("vz")
        self.sxx = self._new_field("sxx")
        self.syy = self._new_field("syy")
        self.szz = self._new_field("szz")
        self.sxy = self._new_field("sxy")
        self.sxz = self._new_field("sxz")
        self.syz = self._new_field("syz")
        self.cpml = CPML(
            self.grid,
            boundary_width,
            model.max_wave_speed(),
            self.dt,
            alpha_max=cpml_alpha_max,
        )
        self._buf = np.zeros(self.grid.shape, dtype=DTYPE)
        self._pressure = np.zeros(self.grid.shape, dtype=DTYPE)

    def snapshot_field(self) -> np.ndarray:
        """Pressure-like observable ``-(sxx + syy + szz)/3``, in the
        propagator's buffer, recomputed over the live band only (as in
        :meth:`ElasticPropagator2D.snapshot_field`)."""
        rows = self._observed_rows()
        p = self._pressure[rows]
        np.add(self.sxx[rows], self.syy[rows], out=p)
        p += self.szz[rows]
        p *= np.float32(-1.0 / 3.0)
        return self._pressure

    def _add_pressure(self, indices, amplitudes, scale) -> None:
        """Pressure injection drives the three diagonal stresses."""
        from repro.source.injection import inject

        for field in (self.sxx, self.syy, self.szz):
            inject(field, indices, amplitudes, scale=-scale)

    # ------------------------------------------------------------------
    def _diff(self, v, rows, f: np.ndarray, axis: int, fwd: bool, name: str) -> np.ndarray:
        """One damped derivative of the band view ``f`` into a fresh array
        (22 per step; fresh allocation keeps the data flow simple and is
        amortised by the kernel-sized arithmetic around it)."""
        v._buf.fill(0.0)
        h = self.grid.spacing[axis]
        if fwd:
            d = staggered_diff_forward(f, axis, h, self.space_order, out=v._buf)
        else:
            d = staggered_diff_backward(f, axis, h, self.space_order, out=v._buf)
        d = self.cpml.damp(name, axis, d, half=fwd, rows=rows)
        return d.copy()

    def _step_impl(self, v, rows, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        dt = np.float32(self.dt)
        d = partial(self._diff, v, rows)
        # --- velocities -----------------------------------------------
        v.vx += dt * v.buoy[_X] * (
            d(v.sxx, _X, True, "dsxx_dx")
            + d(v.sxy, _Y, False, "dsxy_dy")
            + d(v.sxz, _Z, False, "dsxz_dz")
        )
        v.vy += dt * v.buoy[_Y] * (
            d(v.sxy, _X, False, "dsxy_dx")
            + d(v.syy, _Y, True, "dsyy_dy")
            + d(v.syz, _Z, False, "dsyz_dz")
        )
        v.vz += dt * v.buoy[_Z] * (
            d(v.sxz, _X, False, "dsxz_dx")
            + d(v.syz, _Y, False, "dsyz_dy")
            + d(v.szz, _Z, True, "dszz_dz")
        )
        # --- diagonal stresses (sharing the three divergence terms) ----
        dvx_dx = d(v.vx, _X, False, "dvx_dx")
        dvy_dy = d(v.vy, _Y, False, "dvy_dy")
        dvz_dz = d(v.vz, _Z, False, "dvz_dz")
        v.sxx += dt * (v.lam2mu * dvx_dx + v.lam * (dvy_dy + dvz_dz))
        v.syy += dt * (v.lam2mu * dvy_dy + v.lam * (dvx_dx + dvz_dz))
        v.szz += dt * (v.lam2mu * dvz_dz + v.lam * (dvx_dx + dvy_dy))
        # --- shear stresses --------------------------------------------
        v.sxy += dt * v.mu_xy * (
            d(v.vy, _X, True, "dvy_dx") + d(v.vx, _Y, True, "dvx_dy")
        )
        v.sxz += dt * v.mu_xz * (
            d(v.vz, _X, True, "dvz_dx") + d(v.vx, _Z, True, "dvx_dz")
        )
        v.syz += dt * v.mu_yz * (
            d(v.vz, _Y, True, "dvz_dy") + d(v.vy, _Z, True, "dvy_dz")
        )
        # --- explosive source ------------------------------------------
        for index, amp in sources:
            a = dt * np.float32(amp)
            self.sxx[index] += a
            self.syy[index] += a
            self.szz[index] += a

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import elastic_workloads

        return elastic_workloads(self.grid.shape, self.space_order)
