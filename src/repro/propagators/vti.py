"""VTI (vertically transversely isotropic) pseudo-acoustic propagator —
the anisotropic formulation the paper defers to future work ("However, we
will consider the anisotropic case in the future", Section 3.3).

Implements the coupled second-order pseudo-acoustic system (Zhou, Zhang &
Bloor 2006) in Thomsen parameters epsilon/delta:

.. math::

    \\partial_t^2 p &= v_p^2 [ (1 + 2\\varepsilon) \\nabla_h^2 p
                                + \\partial_z^2 q ] \\\\
    \\partial_t^2 q &= v_p^2 [ (1 + 2\\delta) \\nabla_h^2 p
                                + \\partial_z^2 q ]

with :math:`\\nabla_h^2` the horizontal Laplacian and ``q`` the auxiliary
(vertical) wavefield. For :math:`\\varepsilon = \\delta = 0` the two
equations coincide and the system reduces exactly to the isotropic Eq. 1 —
a property the test suite asserts. Elliptical anisotropy
(:math:`\\varepsilon = \\delta`) stretches the wavefront horizontally by
:math:`\\sqrt{1 + 2\\varepsilon}` — also asserted.

Boundary treatment and time discretisation follow the isotropic propagator
(leapfrog + standard damping PML applied to both fields).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.boundary.pml import StandardPML
from repro.model.earth_model import EarthModel
from repro.propagators.base import KernelWorkload, Propagator
from repro.stencil.operators import second_derivative
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError


class VTIPropagator(Propagator):
    """Pseudo-acoustic VTI propagator (2-D or 3-D).

    Requires a model with Thomsen fields (``model.epsilon``,
    ``model.delta``); missing fields default to zero (isotropic).
    The CFL bound uses the fastest phase velocity
    ``vp * sqrt(1 + 2 max(eps, delta, 0))``.
    """

    scheme = "second_order"
    physics = "vti"
    grid_arrays = (
        "p", "p_prev", "q", "q_prev", "vp2dt2", "coef_h_p", "coef_h_q",
        "_lap_h", "_dzz",
        "pml.sigma2", "pml.coeff_curr", "pml.coeff_prev", "pml.coeff_rhs",
    )

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        pml_reflection: float = 1e-4,
        **kwargs,
    ):
        eps = getattr(model, "epsilon", None)
        delta = getattr(model, "delta", None)
        self.epsilon = self._thomsen(model, eps, "epsilon")
        self.delta = self._thomsen(model, delta, "delta")
        if np.any(self.epsilon < self.delta - 1e-6):
            # epsilon < delta makes the pseudo-acoustic system weakly
            # unstable (negative anelliptic term); refuse upfront
            raise ConfigurationError(
                "VTI pseudo-acoustic system needs epsilon >= delta everywhere"
            )
        # the base-class CFL check is anisotropy-aware through
        # EarthModel.max_wave_speed() (vp stretched by sqrt(1+2 epsilon))
        self._vmax_aniso = float(
            (model.vp.astype(np.float64)
             * np.sqrt(1.0 + 2.0 * np.maximum(self.epsilon, 0.0))).max()
        )
        super().__init__(model, dt, space_order, boundary_width, **kwargs)
        self.pml = StandardPML(
            self.grid, boundary_width, self._vmax_aniso, self.dt,
            reflection=pml_reflection,
        )
        self.p = self._new_field("p")
        self.p_prev = self._new_field("p_prev")
        self.q = self._new_field("q")
        self.q_prev = self._new_field("q_prev")
        vp2dt2 = model.vp.astype(np.float64) ** 2 * self.dt**2
        self.vp2dt2 = vp2dt2.astype(DTYPE)
        self.coef_h_p = ((1.0 + 2.0 * self.epsilon.astype(np.float64)) * vp2dt2).astype(DTYPE)
        self.coef_h_q = ((1.0 + 2.0 * self.delta.astype(np.float64)) * vp2dt2).astype(DTYPE)
        self._lap_h = np.zeros(self.grid.shape, dtype=DTYPE)
        self._dzz = np.zeros(self.grid.shape, dtype=DTYPE)

    # ------------------------------------------------------------------
    def _thomsen(self, model: EarthModel, field, name: str) -> np.ndarray:
        if field is None:
            return np.zeros(model.grid.shape, dtype=DTYPE)
        a = np.ascontiguousarray(field, dtype=DTYPE)
        if a.shape != model.grid.shape:
            raise ConfigurationError(
                f"{name} has shape {a.shape}, grid is {model.grid.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise ConfigurationError(f"{name} contains non-finite values")
        return a

    def snapshot_field(self) -> np.ndarray:
        return self.p

    # ------------------------------------------------------------------
    def _step_impl(self, v, rows, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        h = self.grid.spacing
        # horizontal Laplacian of p (axes 1..ndim-1) and vertical d2 of q
        lap_h = v._lap_h
        lap_h.fill(0.0)
        for ax in range(1, self.grid.ndim):
            second_derivative(v.p, ax, h[ax], self.space_order,
                              out=lap_h, accumulate=True)
        # the operator leaves its border rows unwritten: clear them, since
        # a band measured anew after restore_state may put them on rows an
        # earlier, wider band wrote
        v._dzz.fill(0.0)
        dzz = second_derivative(v.q, 0, h[0], self.space_order, out=v._dzz)
        pml = v.pml
        dt2sig2 = self.dt**2 * pml.sigma2
        for field, prev, coef_h in (
            (v.p, v.p_prev, v.coef_h_p),
            (v.q, v.q_prev, v.coef_h_q),
        ):
            rhs = coef_h * lap_h + v.vp2dt2 * dzz - dt2sig2 * field
            prev[...] = (
                pml.coeff_curr * field
                - pml.coeff_prev * prev
                + pml.coeff_rhs * rhs
            )
        for index, amp in sources:
            a = self.vp2dt2[index] * np.float32(amp)
            self.p_prev[index] += a
            self.q_prev[index] += a
        self.p, self.p_prev = self.p_prev, self.p
        self.q, self.q_prev = self.q_prev, self.q
        self.fields["p"], self.fields["p_prev"] = self.p, self.p_prev
        self.fields["q"], self.fields["q_prev"] = self.q, self.q_prev

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import vti_workloads

        return vti_workloads(self.grid.shape, self.space_order)
