"""Isotropic constant-density propagator — Eq. 1 of the paper.

Second-order-in-time leapfrog over a width-8 (25-point in 3-D) Laplacian
stencil with standard PML. The same kernel serves the forward and backward
phases ("The isotropic kernel used in both phases was the same"), which is
why the isotropic RTM does not suffer the backward-coalescing problem of the
staggered models.

Three code variants, matching the paper's Figures 6-7 study of the PML
if-statements:

* ``pml_variant="branchy"`` — the original code: plain update in the
  interior, damped update in the boundary slabs, selected by per-point
  conditions (modelled as divergent branches on the GPU);
* ``pml_variant="restructured"`` — the paper's first approach: "remove these
  if-conditions by changing the loop indices and restructuring the loop
  region accordingly" — the same region split expressed as separate perfectly
  nested loops (no branches; one kernel per region);
* ``pml_variant="everywhere"`` — the second approach: "compute PML everywhere
  in the grid domain" — one branch-free kernel applying the damped formula at
  every point (more flops, perfect gridification).

All three produce **identical numerics** (the damped formula reduces exactly
to the plain one where sigma == 0); they differ only in the kernel workload
metadata the GPU model sees. The test suite asserts the numerical identity.
"""

from __future__ import annotations

from operator import is_
from typing import Sequence

import numpy as np

from repro.boundary.pml import StandardPML
from repro.model.earth_model import EarthModel
from repro.propagators.base import KernelWorkload, Propagator
from repro.stencil.operators import (
    LaplacianBinding,
    laplacian_flops_per_point,
    laplacian_reads_per_point,
)
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError

_VARIANTS = ("branchy", "restructured", "everywhere")


def boundary_slabs(shape: tuple[int, ...], width: int) -> list[tuple[slice, ...]]:
    """Decompose the boundary frame of thickness ``width`` into
    non-overlapping slabs (two per axis, shrinking laterally with axis
    index so slabs never overlap)."""
    slabs: list[tuple[slice, ...]] = []
    if width == 0:
        return slabs
    for axis in range(len(shape)):
        for side in ("lo", "hi"):
            sl: list[slice] = []
            for ax2, n in enumerate(shape):
                if ax2 < axis:
                    sl.append(slice(width, n - width))
                elif ax2 == axis:
                    sl.append(slice(0, width) if side == "lo" else slice(n - width, n))
                else:
                    sl.append(slice(None))
            slabs.append(tuple(sl))
    return slabs


def _band_slabs(slabs: list[tuple[slice, ...]], rows: slice) -> list[tuple[slice, ...]]:
    """``slabs`` (from :func:`boundary_slabs`) cut to the axis-0 ``rows``,
    in the rows' own coordinates; slabs outside them drop out."""
    cut = []
    for sl in slabs:
        lo = max(sl[0].start, rows.start) - rows.start
        hi = min(sl[0].stop, rows.stop) - rows.start
        if lo < hi:
            cut.append((slice(lo, hi),) + sl[1:])
    return cut


class _StepBinding:
    """One isotropic step bound to its arrays (:func:`_step_arrays`) over
    ``rows``: the Laplacian of ``u`` into the scratch buffer, and, when the
    damped update runs in the PML slabs, each slab with its view of every
    array."""

    def __init__(self, prop: "IsotropicPropagator", arrays: tuple, rows: slice | None,
                 slabbed: bool):
        self.arrays, self.rows = arrays, rows
        u, _, lap = arrays[:3]
        self.laplacian = LaplacianBinding(u, prop.grid.spacing, prop.space_order, out=lap)
        slabs = prop._slabs if rows is None else _band_slabs(prop._slabs, rows)
        #: per slab: the slab and its view of each of :attr:`arrays`
        self.slabs = [[sl] + [a[sl] for a in self.arrays] for sl in slabs] if slabbed else []

    def holds(self, arrays: tuple, rows: slice | None) -> bool:
        """Whether this binding was cut from ``arrays`` (the same objects,
        in :func:`_step_arrays` order) over ``rows``."""
        return rows == self.rows and all(map(is_, self.arrays, arrays))


def _step_arrays(v) -> tuple:
    """The arrays of ``v`` (the propagator or its band views) an isotropic
    step reads or writes."""
    pml = v.pml
    return (v.u, v.u_prev, v._lap, v.vp2dt2,
            pml.sigma2, pml.coeff_curr, pml.coeff_prev, pml.coeff_rhs)


class IsotropicPropagator(Propagator):
    """Constant-density acoustic (isotropic) propagator.

    Fields: ``u`` (current) and ``u_prev``; the update writes ``u_next``
    into the ``u_prev`` storage and swaps references, mirroring the paper's
    "logically swapping t_n and t_{n+1} arrays".
    """

    scheme = "second_order"
    physics = "isotropic"
    grid_arrays = (
        "u", "u_prev", "vp2dt2", "_lap",
        "pml.sigma2", "pml.coeff_curr", "pml.coeff_prev", "pml.coeff_rhs",
    )

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        pml_variant: str = "branchy",
        pml_reflection: float = 1e-4,
        **kwargs,
    ):
        super().__init__(model, dt, space_order, boundary_width, **kwargs)
        if pml_variant not in _VARIANTS:
            raise ConfigurationError(
                f"pml_variant must be one of {_VARIANTS}, got '{pml_variant}'"
            )
        self.pml_variant = pml_variant
        self.pml = StandardPML(
            self.grid,
            boundary_width,
            model.max_wave_speed(),
            self.dt,
            reflection=pml_reflection,
        )
        self.u = self._new_field("u")
        self.u_prev = self._new_field("u_prev")
        self._lap = np.zeros(self.grid.shape, dtype=DTYPE)
        # precomputed: dt^2 * vp^2 (the paper's Q operator weight)
        self.vp2dt2 = (self.model.vp.astype(np.float64) ** 2 * self.dt**2).astype(DTYPE)
        self._slabs = boundary_slabs(self.grid.shape, self.pml.width)
        self._interior = self.pml.interior_slices()
        #: the last two step bindings: ``u`` and ``u_prev`` swap every step
        self._bound: list[_StepBinding] = []

    def snapshot_field(self) -> np.ndarray:
        return self.u

    # ------------------------------------------------------------------
    def _step_impl(self, v, rows, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        # absorbing or not is a property of the whole grid, not of the band
        slabbed = self.pml_variant != "everywhere" and self.pml.is_absorbing()
        arrays = _step_arrays(v)
        bound = next((b for b in self._bound if b.holds(arrays, rows)), None)
        if bound is None:
            bound = _StepBinding(self, arrays, rows, slabbed)
            self._bound = self._bound[-1:] + [bound]
        lap = bound.laplacian.run()
        u, up, pml = v.u, v.u_prev, v.pml
        if not slabbed:
            rhs = v.vp2dt2 * lap - (self.dt**2 * pml.sigma2) * u
            u_next = pml.coeff_curr * u - pml.coeff_prev * up + pml.coeff_rhs * rhs
            up[...] = u_next
        else:
            # plain leapfrog everywhere, then damped overwrite in the slabs
            u_next = 2.0 * u - up + v.vp2dt2 * lap
            for sl, u_s, up_s, lap_s, vp2dt2, sigma2, curr, prev, coeff_rhs in bound.slabs:
                rhs = vp2dt2 * lap_s - (self.dt**2 * sigma2) * u_s
                u_next[sl] = curr * u_s - prev * up_s + coeff_rhs * rhs
            up[...] = u_next
        # source injection: + dt^2 vp^2 f^n at the source point (Eq. 1)
        for index, amp in sources:
            self.u_prev[index] += self.vp2dt2[index] * np.float32(amp)
        # logical swap of t_n / t_{n+1}
        self.u, self.u_prev = self.u_prev, self.u
        self.fields["u"], self.fields["u_prev"] = self.u, self.u_prev

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import isotropic_workloads

        return isotropic_workloads(
            self.grid.shape, self.space_order, self.pml.width, self.pml_variant
        )
