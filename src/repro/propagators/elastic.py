"""Elastic velocity-stress propagator — Eq. 3 of the paper, in 2-D and 3-D.

Virieux staggering on the grid's axes, ``(z, x)`` or ``(z, x, y)``, with
same-shape storage: the diagonal stresses ``s_ii`` on integer points, each
velocity ``v_i`` half-shifted along its own axis, and each shear stress
``s_ij`` half-shifted along both of its axes. A derivative from integer to
half points along an axis is taken forward (``D+``), one from half to
integer points backward (``D-``). Per step (leapfrog, velocities then
stresses):

* ``v_i += dt * (1/rho)_i * sum_j D_j s_ij``, with ``D+`` along ``j = i``
  and ``D-`` along every other axis
* ``s_ii += dt * ((lam + 2 mu) * D-_i v_i + lam * sum_{j != i} D-_j v_j)``
* ``s_ij += dt * mu_ij * (D+_i v_j + D+_j v_i)`` for each pair ``i < j``

Axes are taken, and their terms summed, in x, y, z order. ``mu_ij`` is
harmonically averaged to the shear position (so fluid cells carry zero
shear stress), densities arithmetically to the velocity positions. Each of
the ``2 * ndim**2`` derivatives of a step (8 in 2-D, 18 in 3-D) passes
through C-PML. Explosive sources add to every diagonal stress.

3-D is "the most computationally intensive case" of the paper, and the one
whose wavefields exceed the Fermi M2090's 6 GB at the paper's 3-D sizes
(the ``x`` entries in its Tables 3 and 4).
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import add
from typing import Sequence

import numpy as np

from repro.model.earth_model import EarthModel
from repro.propagators.base import (
    KernelWorkload,
    StaggeredPropagator,
    staggered_average,
    staggered_harmonic_average,
)
from repro.utils.arrays import DTYPE


def _sum(terms) -> np.ndarray:
    """``terms`` added left to right. A lone term is returned as it is, not
    added to 0.0: ``0.0 + -0.0`` is +0.0, and the live band counts -0.0 as
    live."""
    return reduce(add, terms)


class ElasticPropagator(StaggeredPropagator):
    """Isotropic elastic velocity-stress propagator (2-D or 3-D, from the
    model)."""

    physics = "elastic"
    grid_arrays = ("fields", "lam", "lam2mu", "buoyancy", "mu", "_scratch")

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
        lam, mu = model.lame_parameters()
        rho = model.density().astype(np.float64)
        tag = self.grid.axis_names
        # the axes in x, y, z order (1, 2, 0 in 3-D): the order every sum of
        # terms is added in, so the bits of the update depend on it
        xyz = sorted(range(self.grid.ndim), key=tag.__getitem__)
        pairs = list(combinations(xyz, 2))

        def stress(i: int, j: int) -> str:
            return "s" + "".join(sorted(tag[i] + tag[j]))

        def term(field: str, axis: int, forward: bool) -> tuple:
            return field, axis, forward, f"d{field}_d{tag[axis]}"

        # each derivative term is (field, axis, forward, C-PML memory name);
        # the names key checkpoints (capture_state), so they never change
        #: per velocity v_i: its name, i and the terms D_j s_ij
        self._velocities = tuple(
            (f"v{tag[i]}", i, tuple(term(stress(i, j), j, j == i) for j in xyz))
            for i in xyz
        )
        #: the divergence terms D-_i v_i, one per diagonal stress
        self._divergence = tuple(term(f"v{tag[i]}", i, False) for i in xyz)
        self._diagonal = tuple(stress(i, i) for i in xyz)
        #: per shear stress s_ij: its name, its index in :attr:`mu` and the
        #: terms D+_i v_j, D+_j v_i
        self._shears = tuple(
            (stress(i, j), k, (term(f"v{tag[j]}", i, True), term(f"v{tag[i]}", j, True)))
            for k, (i, j) in enumerate(pairs)
        )
        for name, _, _ in self._velocities:
            self._new_field(name)
        for name in self._diagonal:
            self._new_field(name)
        for name, _, _ in self._shears:
            self._new_field(name)
        self.lam = lam
        self.lam2mu = (lam.astype(np.float64) + 2.0 * mu.astype(np.float64)).astype(DTYPE)
        inv_rho = (1.0 / rho).astype(DTYPE)
        #: 1/rho averaged to each velocity's half position, per axis
        self.buoyancy = [staggered_average(inv_rho, ax) for ax in range(self.grid.ndim)]
        #: mu harmonically averaged to each shear position, per pair
        self.mu = [staggered_harmonic_average(mu, pair) for pair in pairs]
        #: one derivative buffer per axis: no two terms of a sum share one
        self._scratch = [np.zeros(self.grid.shape, dtype=DTYPE) for _ in xyz]
        self._pressure = np.zeros(self.grid.shape, dtype=DTYPE)

    def snapshot_field(self) -> np.ndarray:
        """Pressure-like observable ``-(sum_i s_ii) / ndim`` (what a
        hydrophone in the solid would sense; the RTM imaging condition
        correlates it).

        The returned array is the propagator's buffer, recomputed over the
        live band only (:meth:`_observed_rows`): read or copy it, never
        write it."""
        rows = self._observed_rows()
        p = self._pressure[rows]
        diagonal = [self.fields[name][rows] for name in self._diagonal]
        np.add(diagonal[0], diagonal[1], out=p)
        for s in diagonal[2:]:
            p += s
        p *= np.float32(-1.0 / len(diagonal))
        return self._pressure

    def _add_pressure(self, indices, amplitudes, scale) -> None:
        """Pressure injection drives every diagonal stress: adding dp to
        the observable ``-(sum_i s_ii) / ndim`` means subtracting dp from
        each."""
        from repro.source.injection import inject

        for name in self._diagonal:
            inject(self.fields[name], indices, amplitudes, scale=-scale)

    # ------------------------------------------------------------------
    def _step_impl(self, v, rows, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        dt = np.float32(self.dt)
        f = v.fields

        def d(field: str, axis: int, forward: bool, name: str) -> np.ndarray:
            return self._damped_diff(v._scratch[axis], f[field], axis, forward, name, rows)

        for name, i, terms in self._velocities:
            f[name] += dt * v.buoyancy[i] * _sum(d(*t) for t in terms)
        div = [d(*t) for t in self._divergence]
        for k, name in enumerate(self._diagonal):
            others = _sum(div[:k] + div[k + 1:])
            f[name] += dt * (v.lam2mu * div[k] + v.lam * others)
        for name, k, terms in self._shears:
            f[name] += dt * v.mu[k] * _sum(d(*t) for t in terms)
        # explosive source: equal push on the diagonal stresses
        for index, amp in sources:
            a = dt * np.float32(amp)
            for name in self._diagonal:
                self.fields[name][index] += a

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import elastic_workloads

        return elastic_workloads(self.grid.shape, self.space_order)
