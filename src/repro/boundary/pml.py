"""Standard PML for the second-order isotropic wave equation.

The paper: "The standard PML is used in our second order (isotropic)
formulation of the wave equation... One major problem with the standard PML
is that the boundary layer does not absorb evanescent waves where the PML
method suffers from large spurious reflections."

We implement the damped second-order form

.. math::

    u_{tt} + 2\\sigma u_t + \\sigma^2 u = v_p^2 \\nabla^2 u + f

with :math:`\\sigma(x) = \\sum_i \\sigma_i(x_i)` the summed per-axis damping
profiles. Discretising :math:`u_t` centrally gives the update

.. math::

    u^{n+1} = \\frac{2 u^n - (1 - \\sigma \\Delta t) u^{n-1}
              + \\Delta t^2 (v_p^2 \\nabla^2 u^n + f - \\sigma^2 u^n)}
             {1 + \\sigma \\Delta t}

which reduces to the plain leap-frog update where :math:`\\sigma = 0`. The
class precomputes the three coefficient fields the isotropic propagator
consumes; it also exposes an *interior mask* so the propagator can implement
both code variants the paper benchmarks in its Figures 6-7: branchy
per-region updates vs "compute PML everywhere in the grid domain".
"""

from __future__ import annotations

import numpy as np

from repro.boundary.profiles import damping_profile, pml_sigma_max
from repro.grid.grid import Grid
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError


class StandardPML:
    """Damping-form PML for the 2nd-order formulation.

    Parameters
    ----------
    grid:
        Wavefield grid.
    width:
        Layer thickness in cells on each side of each axis.
    vmax:
        Fastest velocity in the model (sets the damping amplitude).
    dt:
        Time step (bakes the update coefficients).
    reflection:
        Target theoretical reflection coefficient of the layer.
    """

    def __init__(
        self,
        grid: Grid,
        width: int,
        vmax: float,
        dt: float,
        reflection: float = 1e-4,
        profile_order: int = 2,
    ):
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if width < 0:
            raise ConfigurationError("width must be >= 0")
        self.grid = grid
        self.width = int(width)
        self.dt = float(dt)
        sigma = np.zeros(grid.shape, dtype=np.float64)
        for axis, n in enumerate(grid.shape):
            if 2 * width >= n:
                raise ConfigurationError(
                    f"PML width {width} too large for axis of {n} points"
                )
            smax = (
                pml_sigma_max(vmax, width * grid.spacing[axis], reflection, profile_order)
                if width > 0
                else 0.0
            )
            prof = damping_profile(
                n, width, smax, grid.spacing[axis], order=profile_order
            )
            shape_ones = [1] * grid.ndim
            shape_ones[axis] = n
            sigma = sigma + prof.reshape(shape_ones)
        self.sigma = sigma.astype(DTYPE)
        # nothing writes sigma after construction: reduce it once
        self._absorbing = self.width > 0 and float(self.sigma.max()) > 0.0
        # update coefficients: u+ = A*u - B*u- + C*(dt^2 * rhs)
        denom = 1.0 + sigma * dt
        self.coeff_curr = (2.0 / denom).astype(DTYPE)
        self.coeff_prev = ((1.0 - sigma * dt) / denom).astype(DTYPE)
        self.coeff_rhs = (1.0 / denom).astype(DTYPE)
        self.sigma2 = (sigma**2).astype(DTYPE)

    def interior_slices(self) -> tuple[slice, ...]:
        """Slices of the region where sigma == 0 (the physical domain).

        The branchy isotropic kernel updates this region with the cheap
        plain formula and the boundary slabs with the damped one; the
        "PML everywhere" variant ignores this and applies the damped formula
        to every point (identical numerics, more flops, no branches).
        """
        w = self.width
        if w == 0:
            return (slice(None),) * self.grid.ndim
        return tuple(slice(w, n - w) for n in self.grid.shape)

    def is_absorbing(self) -> bool:
        return self._absorbing
