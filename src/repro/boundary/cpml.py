"""Convolutional PML (C-PML) for the first-order systems.

Komatitsch & Martin (2007) recursive-convolution formulation: each spatial
derivative :math:`\\partial_i u` entering the acoustic/elastic updates is
replaced by

.. math::

    \\widetilde{\\partial_i u} = \\frac{\\partial_i u}{\\kappa_i} + \\psi_i,
    \\qquad
    \\psi_i^{n+1} = b_i \\psi_i^n + a_i \\, \\partial_i u

with per-axis 1-D coefficient profiles

.. math::

    b_i = e^{-(\\sigma_i/\\kappa_i + \\alpha_i)\\Delta t}, \\qquad
    a_i = \\frac{\\sigma_i}{\\kappa_i(\\sigma_i + \\kappa_i\\alpha_i)}(b_i - 1).

As in the paper we keep :math:`\\kappa_i = 1`, so the per-dimension state is
exactly *four one-dimensional arrays*: ``(b, a)`` evaluated at integer and at
half-shifted positions (staggered fields sample the profiles at
``i + 1/2``). Each is also kept as a view shaped to broadcast along its
axis, built at construction. Memory variables :math:`\\psi` are lazily
allocated per named derivative. :meth:`CPML.damp` damps a derivative in
one call; a :class:`DampingBinding` binds the damping to its derivative
buffer once (the shape checked, the memory variable allocated, psi and,
along axis 0, the profiles cut to the buffer's rows) and damps the
buffer's current values on every :meth:`~DampingBinding.run`, so a time
step that reuses its buffers writes::

    diff = StaggeredBinding("forward", p, 1, h, out=buf)  # once
    damp = DampingBinding(cpml, "dpdx", 1, buf, half=True)  # once
    diff.run()  # every step: buf holds D+ p along axis 1
    damp.run()  # buf holds the damped derivative
"""

from __future__ import annotations

import math

import numpy as np

from repro.boundary.profiles import damping_profile, pml_sigma_max
from repro.grid.grid import Grid
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError


class CPML:
    """C-PML coefficient store + memory-variable manager for one grid.

    Parameters
    ----------
    grid:
        The wavefield grid.
    width:
        Layer width in cells (each side of each axis). ``0`` disables
        absorption (all ``a = 0``) while keeping the same code path.
    vmax:
        Fastest model velocity.
    dt:
        Time step.
    alpha_max:
        Peak of the frequency-shift profile; Komatitsch & Martin recommend
        ``pi * f_dominant``. Default 0 reduces to classic PML coefficients.
    reflection:
        Target theoretical reflection coefficient.
    """

    def __init__(
        self,
        grid: Grid,
        width: int,
        vmax: float,
        dt: float,
        alpha_max: float = 0.0,
        reflection: float = 1e-4,
        profile_order: int = 2,
    ):
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if width < 0:
            raise ConfigurationError("width must be >= 0")
        if alpha_max < 0:
            raise ConfigurationError("alpha_max must be >= 0")
        self.grid = grid
        self.width = int(width)
        self.dt = float(dt)
        # the paper's "four different one-dimensional arrays ... for each
        # dimension": b_full, a_full, b_half, a_half per axis
        self.b: list[dict[bool, np.ndarray]] = []
        self.a: list[dict[bool, np.ndarray]] = []
        for axis, n in enumerate(grid.shape):
            if 2 * width >= n:
                raise ConfigurationError(
                    f"C-PML width {width} too large for axis of {n} points"
                )
            h = grid.spacing[axis]
            smax = (
                pml_sigma_max(vmax, width * h, reflection, profile_order)
                if width > 0
                else 0.0
            )
            per_pos_b: dict[bool, np.ndarray] = {}
            per_pos_a: dict[bool, np.ndarray] = {}
            for half in (False, True):
                sigma = damping_profile(
                    n, width, smax, h, order=profile_order, half_shift=half
                )
                # alpha ramps from alpha_max at the interior edge to 0 at the
                # outer edge (Komatitsch-Martin), proportional to 1 - depth/L
                if width > 0 and smax > 0:
                    depth_frac = np.where(smax > 0, (sigma / smax) ** (1.0 / profile_order), 0.0)
                else:
                    depth_frac = np.zeros(n)
                alpha = alpha_max * (1.0 - depth_frac)
                alpha = np.where(sigma > 0, alpha, 0.0)
                b = np.exp(-(sigma + alpha) * dt)
                denom = sigma + alpha
                with np.errstate(divide="ignore", invalid="ignore"):
                    a_arr = np.where(denom > 0, sigma / np.maximum(denom, 1e-300) * (b - 1.0), 0.0)
                per_pos_b[half] = b.astype(DTYPE)
                per_pos_a[half] = a_arr.astype(DTYPE)
            self.b.append(per_pos_b)
            self.a.append(per_pos_a)
        #: per axis and half, the ``(b, a)`` profiles as views shaped to
        #: broadcast along their axis: what :meth:`damp` multiplies by
        self._profiles = [
            {
                half: (self._broadcast(b[half], axis), self._broadcast(a[half], axis))
                for half in (False, True)
            }
            for axis, (b, a) in enumerate(zip(self.b, self.a))
        ]
        self._psi: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def is_absorbing(self) -> bool:
        return self.width > 0

    def memory_names(self) -> tuple[str, ...]:
        """Names of the memory variables allocated so far."""
        return tuple(self._psi.keys())

    def memory_bytes(self) -> int:
        """Bytes held by all psi fields."""
        return sum(p.nbytes for p in self._psi.values())

    def memory_arrays(self) -> tuple[np.ndarray, ...]:
        """The memory variables allocated so far (the live arrays)."""
        return tuple(self._psi.values())

    def reset(self) -> None:
        """Zero all memory variables (new simulation, same coefficients)."""
        for p in self._psi.values():
            p.fill(0.0)

    def capture(self) -> dict[str, np.ndarray]:
        """Deep-copy every memory variable — the C-PML half of a
        checkpoint. The psi fields are real recursion state: restoring a
        wavefield without them replays different absorption."""
        return {name: p.copy() for name, p in self._psi.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Restore :meth:`capture`'s state exactly. Memory variables are
        lazily allocated, so any psi born *after* the capture is deleted —
        keeping it would seed the replay with future state."""
        for name in [n for n in self._psi if n not in snapshot]:
            del self._psi[name]
        for name, p in snapshot.items():
            live = self._psi.get(name)
            if live is None:
                self._psi[name] = p.copy()
            else:
                live[...] = p

    def _broadcast(self, arr1d: np.ndarray, axis: int) -> np.ndarray:
        shape_ones = [1] * self.grid.ndim
        shape_ones[axis] = len(arr1d)
        return arr1d.reshape(shape_ones)

    def damp(
        self,
        name: str,
        axis: int,
        deriv: np.ndarray,
        half: bool,
        rows: slice | None = None,
    ) -> np.ndarray:
        """Apply the C-PML convolution to a spatial derivative: bind, then
        run once (:class:`DampingBinding`).

        Parameters
        ----------
        name:
            Unique key of this derivative (e.g. ``"dpdx"``); the associated
            memory variable persists across time steps under this key.
        axis:
            Differentiation axis.
        deriv:
            The raw derivative field (modified **in place** to the damped
            value, also returned).
        half:
            Whether the derivative lives at half-shifted positions along
            ``axis`` (selects the staggered coefficient profile).
        rows:
            The axis-0 rows ``deriv`` covers (a propagator's live band), or
            None for every row: the memory variable and, along axis 0, the
            profile are cut to this window.
        """
        return DampingBinding(self, name, axis, deriv, half, rows).run()


class DampingBinding:
    """:meth:`CPML.damp` bound to one derivative buffer ``deriv`` over
    ``rows``: the shape is checked, the memory variable ``name`` allocated
    if it is not yet, and psi and (along axis 0) the profiles cut to
    ``rows``, once. :meth:`run` damps ``deriv``'s current values in place.

    The binding holds the memory variable it cut: :meth:`holds` tells
    whether it still fits a call, since a :meth:`CPML.restore` can replace
    or delete the memory variable under the same name.
    """

    def __init__(
        self,
        cpml: CPML,
        name: str,
        axis: int,
        deriv: np.ndarray,
        half: bool,
        rows: slice | None = None,
    ):
        shape = cpml.grid.shape
        if rows is not None:
            shape = (len(range(shape[0])[rows]),) + shape[1:]
        if deriv.shape != shape:
            raise ConfigurationError(
                f"derivative shape {deriv.shape} does not match grid rows {shape}"
            )
        self._cpml, self._name = cpml, name
        self.deriv, self.rows = deriv, rows
        #: the memory variable (every row), None while the layer is off
        self.psi: np.ndarray | None = None
        self._views = None
        if cpml.width == 0:
            return  # no-op layer: keep identical code path
        psi = cpml._psi.get(name)
        if psi is None:
            psi = cpml._psi[name] = np.zeros(cpml.grid.shape, dtype=DTYPE)
        self.psi = psi
        b, a = cpml._profiles[axis][half]
        if rows is not None:
            psi = psi[rows]
            if axis == 0:
                b, a = b[rows], a[rows]
        self._views = psi, b, a

    def holds(self, deriv: np.ndarray, rows: slice | None) -> bool:
        """Whether this binding is the one for ``deriv`` over ``rows``: the
        same buffer, the same rows, and the memory variable it cut still the
        live one."""
        return (
            deriv is self.deriv
            and rows == self.rows
            and self._cpml._psi.get(self._name) is self.psi
        )

    def run(self) -> np.ndarray:
        deriv = self.deriv
        if self._views is not None:
            psi, b, a = self._views
            # psi <- b*psi + a*deriv ; deriv <- deriv + psi  (kappa = 1)
            psi *= b
            psi += a * deriv
            deriv += psi
        return deriv
