"""Finite-difference coefficient generation.

Coefficients are derived by solving the Taylor-moment (Vandermonde) system

.. math::  \\sum_q c_q \\, o_q^p / p! = \\delta_{p,d}, \\qquad p = 0..P-1

for a set of sample offsets :math:`o_q` and target derivative order
:math:`d`. For the small stencils used here (radius <= 8) the float64 solve
is exact to machine precision; results are cached.

Three flavours are exposed:

* :func:`centered_coefficients` — general centered stencils on integer
  offsets ``-M..M``.
* :func:`second_derivative_coefficients` — one-sided representation
  ``(c0, c1..cM)`` of the symmetric 2nd-derivative stencil, the form the
  vectorised operators consume.
* :func:`staggered_coefficients` — half-point first-derivative weights used
  by the staggered-grid (acoustic/elastic) propagators.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.utils.errors import ConfigurationError

#: The paper's operators: stencil width 8 -> 8th order in space.
DEFAULT_SPACE_ORDER = 8


def _solve_moments(offsets: np.ndarray, derivative: int) -> np.ndarray:
    """Solve the Taylor-moment system for weights at ``offsets`` approximating
    the ``derivative``-th derivative (unit spacing)."""
    n = len(offsets)
    if derivative >= n:
        raise ConfigurationError(
            f"need more than {n} samples for derivative order {derivative}"
        )
    A = np.empty((n, n), dtype=np.float64)
    for p in range(n):
        A[p, :] = offsets**p / math.factorial(p)
    rhs = np.zeros(n, dtype=np.float64)
    rhs[derivative] = 1.0
    return np.linalg.solve(A, rhs)


@lru_cache(maxsize=None)
def centered_coefficients(order: int, derivative: int) -> tuple[float, ...]:
    """Weights of the centered stencil of accuracy ``order`` for the given
    ``derivative``, on integer offsets ``-M..M`` with ``M = order//2`` (for
    the 2nd derivative) and unit spacing.

    ``order`` must be a positive even integer. Returned weights are indexed
    by offset ``-M..M`` (length ``2M + 1``).
    """
    if order <= 0 or order % 2 != 0:
        raise ConfigurationError(f"order must be a positive even integer, got {order}")
    if derivative not in (1, 2):
        raise ConfigurationError(f"only derivatives 1 and 2 supported, got {derivative}")
    m = order // 2 if derivative == 2 else order // 2
    offsets = np.arange(-m, m + 1, dtype=np.float64)
    w = _solve_moments(offsets, derivative)
    return tuple(float(x) for x in w)


@lru_cache(maxsize=None)
def second_derivative_coefficients(order: int) -> tuple[float, tuple[float, ...]]:
    """One-sided form ``(c0, (c1, ..., cM))`` of the centered 2nd-derivative
    stencil: ``d2u[i] = c0*u[i] + sum_m cm*(u[i+m] + u[i-m])``.

    The symmetric halves are identical, so only one is returned; the
    operators exploit the symmetry to halve multiplications.
    """
    w = centered_coefficients(order, 2)
    m = order // 2
    c0 = w[m]
    side = tuple(w[m + k] for k in range(1, m + 1))
    # the float64 moment solve loses the symmetry from order 14 up
    for k in range(1, m + 1):
        if not math.isclose(w[m + k], w[m - k], rel_tol=1e-12, abs_tol=1e-14):
            raise ConfigurationError(
                f"2nd-derivative stencil of order {order} lost symmetry "
                f"in the coefficient solve"
            )
    return float(c0), side


@lru_cache(maxsize=None)
def staggered_coefficients(order: int) -> tuple[float, ...]:
    """Half-point first-derivative weights ``(c1, ..., cM)`` with
    ``M = order//2``.

    The derivative at half-point ``i + 1/2`` of samples on integer points is
    ``du[i+1/2] = sum_m cm * (u[i+m] - u[i-m+1])`` (unit spacing); by
    symmetry the same weights serve the backward (half -> integer) flavour.

    For ``order=8`` these are the classic Levander weights
    ``(1225/1024, -245/3072, 49/5120, -5/7168)``.
    """
    if order <= 0 or order % 2 != 0:
        raise ConfigurationError(f"order must be a positive even integer, got {order}")
    m = order // 2
    offsets = np.array(
        [k + 0.5 for k in range(m)] + [-(k + 0.5) for k in range(m)],
        dtype=np.float64,
    )
    w = _solve_moments(offsets, 1)
    # w[k] is the weight of offset k+1/2 and w[m+k] of -(k+1/2); antisymmetry
    # means w[k] == -w[m+k], which the solve loses from order 18 up.
    for k in range(m):
        if not math.isclose(w[k], -w[m + k], rel_tol=1e-12, abs_tol=1e-14):
            raise ConfigurationError(
                f"staggered stencil of order {order} lost antisymmetry "
                f"in the coefficient solve"
            )
    return tuple(float(w[k]) for k in range(m))
