"""Wave-equation propagators for the paper's three formulations.

* :class:`IsotropicPropagator` — Eq. 1, constant-density second-order system
  with standard PML (25-point / width-8 Laplacian stencil).
* :class:`AcousticPropagator` — Eq. 2, variable-density first-order
  staggered-grid system with C-PML.
* :class:`ElasticPropagator` — Eq. 3, velocity-stress staggered-grid
  system with C-PML.

One class per equation covers 2-D and 3-D (the model's grid decides), in
single precision, matching the paper's experimental setup, and is
validated by the test suite against analytic wavefront kinematics, energy
decay in the absorbing layers, and convergence behaviour.
"""

from repro.propagators.base import Propagator, PropagatorState
from repro.propagators.cfl import (
    courant_number,
    max_stable_dt,
    default_dt,
    points_per_wavelength,
    check_dispersion,
)
from repro.propagators.isotropic import IsotropicPropagator
from repro.propagators.acoustic import AcousticPropagator
from repro.propagators.elastic import ElasticPropagator
from repro.propagators.vti import VTIPropagator
from repro.propagators.factory import make_propagator, PHYSICS_NAMES, EXTENDED_PHYSICS_NAMES

__all__ = [
    "Propagator",
    "PropagatorState",
    "courant_number",
    "max_stable_dt",
    "default_dt",
    "points_per_wavelength",
    "check_dispersion",
    "IsotropicPropagator",
    "AcousticPropagator",
    "ElasticPropagator",
    "VTIPropagator",
    "make_propagator",
    "PHYSICS_NAMES",
    "EXTENDED_PHYSICS_NAMES",
]
