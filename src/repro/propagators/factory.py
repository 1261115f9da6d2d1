"""Propagator factory keyed by the paper's physics names."""

from __future__ import annotations

from repro.model.earth_model import EarthModel
from repro.propagators.acoustic import AcousticPropagator
from repro.propagators.base import Propagator
from repro.propagators.elastic import ElasticPropagator
from repro.propagators.isotropic import IsotropicPropagator
from repro.utils.errors import ConfigurationError

#: The paper's three formulations (Section 3.3).
PHYSICS_NAMES = ("isotropic", "acoustic", "elastic")
#: plus the anisotropic extension the paper defers to future work
EXTENDED_PHYSICS_NAMES = PHYSICS_NAMES + ("vti",)


def make_propagator(
    physics: str,
    model: EarthModel,
    dt: float | None = None,
    space_order: int = 8,
    boundary_width: int = 16,
    **kwargs,
) -> Propagator:
    """Build the propagator for ``physics`` in the model's dimensionality.

    ``kwargs`` pass through to the concrete class (``pml_variant`` for
    isotropic, ``cpml_alpha_max`` for the staggered systems, ...).
    """
    physics = physics.lower()
    if physics == "isotropic":
        return IsotropicPropagator(
            model, dt, space_order, boundary_width, **kwargs
        )
    if physics == "acoustic":
        return AcousticPropagator(model, dt, space_order, boundary_width, **kwargs)
    if physics == "elastic":
        return ElasticPropagator(model, dt, space_order, boundary_width, **kwargs)
    if physics == "vti":
        from repro.propagators.vti import VTIPropagator

        return VTIPropagator(model, dt, space_order, boundary_width, **kwargs)
    raise ConfigurationError(
        f"unknown physics '{physics}'; expected one of {EXTENDED_PHYSICS_NAMES}"
    )
