"""Regular grids and domain decomposition."""

from repro.grid.grid import Grid
from repro.grid.decomposition import (
    CartesianDecomposition,
    Subdomain,
    HaloSpec,
    best_dims,
)

__all__ = [
    "Grid",
    "CartesianDecomposition",
    "Subdomain",
    "HaloSpec",
    "best_dims",
]
