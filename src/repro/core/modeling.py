"""Seismic modeling drivers (the forward phase of Algorithm 1).

``run_modeling`` executes the physics on the host; passing ``gpu_options``
and a ``platform`` additionally drives the Figure-4 offload pipeline so the
run carries modelled GPU timings (numerics are unchanged — the device
executes the same NumPy arrays). ``estimate_modeling`` runs the pipeline
alone for paper-scale grids.
"""

from __future__ import annotations

from repro.core.config import GPUOptions, GpuTimes, ModelingConfig, ModelingResult
from repro.core.pipeline import run_pipeline_modeling
from repro.core.platform import CRAY_K40, Platform
from repro.core.shot import Shot, build_pipeline
from repro.core.shot import _build_runtime as _build_runtime  # re-exported
from repro.trace.tracer import Tracer


def run_modeling(
    config: ModelingConfig,
    gpu_options: GPUOptions | None = None,
    platform: Platform = CRAY_K40,
    tracer: Tracer | None = None,
) -> ModelingResult:
    """Run seismic modeling; returns the seismogram, the snapshot movie and
    (when ``gpu_options`` is given) the modelled GPU timing."""
    return Shot(config, "modeling", gpu_options, platform, tracer).run()


def estimate_modeling(
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    platform: Platform = CRAY_K40,
    options: GPUOptions | None = None,
    nreceivers: int = 128,
    space_order: int = 8,
    boundary_width: int = 16,
    pml_variant: str = "branchy",
    snapshot_decimate: int = 4,
    tracer: Tracer | None = None,
) -> GpuTimes:
    """Timing-only modeling run at arbitrary (paper-scale) grid sizes."""
    pipeline = build_pipeline(
        options if options is not None else GPUOptions(), platform, physics,
        shape, nreceivers, space_order, boundary_width, pml_variant, tracer,
    )
    return run_pipeline_modeling(pipeline, nt, snap_period, snapshot_decimate)
