"""Reverse Time Migration drivers (both phases of Algorithm 1).

Forward: propagate the source wavefield, recording the seismogram at the
receivers and storing full-field snapshots every ``snap_period``.
Backward: propagate the *receiver* wavefield by injecting the time-reversed
seismogram at the receiver positions, and at every snapshot step apply the
cross-correlation imaging condition against the stored source wavefield.

``run_rtm`` executes the physics; with ``gpu_options`` it also drives the
five-step offload pipeline for modelled timings. ``estimate_rtm`` times the
pipeline alone at paper-scale sizes.
"""

from __future__ import annotations

from repro.core.config import GPUOptions, GpuTimes, RTMConfig, RTMResult
from repro.core.pipeline import run_pipeline_rtm
from repro.core.platform import CRAY_K40, Platform
from repro.core.shot import Shot, build_pipeline
from repro.trace.tracer import Tracer


def run_rtm(
    config: RTMConfig,
    gpu_options: GPUOptions | None = None,
    platform: Platform = CRAY_K40,
    tracer: Tracer | None = None,
) -> RTMResult:
    """Run one-shot RTM; returns the migrated image (normalised + muted)
    and, when ``gpu_options`` is given, the modelled GPU timing."""
    return Shot(config, "rtm", gpu_options, platform, tracer).run()


def estimate_rtm(
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
    tracer: Tracer | None = None,
) -> GpuTimes:
    """Timing-only RTM run at arbitrary (paper-scale) grid sizes."""
    pipeline = build_pipeline(
        options if options is not None else GPUOptions(), platform, physics,
        shape, nreceivers, space_order, boundary_width, pml_variant, tracer,
    )
    return run_pipeline_rtm(pipeline, nt, snap_period)
