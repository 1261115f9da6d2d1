"""One executed shot: the host physics, stepped by the Figure-4 schedule.

:class:`Shot` is written once for both drivers and the recovery layer:
the propagators, the snap period, source and receivers, the seismogram,
the snapshot store and — for RTM — the illumination, the backward
propagator, the imaging condition and the final normalise-and-mute.
With ``gpu_options`` it also builds the :class:`~repro.core.pipeline.
OffloadPipeline` that times the run (:func:`build_pipeline`, the one
constructor of that pipeline).
:func:`~repro.core.modeling.run_modeling` and :func:`~repro.core.rtm.
run_rtm` are :meth:`Shot.run`; :class:`~repro.resilience.recovery.
ResilientPipeline` interprets the same steps under its guard.

A shot runs no static gate: a caller who wants one calls it before the
shot (``repro.analyze.drivers.check_schedule``, ``repro.sanitize.drivers.
check_sanitize`` or ``repro.analyze.validate_cli.check_validate``), so
``core`` imports no layer above it.
"""

from __future__ import annotations

import numpy as np

from repro.acc.runtime import Runtime
from repro.core.config import (
    GPUOptions,
    GpuTimes,
    ModelingConfig,
    ModelingResult,
    RTMResult,
)
from repro.core.imaging import (
    cross_correlation_update,
    illumination_update,
    mute_shallow,
    normalize_image,
)
from repro.core.pipeline import OffloadPipeline
from repro.core.platform import CRAY_K40, Platform
from repro.core.schedule import Schedule, Step
from repro.core.snapshots import SnapshotStore, default_snap_period
from repro.gpusim.device import Device
from repro.propagators.factory import make_propagator
from repro.source.acquisition import Receivers, line_receivers
from repro.source.injection import PointSource
from repro.source.wavelets import integrated_ricker, ricker
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError


def _make_wavelet(physics: str, nt: int, dt: float, peak_freq: float) -> np.ndarray:
    """Physics-appropriate source time function: Eq. 2 injects the time
    integral of the wavelet; the others inject it directly."""
    if physics == "acoustic":
        return integrated_ricker(nt, dt, peak_freq)
    return ricker(nt, dt, peak_freq)


def _default_source(config: ModelingConfig, dt: float) -> PointSource:
    grid = config.model.grid
    wavelet = _make_wavelet(config.physics.lower(), config.nt, dt, config.peak_freq)
    src = PointSource.at_center(grid, wavelet, depth_index=config.source_depth())
    if config.source_x_index is not None:
        x = int(config.source_x_index)
        if not 0 <= x < grid.shape[1]:
            raise ConfigurationError(f"source_x_index {x} outside the grid")
        idx = list(src.index)
        idx[1] = x
        src = PointSource(tuple(idx), src.wavelet)
    return src


def _default_receivers(config: ModelingConfig) -> Receivers:
    grid = config.model.grid
    depth = min(config.boundary_width + 2, grid.shape[0] - 1)
    return line_receivers(grid, depth, stride=4, margin=config.boundary_width)


def _build_runtime(
    options: GPUOptions, platform: Platform, tracer: Tracer | None = None
) -> Runtime:
    device = Device(
        platform.gpu,
        pcie=platform.pcie,
        toolkit=options.compiler.default_toolkit,
        pinned_host=options.flags.pin,
    )
    return Runtime(
        device, compiler=options.compiler, flags=options.flags, tracer=tracer
    )


def build_pipeline(
    options: GPUOptions,
    platform: Platform,
    physics: str,
    shape: tuple[int, ...],
    nreceivers: int = 128,
    space_order: int = 8,
    boundary_width: int = 16,
    pml_variant: str = "branchy",
    tracer: Tracer | None = None,
) -> OffloadPipeline:
    """A fresh runtime on ``platform`` and the offload pipeline on it — the
    one constructor of :class:`OffloadPipeline`. Building issues no
    directive, so a caller attaches its recorder, sanitizer session or
    fault injector to ``pipeline.rt`` afterwards."""
    return OffloadPipeline(
        _build_runtime(options, platform, tracer),
        physics,
        shape,
        nreceivers=nreceivers,
        space_order=space_order,
        boundary_width=boundary_width,
        options=options,
        pml_variant=pml_variant,
    )


class Shot:
    """One executed modeling or RTM shot.

    :meth:`advance` runs the host physics of one schedule step and
    :meth:`run` interprets the whole schedule: each step's physics, then
    its pipeline actions. The pipeline is physics-free, so the numerics
    are the same with or without it.
    """

    def __init__(
        self,
        config: ModelingConfig,
        mode: str,
        gpu_options: GPUOptions | None = None,
        platform: Platform = CRAY_K40,
        tracer: Tracer | None = None,
        injector=None,
    ):
        if config.model is None:
            raise ConfigurationError(f"run_{mode} needs an EarthModel")
        self.config = config
        self.mode = mode
        self.physics = config.physics.lower()
        self.shape = config.model.grid.shape
        self.fwd = self._propagator()
        self.dt = self.fwd.dt
        self.snap_period = (
            config.snap_period
            if config.snap_period is not None
            else default_snap_period(self.dt, config.peak_freq)
        )
        self.schedule = Schedule(
            mode, config.nt, self.snap_period, config.snapshot_decimate
        )
        self.store = SnapshotStore(self.snap_period, decimate=self.schedule.decimate)
        self.source = _default_source(config, self.dt)
        self.receivers = (
            config.receivers
            if config.receivers is not None
            else _default_receivers(config)
        )
        self.seismogram = np.zeros(
            (config.nt, self.receivers.count), dtype=np.float32
        )
        self.illum = np.zeros(self.shape, np.float32) if mode == "rtm" else None
        self.bwd = None
        self.image: np.ndarray | None = None
        self.pipeline: OffloadPipeline | None = None
        if gpu_options is not None:
            self.pipeline = build_pipeline(
                gpu_options, platform, self.physics, self.shape,
                nreceivers=self.receivers.count,
                space_order=config.space_order,
                boundary_width=config.boundary_width,
                pml_variant=config.pml_variant,
                tracer=tracer,
            )
            if injector is not None:
                self.pipeline.rt.attach_injector(injector)

    def _propagator(self):
        config = self.config
        kwargs = {}
        if self.physics == "isotropic":
            kwargs["pml_variant"] = config.pml_variant
        return make_propagator(
            self.physics,
            config.model,
            dt=config.dt,
            space_order=config.space_order,
            boundary_width=config.boundary_width,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def advance(self, step: Step) -> bool:
        """The host physics of one step. Returns whether the step injects:
        the source while its amplitude is non-zero going forward, the
        receivers always going backward."""
        n = step.n
        if step.kind == "forward":
            amp = self.source.amplitude(n)
            srcs = [(self.source.index, amp)] if amp != 0.0 else []
            self.fwd.step(srcs)
            field = self.fwd.snapshot_field()
            self.seismogram[n, :] = self.receivers.record(field)
            if step.snap:
                self.store.save(n, field)
                if self.illum is not None:
                    illumination_update(self.illum, field)
            return bool(srcs)
        if step.kind == "swap":
            self.bwd = self._propagator()
            self.image = np.zeros(self.shape, dtype=np.float32)
        elif step.kind == "backward":
            # receiver injection: the time-reversed records drive the
            # backward wavefield (inject_pressure reaches the real state
            # fields — the elastic observable is derived, so a plain field
            # write would be lost)
            self.bwd.step(())
            self.bwd.inject_pressure(
                self.receivers.indices, self.seismogram[n, :],
                scale=np.float32(1.0 / self.bwd.dt),
            )
            if step.snap:
                cross_correlation_update(
                    self.image, self.store.load(n), self.bwd.snapshot_field()
                )
        return True

    def run(self) -> ModelingResult | RTMResult:
        """Interpret the whole schedule; returns the mode's result."""
        pipeline = self.pipeline
        for step in self.schedule:
            inject = self.advance(step)
            if pipeline is not None:
                for action in step.actions:
                    pipeline.perform(action, step, inject)
        return self.result(pipeline.gpu_times() if pipeline is not None else None)

    # ------------------------------------------------------------------
    def capture(self, kind: str) -> tuple[np.ndarray, dict]:
        """The observable field and full state of the ``kind`` phase
        ('forward' | 'backward'), for a checkpoint."""
        if kind == "backward":
            state = {"prop": self.bwd.capture_state(), "image": self.image.copy()}
            return self.bwd.snapshot_field(), state
        state = {"prop": self.fwd.capture_state()}
        if self.illum is not None:
            state["illum"] = self.illum.copy()
        return self.fwd.snapshot_field(), state

    def restore(self, kind: str, state: dict) -> None:
        """Put a :meth:`capture` of the ``kind`` phase back."""
        (self.bwd if kind == "backward" else self.fwd).restore_state(state["prop"])
        if "illum" in state:
            self.illum[...] = state["illum"]
        if "image" in state:
            self.image[...] = state["image"]

    def result(self, gpu: GpuTimes | None, **extras) -> ModelingResult | RTMResult:
        """The finished shot: the seismogram, snapshots and final field of
        a modeling run, or the normalised, muted image of an RTM run."""
        config = self.config
        if self.mode == "modeling":
            return ModelingResult(
                seismogram=self.seismogram,
                snapshots=self.store,
                final_wavefield=self.fwd.snapshot_field().copy(),
                dt=self.dt,
                gpu=gpu,
                extras=extras,
            )
        raw = self.image.copy()
        out = normalize_image(
            self.image, self.illum if config.illumination_normalize else None
        )
        mute = (
            config.mute_cells
            if config.mute_cells is not None
            else config.boundary_width + 8
        )
        return RTMResult(
            image=mute_shallow(out, mute),
            raw_image=raw,
            seismogram=self.seismogram,
            dt=self.dt,
            gpu=gpu,
            extras={
                "snap_period": self.snap_period,
                "snapshots": self.store.count,
                **extras,
            },
        )


__all__ = ["Shot", "build_pipeline"]
