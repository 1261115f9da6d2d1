"""Execution glue: the ``GPUOptions.compiled`` fast path.

:func:`run_pipeline_compiled` is what
:func:`repro.core.pipeline.run_schedule` (behind
:func:`~repro.core.pipeline.run_pipeline_modeling` /
:func:`~repro.core.pipeline.run_pipeline_rtm`) delegates to when
``options.compiled`` is set: compile (memoised per schedule shape),
then execute the verified :class:`~repro.compile.compiler.BoundPipeline`
on the pipeline's own runtime.  The bound pipeline interprets the same
:class:`~repro.core.schedule.Schedule` as the interpreter, one lowered
step per action, through the runtime's directive methods.
:class:`~repro.core.multigpu.MultiGpuPipeline` binds each rank's
compilation (:func:`compiled_for_pipeline`) the same way and drives its
``forward``/``backward`` steps inside its own exchange loop.

Compilation failures are never silent: :class:`CompileError` propagates.
A case the *interpreter* also refuses (known-failure persona, OOM on
allocate) is mapped onto the same ``failed_times`` records the
interpreted drivers return, so compiled and interpreted runs stay
table-compatible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.compile.compiler import CompiledPipeline, CompileRequest, compile_case
from repro.core.schedule import Schedule
from repro.observe import runlog
from repro.utils.errors import DeviceOutOfMemoryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.acc.runtime import Runtime
    from repro.core.config import GpuTimes
    from repro.core.pipeline import OffloadPipeline

#: memoised CompiledPipeline per schedule shape (cleared for tests)
_CACHE: dict[tuple, CompiledPipeline] = {}


def clear_cache() -> None:
    """Drop all memoised compilations (test isolation)."""
    _CACHE.clear()


def _request_for(
    pipeline: "OffloadPipeline",
    mode: str,
    nt: int,
    snap_period: int,
    snapshot_decimate: int,
) -> CompileRequest:
    return CompileRequest(
        physics=pipeline.physics,
        shape=pipeline.shape,
        mode=mode,
        nt=nt,
        snap_period=snap_period,
        snapshot_decimate=snapshot_decimate,
        nreceivers=pipeline.nreceivers,
        space_order=pipeline.space_order,
        boundary_width=pipeline.boundary_width,
        pml_variant=pipeline.pml_variant,
    )


def _cache_key(pipeline: "OffloadPipeline", request: CompileRequest) -> tuple:
    rt = pipeline.rt
    opts = pipeline.options
    plan = opts.plan
    return (
        request,
        rt.device.spec.name,
        rt.compiler.name,
        rt.compiler.version,
        repr(rt.flags),
        opts.image_on_gpu,
        opts.reuse_forward_kernel,
        opts.loop_fission,
        opts.transpose_fix,
        opts.async_kernels,
        opts.construct,
        repr(opts.schedule),
        None if plan is None else (plan.case, plan.mode, repr(sorted(plan.kernels))),
    )


def _twin_runtime_factory(pipeline: "OffloadPipeline"):
    """Fresh runtimes shaped like the pipeline's own — same device spec,
    PCIe link, toolkit and persona — for recording and verification."""
    from repro.acc.runtime import Runtime
    from repro.gpusim.device import Device

    src = pipeline.rt

    def factory() -> "Runtime":
        device = Device(
            src.device.spec,
            pcie=src.device.pcie,
            toolkit=src.device.toolkit,
            pinned_host=src.device.pinned_host,
        )
        return Runtime(device, compiler=src.compiler, flags=src.flags)

    return factory


def compiled_for_pipeline(
    pipeline: "OffloadPipeline",
    mode: str,
    nt: int,
    snap_period: int,
    snapshot_decimate: int = 1,
) -> CompiledPipeline:
    """Compile (or fetch the memoised compilation of) this pipeline's
    schedule shape.  The pipeline itself is never executed here — twins
    carry the recording and the verification replay."""
    request = _request_for(pipeline, mode, nt, snap_period, snapshot_decimate)
    key = _cache_key(pipeline, request)
    hit = _CACHE.get(key)
    if hit is not None:
        runlog.count("compile.cache_hits")
        return hit
    # a real compilation: record/fuse/verify on the twins. Counted (and
    # spanned on the pipeline's tracer) so a survey loop that recompiles
    # per shot instead of reusing the memo is visible in its trace.
    with pipeline.rt.tracer.span(
        "compile", process="compile", track="compile", cat="compile",
        case=request.name, mode=mode,
    ):
        compiled = compile_case(
            request,
            runtime_factory=_twin_runtime_factory(pipeline),
            source_pipeline=pipeline,
        )
    runlog.count("compile.compilations")
    runlog.emit("compile", case=request.name, mode=mode,
                applied=len(compiled.applied))
    _CACHE[key] = compiled
    return compiled


def run_pipeline_compiled(
    pipeline: "OffloadPipeline",
    mode: str,
    nt: int,
    snap_period: int,
    snapshot_decimate: int = 1,
) -> "GpuTimes":
    """Compile and execute the full schedule on the pipeline's runtime."""
    from repro.core.pipeline import failed_times

    schedule = Schedule(mode, nt, snap_period, snapshot_decimate)
    if schedule.known_failure(
        pipeline.options.compiler, pipeline.physics, pipeline.ndim
    ):
        return failed_times("compiler")
    try:
        compiled = compiled_for_pipeline(
            pipeline, mode, nt, snap_period, snapshot_decimate
        )
    except DeviceOutOfMemoryError:
        # the twin OOMed on allocate/swap; the real device has the same
        # spec, so report what the interpreter would have
        return failed_times("oom")
    runlog.emit(
        "compiled", case=compiled.request.name,
        applied=len(compiled.applied),
        launches=compiled.launches_per_step(),
    )
    bound = compiled.bind(pipeline.rt)
    times = bound.run()
    # the compiled run drained the schedule end-to-end; reflect that in
    # the pipeline's own bookkeeping
    pipeline._present_names = []
    pipeline._phase = "idle"
    return times


__all__ = [
    "clear_cache",
    "compiled_for_pipeline",
    "run_pipeline_compiled",
]
