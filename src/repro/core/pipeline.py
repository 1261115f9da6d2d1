"""The five-step OpenACC offload pipeline of the paper's Figure 4.

Drives a :class:`~repro.acc.runtime.Runtime` through:

1. **Data allocation** — ``enter data copyin`` of the forward-phase
   inventory (forward and backward variables cannot coexist on the card).
2. **Forward phase** — per step: compute kernels, source injection, and an
   ``update host`` of the wavefield each ``snap_period`` (a branch prevents
   per-step updates).
3. **Offload forward / upload backward** — free the modeling data *except
   the forward wavefield*, upload the imaging data.
4. **Backward phase** — per snap: ``update device`` reloads the stored
   forward wavefield and the imaging condition runs (on GPU or host); per
   step: backward kernels (optimized modeling kernel, or the original
   uncoalesced one, or transposition-fixed) and receiver injection (one
   inlined kernel under CRAY, one launch per receiver under PGI).
5. **Store image & offload** — ``update host`` of the image, ``exit data``.

The pipeline is physics-free: it moves *names and byte counts* and launches
*workload metadata*, so the same code times the paper's full-size grids
(estimate mode) and accompanies real NumPy runs (execute mode). The step
sequence itself lives in :mod:`repro.core.schedule`; :meth:`~OffloadPipeline.
perform` maps each of its actions onto one phase method.

A repeated action runs its phase method once per distinct situation and is
replayed from that run's priced-op tape afterwards (the runtime's tape
policy, :meth:`~repro.acc.runtime.Runtime.run_step`): the schedule repeats
the same directives step after step, and only the stream timeline moves.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.acc.runtime import Runtime
from repro.core.config import GpuTimes, GPUOptions
from repro.core.inventory import field_inventory, primary_wavefield
from repro.core.schedule import (
    PHASE_METHOD,
    REPEATED_PHASES,
    RESIDENCY_STEPS,
    Schedule,
    Step,
)
from repro.observe import runlog
from repro.propagators.base import KernelWorkload
from repro.propagators.workloads import (
    imaging_condition_workloads,
    receiver_injection_workloads,
    source_injection_workload,
    transpose_workloads,
    workloads_for,
)
from repro.utils.errors import ConfigurationError, DeviceOutOfMemoryError


#: the run-log counter each taped action bumps per step, replayed or not
_STEP_COUNTERS = {
    "forward": "pipeline.forward_steps",
    "snapshot": "pipeline.snapshots",
    "backward": "pipeline.backward_steps",
}


def _mark_uncoalesced(workloads: list[KernelWorkload]) -> list[KernelWorkload]:
    """The original backward-phase kernels: loop-carried dependencies force
    a non-unit-stride inner parallel loop (paper Figure 13)."""
    return [
        replace(
            w, name=w.name + "_backward_orig",
            inner_contiguous=False, loop_carried=True,
        )
        for w in workloads
    ]


class OffloadPipeline:
    """One shot's offload schedule on one runtime/device."""

    def __init__(
        self,
        rt: Runtime,
        physics: str,
        shape: tuple[int, ...],
        nreceivers: int = 128,
        space_order: int = 8,
        boundary_width: int = 16,
        options: GPUOptions | None = None,
        pml_variant: str = "branchy",
    ):
        self.rt = rt
        self.physics = physics.lower()
        self.shape = tuple(int(n) for n in shape)
        self.ndim = len(self.shape)
        self.nreceivers = int(nreceivers)
        self.options = options if options is not None else GPUOptions()
        self.boundary_width = boundary_width
        self.space_order = int(space_order)
        self.pml_variant = pml_variant
        self.field_bytes = int(np.prod(self.shape)) * 4
        self.inventory = field_inventory(self.physics, self.shape, boundary_width)
        self.primary = primary_wavefield(self.physics)
        # forward kernels (the optimized modeling path)
        kw = {}
        if self.physics == "isotropic":
            kw["variant"] = pml_variant
            kw["pml_width"] = boundary_width
        elif self.physics == "acoustic":
            kw["fissioned"] = self.options.loop_fission
        self.forward_workloads = workloads_for(
            self.physics, self.shape, space_order, **kw
        )
        # backward kernels
        if self.physics == "isotropic" or self.options.reuse_forward_kernel:
            # "The better optimized kernel, which is used in the modeling
            # phase ... was called instead" (the isotropic kernel is shared
            # between the phases by construction)
            self.backward_workloads = self.forward_workloads
            self.backward_transpose: list[KernelWorkload] = []
        elif self.options.transpose_fix:
            self.backward_workloads = self.forward_workloads
            self.backward_transpose = transpose_workloads(self.shape)
        else:
            self.backward_workloads = _mark_uncoalesced(self.forward_workloads)
            self.backward_transpose = []
        inlined = self.options.compiler.supports_inlining
        self.receiver_workloads = receiver_injection_workloads(
            self.nreceivers, inlined=inlined
        )
        self.source_workload = source_injection_workload(self.ndim)
        self.imaging_workloads = imaging_condition_workloads(self.shape)
        self._present_names: list[str] = []
        self._phase = "idle"

    @property
    def tracer(self):
        """The runtime's tracer (NULL_TRACER when tracing is off)."""
        return self.rt.tracer

    # ------------------------------------------------------------------
    def _launch(self, workload, present=(), async_=None):
        """Launch under the configured construct (persona-preferred by
        default; forced kernels/parallel for the Figure 8-9 comparisons).

        A :class:`~repro.optim.autotune.TuningPlan` on the options takes
        precedence per kernel: its entry supplies the construct, the loop
        schedule and (when the step runs asynchronously) the queue the tuner
        observed to be best."""
        opts = self.options
        if opts.plan is not None:
            entry = opts.plan.entry_for(workload.name)
            if entry is not None:
                queue = entry.queue if (async_ and entry.queue is not None) else async_
                if entry.construct == "parallel":
                    return self.rt.parallel(
                        workload, present, entry.loop_schedule(), queue
                    )
                return self.rt.kernels(
                    workload, present, entry.loop_schedule(), queue
                )
        if opts.construct is None:
            return self.rt.compute(workload, present=present, async_=async_)
        if opts.construct == "kernels":
            return self.rt.kernels(workload, present, opts.schedule, async_)
        if opts.construct == "parallel":
            return self.rt.parallel(workload, present, opts.schedule, async_)
        raise ConfigurationError(f"unknown construct '{opts.construct}'")

    # ------------------------------------------------------------------
    # step 1: data allocation
    # ------------------------------------------------------------------
    def allocate_forward(self) -> None:
        """``enter data copyin`` of the full forward inventory."""
        if self._phase != "idle":
            raise ConfigurationError(f"allocate_forward in phase '{self._phase}'")
        with self.tracer.span(
            "allocate_forward", track="pipeline", cat="phase",
            fields=len(self.inventory),
        ):
            self.rt.enter_data(copyin=dict(self.inventory))
        self._present_names = list(self.inventory)
        self._phase = "forward"
        runlog.emit("phase", phase="forward", fields=len(self.inventory))

    # ------------------------------------------------------------------
    # step 2: forward phase
    # ------------------------------------------------------------------
    def forward_step(self, inject_source: bool = True) -> None:
        """One forward time step's launches."""
        if self._phase != "forward":
            raise ConfigurationError(f"forward_step in phase '{self._phase}'")
        async_ = self.options.async_kernels
        with self.tracer.span("forward_step", track="pipeline", cat="phase",
                              phase="forward"):
            for w in self.forward_workloads:
                self._launch(w, present=[self.primary], async_=async_)
            if inject_source:
                self._launch(self.source_workload, present=[self.primary],
                             async_=async_)
            if async_ or (async_ is None and self.rt.compiler.auto_async_kernels):
                self.rt.wait()
        runlog.count(_STEP_COUNTERS["forward"])

    def snapshot_to_host(self, decimate: int = 1) -> None:
        """``update host`` of the wavefield for the snapshot store."""
        nbytes = self.field_bytes // (decimate**self.ndim)
        with self.tracer.span("snapshot_to_host", track="pipeline", cat="phase",
                              bytes=nbytes, decimate=decimate):
            self.rt.update_host(self.primary, nbytes=nbytes)
        self.tracer.metrics.counter("pipeline.snapshot_bytes").add(nbytes)
        self.tracer.metrics.counter("pipeline.snapshots").add()
        runlog.count(_STEP_COUNTERS["snapshot"])

    # ------------------------------------------------------------------
    # step 3: offload forward, upload backward
    # ------------------------------------------------------------------
    def swap_to_backward(self) -> None:
        """Free the modeling wavefields except the forward one; upload the
        backward wavefields and the image."""
        if self._phase != "forward":
            raise ConfigurationError(f"swap_to_backward in phase '{self._phase}'")
        with self.tracer.span("swap_to_backward", track="pipeline", cat="phase"):
            self._swap_to_backward()
        runlog.emit("phase", phase="backward")

    def _swap_to_backward(self) -> None:
        self.rt.wait()
        drop = [
            n
            for n in self._present_names
            if n.startswith("wf:") and n != self.primary
        ]
        self.rt.exit_data(delete=drop)
        for n in drop:
            self._present_names.remove(n)
        backward = {
            "bwd:" + n.split(":", 1)[1]: b
            for n, b in self.inventory.items()
            if n.startswith("wf:")
        }
        backward["img:image"] = self.field_bytes
        self.rt.enter_data(copyin=backward)
        self._present_names.extend(backward)
        self._phase = "backward"

    # ------------------------------------------------------------------
    # step 4: backward phase
    # ------------------------------------------------------------------
    def load_forward_snapshot(self) -> None:
        """``update device`` of the stored forward wavefield (per snap)."""
        with self.tracer.span("load_forward_snapshot", track="pipeline",
                              cat="phase", bytes=self.field_bytes):
            # the host copy changed (a different snapshot was loaded), so
            # the full-extent refresh is legitimate — tell the analyzer
            self.rt.note_host_write(self.primary)
            self.rt.update_device(self.primary)
        self.tracer.metrics.counter("pipeline.snapshot_bytes").add(self.field_bytes)

    def imaging_step(self) -> None:
        """Apply the imaging condition (per snap): on the GPU as the two
        even/odd kernels, or on the host after pulling both wavefields."""
        with self.tracer.span("imaging_step", track="pipeline", cat="phase",
                              on_gpu=self.options.image_on_gpu):
            if self.options.image_on_gpu:
                for w in self.imaging_workloads:
                    self._launch(w, present=["img:image"])
            else:
                self.rt.update_host(self.primary)
                self.rt.update_host("bwd:" + self.primary.split(":", 1)[1])

    def backward_step(self, inject_receivers: bool = True) -> None:
        """One backward time step's launches."""
        if self._phase != "backward":
            raise ConfigurationError(f"backward_step in phase '{self._phase}'")
        async_ = self.options.async_kernels
        with self.tracer.span("backward_step", track="pipeline", cat="phase",
                              phase="backward"):
            self._backward_step(inject_receivers, async_)
        runlog.count(_STEP_COUNTERS["backward"])

    def _backward_step(self, inject_receivers, async_) -> None:
        if self.physics == "isotropic":
            # "the isotropic case requires many host-GPU updates within the
            # (enter data/exit data) region to keep the variables consistent
            # on both host and GPU" (paper Section 6.2)
            self.rt.update_host(self.primary)
            bwd = "bwd:" + self.primary.split(":", 1)[1]
            self.rt.note_host_write(bwd)
            self.rt.update_device(bwd)
        for w in self.backward_transpose:
            self._launch(w, async_=async_)
        for w in self.backward_workloads:
            self._launch(w, async_=async_)
        if inject_receivers:
            for w in self.receiver_workloads:
                self._launch(w, async_=async_)
        if async_ or (async_ is None and self.rt.compiler.auto_async_kernels):
            self.rt.wait()

    # ------------------------------------------------------------------
    # step 5: store image and offload
    # ------------------------------------------------------------------
    def finalize(self, with_image: bool) -> None:
        """``update host`` the image, then drop everything from the card."""
        with self.tracer.span("finalize", track="pipeline", cat="phase",
                              with_image=with_image):
            self.rt.wait()
            if with_image and "img:image" in self._present_names:
                self.rt.update_host("img:image")
            self.rt.exit_data(delete=list(self._present_names))
        self._present_names = []
        self._phase = "idle"
        runlog.emit("phase", phase="idle", with_image=with_image)

    # ------------------------------------------------------------------
    # residency teardown / rebuild (repro.resilience)
    # ------------------------------------------------------------------
    def drop_residency(self) -> None:
        """Detach everything currently on the card, without copyout.

        The recovery layer's teardown before a restart or re-plan: the host
        copies are the source of truth, so dropping device residency loses
        nothing. Reads the *runtime's* present table rather than this
        pipeline's phase bookkeeping — a fault can strike mid-directive
        (e.g. OOM halfway through ``enter data``), leaving the table
        partially populated while the phase never advanced.
        """
        with self.tracer.span("drop_residency", track="pipeline", cat="recovery"):
            self.rt.wait()
            names = self.rt.present_names()
            if names:
                self.rt.exit_data(delete=names)
        self._present_names = []
        self._phase = "idle"
        runlog.emit("phase", phase="idle", via="drop_residency")

    def restore_residency(self, phase: str) -> None:
        """Rebuild device residency for ``phase`` ('idle' | 'forward' |
        'backward') after :meth:`drop_residency` — re-uploading the phase's
        inventory from the host (the modelled recovery cost a restart
        pays)."""
        if self._phase != "idle":
            raise ConfigurationError(
                f"restore_residency in phase '{self._phase}' (drop first)"
            )
        if phase == "idle":
            return
        if phase not in ("forward", "backward"):
            raise ConfigurationError(f"unknown phase '{phase}'")
        with self.tracer.span(
            "restore_residency", track="pipeline", cat="recovery", phase=phase,
        ):
            self.allocate_forward()
            if phase == "backward":
                self._swap_to_backward()
        runlog.emit("phase", phase=self._phase, via="restore_residency")

    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        """Current Figure-4 phase: 'idle', 'forward' or 'backward'."""
        return self._phase

    # ------------------------------------------------------------------
    def perform(self, action: str, step: Step, inject: bool = True) -> None:
        """Run one schedule action through its phase method. ``inject``
        says whether a forward step injects the source (a backward step,
        the receivers); estimate runs always inject.

        A repeated action is one step of the runtime's tape policy
        (:meth:`~repro.acc.runtime.Runtime.run_step`), keyed by the
        action, its arguments and the phase; a replayed step still bumps
        its run-log counter."""
        if action not in REPEATED_PHASES:
            self._perform(action, step, inject)
        elif self.rt.run_step(
            (self, action, inject, step.decimate, self._phase),
            self._perform, action, step, inject,
        ) and action in _STEP_COUNTERS:
            runlog.count(_STEP_COUNTERS[action])

    def _perform(self, action: str, step: Step, inject: bool) -> None:
        if action == "forward":
            self.forward_step(inject_source=inject)
        elif action == "backward":
            self.backward_step(inject_receivers=inject)
        elif action == "snapshot":
            self.snapshot_to_host(decimate=step.decimate)
        elif action == "finalize":
            self.finalize(with_image=step.image and self.options.image_on_gpu)
        else:
            getattr(self, PHASE_METHOD[action])()

    def gpu_times(self) -> GpuTimes:
        """Summarise the device's accumulated modelled time."""
        return device_times(self.rt.device)


def device_times(dev) -> GpuTimes:
    """A device's accumulated modelled time as a :class:`GpuTimes`: the
    flat per-category fields read the clock's ledger, the launch count
    the profiler's."""
    categories = dev.clock.categories
    return GpuTimes(
        total=dev.elapsed,
        kernel=categories.get("kernel", 0.0),
        h2d=categories.get("h2d", 0.0),
        d2h=categories.get("d2h", 0.0),
        alloc=categories.get("alloc", 0.0),
        launches=dev.profiler.launches,
        success=True,
        profile=dev.profiler.report(),
        categories=dict(categories),
    )


def failed_times(reason: str) -> GpuTimes:
    """A GpuTimes marking a failed configuration (OOM / compiler) — the
    paper's ``x`` table entries."""
    return GpuTimes(success=False, failure=reason)


def run_schedule(pipeline: OffloadPipeline, schedule: Schedule) -> GpuTimes:
    """Estimate mode (no physics): interpret ``schedule`` on the pipeline.

    A known compiler failure or a device OOM while building residency
    yields the failed record."""
    if schedule.known_failure(
        pipeline.options.compiler, pipeline.physics, pipeline.ndim
    ):
        return failed_times("compiler")
    for step in schedule:
        for action in step.actions:
            try:
                pipeline.perform(action, step)
            except DeviceOutOfMemoryError:
                if step.kind not in RESIDENCY_STEPS:
                    raise
                return failed_times("oom")
    return pipeline.gpu_times()


def run_pipeline_modeling(
    pipeline: OffloadPipeline,
    nt: int,
    snap_period: int,
    snapshot_decimate: int = 4,
) -> GpuTimes:
    """Estimate-mode forward run (no physics): the full Figure-4 forward
    schedule for ``nt`` steps."""
    return run_schedule(
        pipeline, Schedule("modeling", nt, snap_period, snapshot_decimate)
    )


def run_pipeline_rtm(
    pipeline: OffloadPipeline,
    nt: int,
    snap_period: int,
) -> GpuTimes:
    """Estimate-mode RTM run (no physics): forward with full-field
    snapshots, swap, backward with imaging + receiver injection."""
    return run_schedule(pipeline, Schedule("rtm", nt, snap_period))
