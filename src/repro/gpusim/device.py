"""The simulated device: memory + PCIe + streams + profiler + clock.

A :class:`Device` is the execution target of the :mod:`repro.acc` runtime.
All operations advance the device's :class:`~repro.utils.timer.SimClock`
according to the cost models; nothing here touches real wavefield data (the
acc runtime executes the NumPy kernels and merely *accounts* their modelled
device time here).

Every kernel, copy and wait is first *priced* (the memoised kernel
estimate, the PCIe model, the fault injector's hook) and then run as a
:class:`~repro.gpusim.streams.PricedOp` through :meth:`Device.run_ops`, the
one timeline. :meth:`Device.recording` keeps the priced ops a stretch of
work ran, so a repeated step can replay them without pricing again.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from repro.gpusim.kernelmodel import (
    KernelEstimate,
    LaunchConfig,
    estimate_kernel_time,
)
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.pcie import PCIE_GEN2_X16, PCIeModel, checked_transfer
from repro.gpusim.profiler import ProfileEvent, Profiler
from repro.gpusim.specs import CUDA_5_0, CudaToolkit, GPUSpec
from repro.gpusim.streams import (
    ASYNC_ENQUEUE_COST,
    D2H,
    H2D,
    KERNEL,
    WAIT,
    PricedOp,
    StreamPool,
)
from repro.propagators.base import KernelWorkload
from repro.trace.tracer import Tracer
from repro.utils.timer import SimClock


class Device:
    """One simulated accelerator card.

    Parameters
    ----------
    spec:
        The card (:data:`~repro.gpusim.specs.M2090` or
        :data:`~repro.gpusim.specs.K40`).
    pcie:
        Link model; defaults to Gen2 x16 (override per platform).
    toolkit:
        CUDA backend used for code generation (5.0 / 5.5).
    pinned_host:
        Whether host arrays live in pinned memory (the PGI ``pin`` target
        option); raises effective PCIe rates.
    """

    #: modelled cost of one cudaMalloc/cudaFree (driver round trip)
    ALLOC_COST_S = 1.0e-4
    #: host-side present-table lookup per kernel argument: the OpenACC
    #: runtime resolves every array in the construct against its present
    #: table before each launch — the per-launch 'lag time' async queueing
    #: hides (the paper's Figure 11 30 % win)
    PRESENT_LOOKUP_S = 3.0e-6

    def __init__(
        self,
        spec: GPUSpec,
        pcie: PCIeModel | None = None,
        toolkit: CudaToolkit = CUDA_5_0,
        pinned_host: bool = False,
    ):
        self.spec = spec
        self.pcie = pcie if pcie is not None else PCIE_GEN2_X16
        self.toolkit = toolkit
        self.pinned_host = bool(pinned_host)
        self.clock = SimClock()
        self.memory = DeviceMemory(spec.memory_bytes)
        self.streams = StreamPool(self.clock, max_queues=spec.max_concurrent_kernels)
        self.profiler = Profiler()
        # launch pricing is a pure function of (workload, launch, toolkit)
        # on this card, so each distinct launch is estimated once
        self._estimates: dict[tuple, KernelEstimate] = {}
        # the profiler folds every timeline op directly; further consumers
        # (an attached Tracer re-emitting per-queue Perfetto tracks) get one
        # ProfileEvent per op through the sink list
        self._sinks: list[Callable[[ProfileEvent], None]] = []
        # the priced ops run while a recording is open (see recording())
        self._tape: list[PricedOp] | None = None
        self._tracer: Tracer | None = None
        self._trace_process = f"gpu:{spec.name}"
        # resilience hook: a (possibly rank-bound) FaultInjector consulted at
        # the top of allocate/h2d/d2h/launch, before any time is charged
        self.injector = None

    # ------------------------------------------------------------------
    # trace stream
    # ------------------------------------------------------------------
    def add_sink(self, sink: Callable[[ProfileEvent], None]) -> None:
        """Subscribe a consumer to the device's timeline event stream."""
        self._sinks.append(sink)

    def attach_tracer(self, tracer: Tracer, process: str | None = None) -> None:
        """Re-emit kernel/copy events as tracer spans (one track per async
        queue, one for the default stream) and feed the device metrics."""
        if self._tracer is tracer:
            return
        self._tracer = tracer
        if process is not None:
            self._trace_process = process
        self.add_sink(self._trace_sink)

    def _trace_sink(self, ev: ProfileEvent) -> None:
        tracer = self._tracer
        assert tracer is not None
        track = "stream:0" if ev.queue is None else f"queue:{ev.queue}"
        args = {"bytes": ev.nbytes} if ev.nbytes else {}
        if ev.occupancy is not None:
            args["occupancy"] = ev.occupancy
        if ev.spilled_regs is not None:
            args["spilled_regs"] = ev.spilled_regs
        tracer.emit(
            ev.name, ev.start, ev.end,
            process=self._trace_process, track=track, cat=ev.kind, **args,
        )
        m = tracer.metrics
        if ev.kind == "kernel":
            m.counter("gpu.kernel_launches").add()
            m.histogram("gpu.kernel_seconds").observe(ev.duration)
            m.histogram("gpu.occupancy").observe(ev.occupancy)
        elif ev.kind == "h2d":
            m.counter("gpu.h2d_bytes").add(ev.nbytes)
        elif ev.kind == "d2h":
            m.counter("gpu.d2h_bytes").add(ev.nbytes)

    # ------------------------------------------------------------------
    # the timeline
    # ------------------------------------------------------------------
    def run_ops(self, ops: Sequence[PricedOp]) -> None:
        """Run priced ops against the clock and its per-category ledger,
        the streams, the profiler and every sink
        (:meth:`~repro.gpusim.streams.StreamPool.run_ops` on the current
        pool). An open :meth:`recording` keeps them."""
        self.streams.run_ops(ops, self)
        if self._tape is not None:
            self._tape.extend(ops)

    @contextmanager
    def recording(self) -> Iterator[list[PricedOp]]:
        """Collect every priced op run inside the ``with`` body, in order:
        the tape a repeated step replays through :meth:`run_ops`."""
        tape: list[PricedOp] = []
        outer, self._tape = self._tape, tape
        try:
            yield tape
        finally:
            self._tape = outer
            if outer is not None:
                outer.extend(tape)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def allocate(self, name: str, nbytes: int) -> None:
        """Device allocation (charges the driver round trip)."""
        if self.injector is not None:
            self.injector.on_allocate(name, int(nbytes), self.memory)
        self.memory.allocate(name, nbytes)
        self.clock.advance(self.ALLOC_COST_S, "alloc")
        if self._tracer is not None:
            self._tracer.instant(
                f"cudaMalloc:{name}", process=self._trace_process,
                track="stream:0", cat="alloc", bytes=int(nbytes),
            )
            self._memory_gauges()

    def release(self, name: str) -> None:
        self.memory.release(name)
        self.clock.advance(self.ALLOC_COST_S * 0.5, "alloc")
        if self._tracer is not None:
            self._tracer.instant(
                f"cudaFree:{name}", process=self._trace_process,
                track="stream:0", cat="alloc",
            )
            self._memory_gauges()

    def _memory_gauges(self) -> None:
        """Residency gauges: live bytes, the high-water mark, and the
        card's usable capacity — the observed side of the capacity
        prover's static prediction."""
        m = self._tracer.metrics
        m.gauge("gpu.resident_bytes").set(self.memory.used)
        m.gauge("gpu.peak_bytes").set(self.memory.peak_bytes)
        m.gauge("gpu.usable_bytes").set(self.memory.usable_bytes)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def h2d(self, nbytes: int, name: str = "h2d", chunks: int = 1, queue: int | None = None) -> float:
        """Host-to-device copy of ``nbytes`` (``chunks`` DMA transactions for
        strided/partial data). Returns the modelled duration."""
        return self._copy(H2D, nbytes, name, chunks, queue)

    def d2h(self, nbytes: int, name: str = "d2h", chunks: int = 1, queue: int | None = None) -> float:
        """Device-to-host copy."""
        return self._copy(D2H, nbytes, name, chunks, queue)

    def _copy(self, kind: str, nbytes: int, name: str, chunks: int, queue: int | None) -> float:
        t = checked_transfer(
            self.pcie, kind, nbytes, name=name,
            pinned=self.pinned_host, chunks=chunks, injector=self.injector,
        )
        enqueue = 0.0 if queue is None else ASYNC_ENQUEUE_COST
        self.run_ops((PricedOp(kind, name, t, enqueue, queue, int(nbytes)),))
        return t

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def launch(
        self,
        workload: KernelWorkload,
        launch: LaunchConfig | None = None,
        enqueue_cost_factor: float = 1.0,
    ) -> KernelEstimate:
        """Model one kernel launch; honours the launch config's async queue.

        ``enqueue_cost_factor`` lets a compiler persona inflate the async
        enqueue cost (the PGI-async regression the paper reports).
        """
        if self.injector is not None:
            self.injector.on_kernel_launch(workload.name)
        key = (workload, launch, self.toolkit)
        est = self._estimates.get(key)
        if est is None:
            est = estimate_kernel_time(self.spec, workload, launch, self.toolkit)
            self._estimates[key] = est
        queue = launch.async_queue if launch is not None else None
        host_admin = self.PRESENT_LOOKUP_S * (2 + workload.address_streams)
        if queue is None:
            host = self.spec.launch_overhead_s + host_admin
        else:
            host = (ASYNC_ENQUEUE_COST + host_admin) * enqueue_cost_factor
        self.run_ops((PricedOp(
            KERNEL, workload.name, est.seconds, host, queue, 0,
            est.occupancy, est.spilled_regs,
        ),))
        return est

    def wait(self, queue: int | None = None) -> float:
        """``acc wait``: advance the host clock to queued-work completion."""
        self.run_ops((PricedOp(WAIT, queue=queue),))
        return self.clock.now

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Host wall time of everything run so far (simulated seconds)."""
        return self.clock.now

    def reset(self) -> None:
        """Fresh timeline and profile; device memory is also cleared."""
        self.clock.reset()
        self.memory.release_all()
        self.streams = StreamPool(self.clock, max_queues=self.spec.max_concurrent_kernels)
        self.profiler.clear()
