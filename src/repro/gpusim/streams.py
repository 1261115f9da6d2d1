"""Async queue (CUDA stream) timeline.

Models what the paper measured (its Figure 11 discussion): kernels from
different async queues do **not** overlap on the SMs for these grid-sized
kernels ("the available streaming multiprocessors are occupied by one or few
kernels"), but queuing removes the host-side launch gap between consecutive
kernels — "using multiple streams can lead to small jobs packing on to the
device all at once and ... reduced lag time between kernel launches. The
30% improvement was due to this reason."

The device therefore exposes two serial resources — the compute engine and
the copy engines — plus per-queue completion times. Synchronous operations
hold the host until completion; asynchronous ones cost the host only the
enqueue time.

That arithmetic lives once, in :meth:`StreamPool.run_ops`: it runs a
sequence of :class:`PricedOp` records (a kernel, an h2d or d2h copy, or a
wait) against the engines, the queues and the clock, and — for the device
that owns the pool — the clock's per-category ledger, its profiler and its
event sinks. A single directive is a one-op sequence; a repeated schedule
step replays the tape of priced ops its first run recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro.gpusim.profiler import ProfileEvent
from repro.utils.errors import ConfigurationError
from repro.utils.timer import SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import Device

#: host cost of enqueueing onto a non-default queue
ASYNC_ENQUEUE_COST = 1.5e-6

#: priced-op kinds; a kind doubles as its clock category
KERNEL, H2D, D2H, WAIT = "kernel", "h2d", "d2h", "wait"


class PricedOp(NamedTuple):
    """One timeline op with its price already modelled.

    ``host`` is what the host pays before the op can start: the launch
    overhead of a default-stream kernel (zero for a blocking copy) or the
    enqueue cost of a queued op. ``queue`` is the async queue, or None for
    the default stream — for a wait, None drains every queue.
    """

    kind: str
    name: str | None = None
    seconds: float = 0.0
    host: float = 0.0
    queue: int | None = None
    nbytes: int = 0
    occupancy: float | None = None
    spilled_regs: int | None = None


@dataclass
class StreamPool:
    """Tracks engine and queue availability against a :class:`SimClock`."""

    clock: SimClock
    max_queues: int = 16
    compute_free: float = 0.0
    copy_free: float = 0.0
    _queue_end: dict[int, float] = field(default_factory=dict)

    def _check_queue(self, queue: int) -> None:
        if not 0 <= queue < self.max_queues:
            raise ConfigurationError(
                f"async queue {queue} outside 0..{self.max_queues - 1}"
            )

    # ------------------------------------------------------------------
    def run_ops(
        self, ops: Iterable[PricedOp], device: "Device | None" = None
    ) -> tuple[float, float]:
        """Run priced ops in order; returns the last op's (start, end).

        A default-stream op starts once the host has paid ``host`` and its
        engine is free, and holds the host until it ends. A queued op costs
        the host only ``host`` (the enqueue), then starts when its engine
        and its queue are free; kernel bodies still serialize on the
        compute engine (no SM sharing). A wait moves the host to the
        completion of one queue, or of all work.

        With ``device`` (the :class:`~repro.gpusim.device.Device` owning
        this pool) each op is also charged to its category in the clock's
        ledger (the device's only per-category times), folded into the
        device's profiler (its only per-kernel launch counts and seconds)
        and sent to its sinks. The engines, the queues and the clock's time
        are held in locals and written back when the sequence ends, also
        when an op raises, so a failure leaves the state that running the
        ops one at a time would have left.
        """
        clock = self.clock
        queue_end = self._queue_end
        check = self._check_queue
        now = clock.now
        compute_free, copy_free = self.compute_free, self.copy_free
        start = end = now
        if device is not None:
            categories = clock.categories
            fold = device.profiler.fold
            sinks = device._sinks
        try:
            for kind, name, seconds, host, queue, nbytes, occupancy, spilled in ops:
                if kind == WAIT:
                    if queue is None:
                        t = max(compute_free, copy_free, *queue_end.values())
                    else:
                        check(queue)
                        t = queue_end.get(queue, now)
                    if t > now:
                        now = t
                    continue
                kernel = kind == KERNEL
                free = compute_free if kernel else copy_free
                if queue is None:
                    start = now + host
                    if free > start:
                        start = free
                    end = start + seconds
                    if end > now:
                        now = end
                else:
                    check(queue)
                    if host < 0:
                        clock.advance(host)  # the clock's own ValueError
                    now += host
                    start = now
                    if free > start:
                        start = free
                    ready = queue_end.get(queue, 0.0)
                    if ready > start:
                        start = ready
                    end = start + seconds
                    queue_end[queue] = end
                if kernel:
                    compute_free = end
                else:
                    copy_free = end
                if device is None:
                    continue
                if seconds < 0:
                    clock.charge(seconds, kind)  # the clock's own ValueError
                categories[kind] = categories.get(kind, 0.0) + seconds
                fold(kind, name, start, end, nbytes)
                if sinks:
                    event = ProfileEvent(
                        kind, name, start, end, nbytes, queue,
                        occupancy=occupancy, spilled_regs=spilled,
                    )
                    for sink in sinks:
                        sink(event)
        finally:
            clock.now = now
            self.compute_free, self.copy_free = compute_free, copy_free
        return start, end

    def run_kernel_sync(self, duration: float, launch_overhead: float) -> tuple[float, float]:
        """Default-stream kernel: host pays the launch overhead, kernel runs
        when the compute engine frees, host blocks until completion."""
        return self.run_ops((PricedOp(KERNEL, None, duration, launch_overhead),))

    def run_kernel_async(
        self, queue: int, duration: float, enqueue_cost: float = ASYNC_ENQUEUE_COST
    ) -> tuple[float, float]:
        """Queued kernel: host pays only the enqueue cost; the kernel body
        still serializes on the compute engine (no SM sharing)."""
        return self.run_ops((PricedOp(KERNEL, None, duration, enqueue_cost, queue),))

    def run_copy_sync(self, duration: float, setup: float = 0.0) -> tuple[float, float]:
        """Blocking memcpy on the copy engine."""
        return self.run_ops((PricedOp(H2D, None, duration, setup),))

    def run_copy_async(
        self, queue: int, duration: float, enqueue_cost: float = ASYNC_ENQUEUE_COST
    ) -> tuple[float, float]:
        """Queued memcpy: overlaps host work and (on a second engine) compute;
        ordered after prior work on the same queue."""
        return self.run_ops((PricedOp(H2D, None, duration, enqueue_cost, queue),))

    def wait(self, queue: int | None = None) -> float:
        """``acc wait``: block the host until the queue (or all work when
        None) completes."""
        self.run_ops((PricedOp(WAIT, queue=queue),))
        return self.clock.now

    def pending_queues(self) -> tuple[int, ...]:
        """Queues with enqueued work that has not retired relative to the
        host clock — what a host-side consumer (an MPI send packing a halo
        buffer) would race against. Used by the coherence sanitizer."""
        return tuple(sorted(
            q for q, end in self._queue_end.items() if end > self.clock.now
        ))

    def idle(self) -> bool:
        """Whether all queued work has retired relative to the host clock."""
        pending = max(
            [self.compute_free, self.copy_free, *self._queue_end.values()],
            default=0.0,
        )
        return pending <= self.clock.now
