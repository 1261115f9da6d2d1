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

:meth:`StreamPool.fold` runs many replayed tapes at once. A default-stream
kernel or copy that starts with both engines idle leaves them idle and only
adds to the clock, so a stretch of such ops is a prefix sum; :meth:`fold`
computes it, and the ledger and profiler totals it feeds, with strictly
left-to-right accumulations over each tape's :class:`FoldPlan`, and hands
everything else to :meth:`StreamPool.run_ops`, its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

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


#: the clock categories a folded op can charge, and the profiler line of a
#: copy direction; kernel names take the device's lines from ``_KERNEL_LINE0``
_KINDS = (KERNEL, H2D, D2H)
_COPY_LINE = {H2D: 0, D2H: 1}
_KERNEL_LINE0 = 2


class FoldRun(NamedTuple):
    """A run of foldable ops, as tuples built once per tape."""

    #: each op's host cost and seconds, interleaved
    pairs: tuple[float, ...]
    #: each op's profiler line
    lines: tuple[int, ...]
    #: the seconds of the run's ops of each kind in ``_KINDS``, in order
    seconds: tuple[tuple[float, ...], ...]
    #: the kinds, in the order the run first charges them
    kinds: tuple[str, ...]
    h2d_bytes: int
    d2h_bytes: int


def _foldable(op: PricedOp) -> bool:
    """A default-stream kernel or copy whose host cost and seconds are
    finite and not negative (anything else raises or is left to
    :meth:`StreamPool.run_ops`)."""
    return (
        op.queue is None and op.kind in _KINDS
        and 0.0 <= op.host < math.inf and 0.0 <= op.seconds < math.inf
    )


class FoldPlan:
    """One tape's ops cut for :meth:`StreamPool.fold`.

    ``segments`` covers the ops in order with ``(lo, hi, run)``: a maximal
    stretch of foldable ops carries its :class:`FoldRun`; one of queued
    ops and waits carries None. ``kernel_lines`` is the device's table of
    kernel names to profiler lines, which grows as plans name new kernels.
    """

    __slots__ = ("segments",)

    def __init__(self, ops: Sequence[PricedOp], kernel_lines: dict):
        segments = []
        lo = 0
        for foldable, stretch in groupby(ops, _foldable):
            stretch = tuple(stretch)
            run = _fold_run(stretch, kernel_lines) if foldable else None
            segments.append((lo, lo + len(stretch), run))
            lo += len(stretch)
        self.segments = tuple(segments)


def _fold_run(ops: Sequence[PricedOp], kernel_lines: dict) -> FoldRun:
    pairs: list[float] = []
    lines: list[int] = []
    seconds: dict[str, list[float]] = {}
    nbytes = {H2D: 0, D2H: 0}
    for kind, name, secs, host, _queue, size, _occupancy, _spilled in ops:
        pairs += (host, secs)
        seconds.setdefault(kind, []).append(secs)
        if kind == KERNEL:
            line = kernel_lines.get(name)
            if line is None:
                line = kernel_lines[name] = _KERNEL_LINE0 + len(kernel_lines)
        else:
            line = _COPY_LINE[kind]
            nbytes[kind] += size
        lines.append(line)
    return FoldRun(
        tuple(pairs), tuple(lines),
        tuple(tuple(seconds.get(kind, ())) for kind in _KINDS), tuple(seconds),
        nbytes[H2D], nbytes[D2H],
    )


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

    def fold(self, pending: Sequence[tuple], device: "Device") -> None:
        """Run ``(ops, plan)`` pairs in order for ``device``, leaving the
        state :meth:`run_ops` would leave.

        Each stretch of the plans' runs that starts with both engines idle
        is folded in bulk (:meth:`_fold`), across tape boundaries. Queued
        ops, waits, a run that starts with an engine busy, and every op of
        a device with sinks go through :meth:`run_ops`."""
        clock = self.clock
        batch: list[FoldRun] = []
        for ops, plan in pending:
            for lo, hi, run in plan.segments:
                if run is not None and not device._sinks and (batch or (
                    self.compute_free <= clock.now and self.copy_free <= clock.now
                )):
                    batch.append(run)
                    continue
                if batch:
                    self._fold(batch, device)
                    batch = []
                self.run_ops(ops[lo:hi], device)
        if batch:
            self._fold(batch, device)

    def _fold(self, runs: Sequence[FoldRun], device: "Device") -> None:
        """Fold runs of default-stream kernels and copies that start with
        both engines idle.

        Each op starts once the host has paid ``host``, finds its engine
        free, ends ``seconds`` later and holds the host until then, so both
        engines stay idle and the clock is the prefix sum of ``now``, host,
        seconds, host, ... Each clock category is a left fold of its ops'
        seconds from its current value, and each profiler line (a copy
        direction's or a kernel's) one of their durations. Every one is
        added strictly left to right (``itertools.accumulate`` and one
        ``+=`` per op, in op order), so each number has the bits the loop
        of :meth:`run_ops` gives."""
        clock, profiler = self.clock, device.profiler
        ledger, kernels = clock.categories, profiler.kernels
        names = list(device._kernel_lines)
        # a line new to the profiler starts from 0.0, and 0.0 + d is d:
        # a duration (end - start, end >= start) is never -0.0
        totals = [
            profiler.h2d_seconds, profiler.d2h_seconds,
            *(kernels[name][1] if name in kernels else 0.0 for name in names),
        ]
        counts = [0] * len(totals)
        ends = [0.0] * len(totals)  # each line's last end
        now = clock.now
        times = accumulate(chain((now,), *[run.pairs for run in runs]))
        next(times)
        for line, start, end in zip(chain(*[run.lines for run in runs]), times, times):
            totals[line] += end - start
            counts[line] += 1
            ends[line] = end
        present = [line for line, count in enumerate(counts) if count]
        if any(
            line >= _KERNEL_LINE0 and names[line - _KERNEL_LINE0] not in kernels
            for line in present
        ):  # new kernel lines join the profiler in first-seen order
            present = list(dict.fromkeys(chain(*[run.lines for run in runs])))
        for line in present:
            if line >= _KERNEL_LINE0:
                name = names[line - _KERNEL_LINE0]
                entry = kernels.get(name)
                if entry is None:
                    kernels[name] = [counts[line], totals[line]]
                else:
                    entry[0] += counts[line]
                    entry[1] = totals[line]
        if counts[_COPY_LINE[H2D]]:
            profiler.h2d_seconds = totals[_COPY_LINE[H2D]]
        if counts[_COPY_LINE[D2H]]:
            profiler.d2h_seconds = totals[_COPY_LINE[D2H]]
        # the clock's categories, new ones in first-seen order
        for kind in dict.fromkeys(chain(*[run.kinds for run in runs])):
            index = _KINDS.index(kind)
            total = ledger.get(kind, 0.0)
            for total in accumulate(
                chain((total,), *[run.seconds[index] for run in runs])
            ):
                pass
            ledger[kind] = total
        # ends only grow, so each engine comes free at its latest end
        kernel_ends = [ends[line] for line in present if line >= _KERNEL_LINE0]
        if kernel_ends:
            self.compute_free = max(kernel_ends)
        copy_ends = [ends[line] for line in present if line < _KERNEL_LINE0]
        if copy_ends:
            self.copy_free = max(copy_ends)
        for run in runs:
            profiler.h2d_bytes += run.h2d_bytes
            profiler.d2h_bytes += run.d2h_bytes
        first = now + runs[0].pairs[0]  # the first op's start
        if first < profiler.first_start:
            profiler.first_start = first
        if end > profiler.last_end:
            profiler.last_end = end
        clock.now = end

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
