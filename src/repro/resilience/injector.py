"""The fault injector: arms a :class:`~repro.resilience.faults.FaultPlan`
against the simulated stack.

One injector serves a whole run (all ranks). Each layer consults it at its
natural operation boundary:

* :meth:`on_transfer` — from :func:`repro.gpusim.pcie.checked_transfer`
  (every modelled DMA, both directions);
* :meth:`on_kernel_launch` — from :meth:`repro.gpusim.device.Device.launch`;
* :meth:`on_allocate` — from :meth:`repro.gpusim.device.Device.allocate`;
* :meth:`on_message` — from :meth:`repro.mpisim.comm.RankComm.isend`
  (returns the delivery action: deliver / drop / duplicate / delay);
* :meth:`count_clear` — from :meth:`repro.acc.runtime.Runtime.replay`:
  a replayed step tape's launches and transfers, counted in one step
  when no armed fault can reach them.

Operations are counted per category *per matching rank filter*, so a spec's
``op_index`` deterministically names one concrete operation of the run.
Fired injections are recorded as :class:`FaultEvent` rows and, when a
tracer is attached, emitted as instants on the dedicated ``resilience``
process so recovery overhead is readable straight off the Perfetto export.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.resilience.faults import (
    ECC,
    KERNEL_LAUNCH,
    MPI_DELAY,
    MPI_DROP,
    MPI_DUP,
    OOM,
    PCIE_PERMANENT,
    PCIE_TRANSIENT,
    RANK_DEAD,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    is_permanent,
)
from repro.utils.errors import (
    DeviceECCError,
    DeviceLostError,
    DeviceOutOfMemoryError,
    KernelLaunchError,
    PCIeTransferError,
)

#: trace process/track every fault and recovery action lands on
TRACE_PROCESS = "resilience"
FAULT_TRACK = "faults"


@dataclass
class _Armed:
    """Mutable firing state of one spec."""

    spec: FaultSpec
    resolved: bool = False
    #: the op counts ``[start, stop)`` at which the spec fires until
    #: resolved: from ``op_index`` on for a permanent kind, ``count``
    #: consecutive ops for a transient one
    start: int = field(init=False)
    stop: float = field(init=False)

    def __post_init__(self) -> None:
        s = self.spec
        self.start = s.op_index
        self.stop = math.inf if is_permanent(s.kind) else s.op_index + s.count

    def _admits(self, category: str, rank: int | None) -> bool:
        s = self.spec
        return (
            not self.resolved
            and s.category == category
            and (s.rank is None or rank == s.rank)
        )

    def should_fire(self, category: str, rank: int | None, count: int) -> bool:
        return self._admits(category, rank) and self.start <= count < self.stop

    def reaches(self, category: str, rank: int | None, count: int, n: int) -> bool:
        """Whether the spec would fire on any of the next ``n`` ops of
        ``category``, counted ``count + 1 .. count + n``."""
        return (
            self._admits(category, rank)
            and self.start <= count + n
            and count + 1 < self.stop
        )


class FaultInjector:
    """Deterministic fault injection armed with one :class:`FaultPlan`.

    With an empty plan the injector is a pure operation counter — the chaos
    harness runs the fault-free reference under one to learn the op-count
    envelope that seeds the campaign's injection points.
    """

    def __init__(self, plan: FaultPlan | None = None, tracer=None):
        self.plan = plan if plan is not None else FaultPlan()
        self.tracer = tracer
        self._armed = [_Armed(s) for s in self.plan.specs if s.category]
        self._counts: Counter = Counter()
        self.events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def op_count(self, category: str, rank: int | None = None) -> int:
        """Operations seen so far in ``category`` (for ``rank``'s counter
        when given, else the any-rank counter)."""
        return self._counts[(category, rank)]

    def op_counts(self) -> dict[str, int]:
        """Any-rank operation totals per category — the envelope
        :meth:`FaultPlan.seeded` draws injection points from."""
        out: dict[str, int] = {}
        for (category, rank), n in self._counts.items():
            if rank is None:
                out[category] = n
        return out

    def _tick(self, category: str, rank: int | None) -> None:
        self._counts[(category, None)] += 1
        if rank is not None:
            self._counts[(category, rank)] += 1

    def _firing(self, category: str, rank: int | None) -> _Armed | None:
        for armed in self._armed:
            count = self._counts[(category, armed.spec.rank)]
            if armed.should_fire(category, rank, count):
                return armed
        return None

    def count_clear(
        self, rank: int | None, launches: int, transfers: int
    ) -> bool:
        """Count ``launches`` kernel launches and ``transfers`` DMAs of
        ``rank`` in one step, unless an armed fault would fire on one of
        them; returns whether it counted. A replayed step tape asks this
        instead of calling :meth:`on_kernel_launch` and
        :meth:`on_transfer` per op, and runs per-op when refused, so every
        fault still fires at its own op."""
        ops = (("launch", launches), ("transfer", transfers))
        for armed in self._armed:
            for category, n in ops:
                # the counter _firing reads for this spec
                count = self._counts[(category, armed.spec.rank)]
                if n and armed.reaches(category, rank, count, n):
                    return False
        for category, n in ops:
            if n:  # a zero would add a key the envelopes then list
                self._counts[(category, None)] += n
                if rank is not None:
                    self._counts[(category, rank)] += n
        return True

    def _record(self, armed: _Armed, category: str, rank: int | None,
                target: str, **detail) -> FaultEvent:
        ev = FaultEvent(
            kind=armed.spec.kind,
            category=category,
            op_index=self._counts[(category, armed.spec.rank)],
            rank=rank,
            target=target,
            detail=detail,
        )
        self.events.append(ev)
        if self.tracer is not None:
            self.tracer.instant(
                f"fault:{ev.kind}", process=TRACE_PROCESS, track=FAULT_TRACK,
                cat="fault", target=target, rank=rank, op=ev.op_index,
            )
        return ev

    # ------------------------------------------------------------------
    # recovery feedback
    # ------------------------------------------------------------------
    def resolve(self, *kinds: str, rank: int | None = None) -> int:
        """Mark armed specs of ``kinds`` resolved (the modelled repair a
        restart or degrade performs: link reset, card removed from the
        pool). Returns how many specs were resolved."""
        n = 0
        for armed in self._armed:
            if armed.resolved or armed.spec.kind not in kinds:
                continue
            if rank is not None and armed.spec.rank not in (None, rank):
                continue
            armed.resolved = True
            n += 1
        return n

    # ------------------------------------------------------------------
    # hooks (called by the instrumented layers)
    # ------------------------------------------------------------------
    def on_transfer(
        self, direction: str, name: str, nbytes: int, rank: int | None = None
    ) -> None:
        """PCIe DMA about to run; raises on an armed transfer fault."""
        self._tick("transfer", rank)
        armed = self._firing("transfer", rank)
        if armed is None:
            return
        kind = armed.spec.kind
        if kind in (PCIE_TRANSIENT, PCIE_PERMANENT):
            self._record(armed, "transfer", rank, name, nbytes=int(nbytes))
            raise PCIeTransferError(
                direction, name, nbytes,
                detail="injected " + ("permanent link fault"
                                      if kind == PCIE_PERMANENT
                                      else "transient fault"),
            )

    def on_kernel_launch(self, kernel: str, rank: int | None = None) -> None:
        """Kernel about to launch; raises on launch/ECC/dead-rank faults."""
        self._tick("launch", rank)
        armed = self._firing("launch", rank)
        if armed is None:
            return
        kind = armed.spec.kind
        if kind == KERNEL_LAUNCH:
            self._record(armed, "launch", rank, kernel)
            raise KernelLaunchError(kernel, detail="injected")
        if kind == ECC:
            self._record(armed, "launch", rank, kernel)
            raise DeviceECCError(where=f"kernel '{kernel}'")
        if kind == RANK_DEAD:
            self._record(armed, "launch", rank, kernel)
            raise DeviceLostError(rank=rank)

    def on_allocate(self, name: str, nbytes: int, memory,
                    rank: int | None = None) -> None:
        """Device allocation about to run; raises an (enriched) OOM when an
        allocation fault is armed. ``memory`` is the device's
        :class:`~repro.gpusim.memory.DeviceMemory` — the injected error
        carries its real live-allocation table."""
        self._tick("alloc", rank)
        armed = self._firing("alloc", rank)
        if armed is None:
            return
        if armed.spec.kind == OOM:
            self._record(armed, "alloc", rank, name, nbytes=int(nbytes))
            raise DeviceOutOfMemoryError(
                int(nbytes), 0, memory.usable,
                allocations=memory.allocation_table(), request_name=name,
            )

    def on_message(
        self, rank: int, dest: int, tag: int, nbytes: int
    ) -> str:
        """MPI send about to enqueue; returns the delivery action:
        ``'deliver'`` | ``'drop'`` | ``'duplicate'`` | ``'delay'``."""
        self._tick("message", rank)
        armed = self._firing("message", rank)
        if armed is None:
            return "deliver"
        kind = armed.spec.kind
        action = {MPI_DROP: "drop", MPI_DUP: "duplicate", MPI_DELAY: "delay"}
        if kind in action:
            self._record(
                armed, "message", rank, f"->{dest}#{tag}", nbytes=int(nbytes)
            )
            return action[kind]
        return "deliver"

    # ------------------------------------------------------------------
    # binding helpers
    # ------------------------------------------------------------------
    def bound(self, rank: int | None) -> "BoundInjector":
        """A rank-tagged view for one card's hooks."""
        return BoundInjector(self, rank)

    def attach_device(self, device, rank: int | None = None) -> None:
        """Install this injector on a simulated device's hook point."""
        device.injector = self.bound(rank)

    def attach_mpi(self, mpi) -> None:
        """Install this injector on a message-passing world."""
        mpi.injector = self


class BoundInjector:
    """Per-rank adapter: the device-side hooks with the rank baked in."""

    def __init__(self, injector: FaultInjector, rank: int | None):
        self.injector = injector
        self.rank = rank

    def on_transfer(self, direction: str, name: str, nbytes: int) -> None:
        self.injector.on_transfer(direction, name, nbytes, rank=self.rank)

    def count_clear(self, launches: int, transfers: int) -> bool:
        return self.injector.count_clear(self.rank, launches, transfers)

    def on_kernel_launch(self, kernel: str) -> None:
        self.injector.on_kernel_launch(kernel, rank=self.rank)

    def on_allocate(self, name: str, nbytes: int, memory) -> None:
        self.injector.on_allocate(name, nbytes, memory, rank=self.rank)


__all__ = [
    "FaultInjector", "BoundInjector", "TRACE_PROCESS", "FAULT_TRACK",
]
