"""DirectiveProgram IR: the event sequence the static analyzer lints.

A :class:`DirectiveProgram` is an ordered list of :class:`AccEvent` records —
data-lifetime operations (``enter``/``exit``), transfers (``update``),
compute constructs, queue synchronisation (``wait``) and host-side write
markers — plus :class:`ProgramMeta` describing the device/compiler context
the program ran (or would run) under.

Programs come from two frontends:

* :class:`~repro.analyze.recorder.ProgramRecorder` — attached to a live
  :class:`~repro.acc.runtime.Runtime`, so any pipeline run emits its own
  program;
* :func:`~repro.analyze.frontend.program_from_script` — built directly from
  a ``!$acc`` directive script via :mod:`repro.acc.parser`.

The IR is deliberately flat (one dataclass, a ``kind`` tag) so passes can
scan event streams without a visitor layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acc.clauses import LoopSchedule

#: event kinds carried by :class:`AccEvent`
KINDS = (
    "enter", "exit", "update", "compute", "wait", "host_write",
    "host_read", "send", "recv",
)


@dataclass(frozen=True)
class AccEvent:
    """One directive-level operation in program order.

    Only the fields relevant to the event's ``kind`` are populated:

    ``enter``/``exit``
        ``copyin``/``create`` and ``delete``/``copyout`` name tuples;
        ``structured`` marks the two ends of a structured ``data`` region.
    ``update``
        ``direction`` ('host'|'device'), ``var``, ``nbytes`` (None = full
        extent), ``chunks`` and the async ``queue``.
    ``compute``
        ``construct``, ``kernel``, read/write name sets (``writes_known``
        is False when the frontend could not see the kernel body — recorded
        programs only know the ``present`` clause), the loop ``schedule``,
        nest extents and body metadata, ``queue`` and ``wait_on`` edges,
        and the modelled register demand when available.
    ``wait``
        ``wait_on`` queue ids (empty tuple = wait on *all* queues).
    ``host_write``
        ``writes``: names whose *host* copies changed (snapshot restores,
        host-side physics between directives); ``offset``/``nbytes``
        restrict the write to a byte range (ghost-slab receives).
    ``host_read``
        ``reads``: names whose *host* copies are consumed outside
        directives (MPI sends, host-side I/O), with an optional
        ``offset``/``nbytes`` range.
    ``send``/``recv``
        an MPI transfer of the *host* copy of ``var`` (``peer`` is the
        other rank when known) — the boundary the sanitizer's cross-rank
        happens-before graph hangs its message edges on.
    """

    kind: str
    index: int = 0
    #: async queue the operation was enqueued on (None = synchronous)
    queue: int | None = None
    #: where the event came from (script line, pipeline phase)
    label: str | None = None
    # --- data lifetime ---------------------------------------------------
    copyin: tuple[str, ...] = ()
    create: tuple[str, ...] = ()
    delete: tuple[str, ...] = ()
    copyout: tuple[str, ...] = ()
    structured: bool = False
    # --- update / host_write / host_read / send / recv -------------------
    direction: str | None = None
    var: str | None = None
    nbytes: int | None = None
    chunks: int = 1
    #: starting byte of a partial transfer/marker (0 = array start)
    offset: int = 0
    #: peer rank of a send/recv event (None when unknown)
    peer: int | None = None
    # --- compute ---------------------------------------------------------
    construct: str | None = None
    kernel: str | None = None
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    writes_known: bool = False
    schedule: LoopSchedule | None = None
    loop_dims: tuple[int, ...] = ()
    inner_contiguous: bool = True
    loop_carried: bool = False
    halo: int | None = None
    regs_demand: int | None = None
    # --- wait ------------------------------------------------------------
    wait_on: tuple[int, ...] = ()
    #: a bare ``wait`` *clause* on a compute construct: the launch joins
    #: every queue (OpenACC semantics), not just the ones in ``wait_on``
    wait_all: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown event kind '{self.kind}'")

    def _reindexed(self, index: int) -> AccEvent:
        """This event at program position ``index``. A field copy, not
        ``dataclasses.replace``: replace re-runs ``__init__`` over every
        field and the kind check this event already passed, and programs
        re-index every event each time a transformation is applied."""
        moved = object.__new__(type(self))
        moved.__dict__.update(self.__dict__, index=index)
        return moved

    # ------------------------------------------------------------------
    def accesses(self, conservative: bool = False) -> list[tuple[str, str]]:
        """Device-array accesses as ``(name, 'r'|'w')`` pairs — the input of
        the race pass. Lifetime events access synchronously: ``copyin``
        writes the device mirror, ``copyout`` reads it, ``delete`` is
        treated as a write (freeing under in-flight work is a race).

        ``conservative`` governs computes whose write set the frontend
        never saw (``writes_known`` False — recorded programs only know
        the ``present`` clause): the default reports those names as reads
        only (the race pass's historical behaviour, which keeps auto-async
        schedules that serialise at step boundaries race-free), while
        ``conservative=True`` reports every present name as read *and*
        written — the sound reading the dependence graph must use, since a
        kernel is free to write anything it has present."""
        if self.kind == "enter":
            return [(n, "w") for n in self.copyin]
        if self.kind == "exit":
            return [(n, "r") for n in self.copyout] + [(n, "w") for n in self.delete]
        if self.kind == "update":
            return [(self.var, "w" if self.direction == "device" else "r")]
        if self.kind == "compute":
            out = [(n, "r") for n in self.reads]
            if self.writes_known or not conservative:
                out += [(n, "w") for n in self.writes]
            else:
                out += [(n, "w") for n in self.reads]
            return out
        return []


@dataclass(frozen=True)
class ProgramMeta:
    """Device/compiler context a program runs under."""

    source: str = "script"  # 'recorded' | 'script'
    name: str = "program"
    device: str | None = None
    warp_size: int = 32
    max_regs_per_thread: int | None = None
    max_threads_per_block: int | None = None
    compiler: str | None = None
    vendor: str | None = None  # 'pgi' | 'cray'
    maxregcount: int | None = None
    auto_async: bool = False


class DirectiveProgram:
    """Ordered event sequence + known array extents.

    ``extents`` maps array names to their attached byte counts (0 when the
    frontend had no size information, e.g. a bare ``copyin(u)`` in a
    script).
    """

    def __init__(self, meta: ProgramMeta | None = None):
        self.meta = meta if meta is not None else ProgramMeta()
        self.events: list[AccEvent] = []
        self.extents: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, event: AccEvent, sizes: dict[str, int] | None = None) -> AccEvent:
        """Append ``event`` (re-indexed to its program position); ``sizes``
        records the byte extents of any newly attached arrays."""
        if event.index != len(self.events):
            event = event._reindexed(len(self.events))
        self.events.append(event)
        for name, nbytes in (sizes or {}).items():
            if nbytes:
                self.extents[name] = int(nbytes)
        return event

    # ------------------------------------------------------------------
    def computes(self) -> list[AccEvent]:
        return [e for e in self.events if e.kind == "compute"]

    def full_extent(self, event: AccEvent) -> bool:
        """Whether an update event moves the array's whole attached extent
        (unknown extents count as full — the conservative reading)."""
        if event.nbytes is None:
            return True
        known = self.extents.get(event.var or "", 0)
        return known > 0 and event.nbytes >= known

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def sha(self) -> str:
        """Content hash (sha256 hex) of the program's semantics.

        Covers every event field except ``label`` (labels carry script
        line numbers and phase names, which vary between frontends that
        produce the same schedule), plus the attached extents and the
        semantic :class:`ProgramMeta` fields — but not ``meta.source`` or
        ``meta.name``, so a re-recording of the same case under another
        name hashes equal. This is the staleness check between a program
        and a persisted opportunities artifact: apply a verified
        transformation only to the exact schedule it was proven on.
        """
        import hashlib

        h = hashlib.sha256()
        m = self.meta
        h.update(repr((
            m.device, m.warp_size, m.max_regs_per_thread,
            m.max_threads_per_block, m.compiler, m.vendor, m.maxregcount,
            m.auto_async,
        )).encode())
        h.update(repr(sorted(self.extents.items())).encode())
        for e in self.events:
            h.update(repr((
                e.kind, e.index, e.queue, e.copyin, e.create, e.delete,
                e.copyout, e.structured, e.direction, e.var, e.nbytes,
                e.chunks, e.offset, e.peer, e.construct, e.kernel,
                e.reads, e.writes, e.writes_known, repr(e.schedule),
                e.loop_dims, e.inner_contiguous, e.loop_carried, e.halo,
                e.regs_demand, e.wait_on, e.wait_all,
            )).encode())
        return h.hexdigest()


__all__ = ["AccEvent", "DirectiveProgram", "ProgramMeta", "KINDS"]
