"""The sanitizer session: shadow coherence + cross-rank race checking.

A :class:`SanitizeSession` watches one or more ranks' directive streams —
live (its per-rank recorders attach to :class:`~repro.acc.runtime.Runtime`
instances, its halo/MPI hooks to :class:`~repro.mpisim.halo.HaloExchanger`
and :class:`~repro.mpisim.comm.SimMPI`) or replayed from a parsed ``!$acc``
script — and checks every consumer against per-array shadow state
(:mod:`repro.sanitize.shadow`) and the cross-rank happens-before graph
(:mod:`repro.sanitize.rankrace`).

Hazard codes (all errors):

``stale-device-read`` (pass ``coherence``)
    a kernel or ``copyout`` consumes device bytes the host wrote without a
    covering ``update device``;
``stale-host-read`` (pass ``coherence``)
    an MPI send / host read consumes host bytes a kernel may have written
    without a covering ``update host``;
``short-ghost-transfer`` (pass ``ghost``)
    a ghost-zone refresh moves fewer planes than the stencil radius needs
    (or the decomposition's halo is thinner than the radius);
``ghost-transfer-out-of-bounds`` (pass ``ghost``)
    a partial update's byte range runs past the array extent;
``halo-send-before-sync`` (pass ``rank-race``)
    an MPI send reads a halo buffer an *asynchronous* ``update host`` is
    still filling — no ``wait(q)`` orders the pair.

Findings are :class:`~repro.analyze.framework.Diagnostic` records (the
lint machinery's reporters apply unchanged) and carry
:class:`~repro.sanitize.fixit.ScriptFix` remedies when anchored to script
lines.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.analyze.framework import Diagnostic, Severity
from repro.analyze.program import AccEvent, DirectiveProgram, ProgramMeta
from repro.analyze.recorder import ProgramRecorder
from repro.analyze.rules import DYNAMIC_PASSES, rule
from repro.sanitize.fixit import ScriptFix
from repro.sanitize.rankrace import PendingOp, RankClocks
from repro.sanitize.shadow import (
    UNKNOWN_EXTENT,
    ShadowArray,
    describe,
    subtract_interval,
)

#: hazard code -> pass name (the shared registry's dynamic view; kept
#: under its historical name for importers)
PASSES = DYNAMIC_PASSES

_LINE_RE = re.compile(r"line (\d+)")
_ITEMSIZE = 4  # float32 wavefields throughout the reproduction


def _line_of(event: AccEvent | None) -> int | None:
    if event is None or not event.label:
        return None
    m = _LINE_RE.search(event.label)
    return int(m.group(1)) if m else None


def _fmt(intervals) -> str:
    """Range list for messages; unknown-extent tails print as 'full extent'."""
    if any(hi >= UNKNOWN_EXTENT for _, hi in intervals):
        return "the full extent"
    return "bytes " + describe(intervals)


class _RankRecorder(ProgramRecorder):
    """A :class:`~repro.analyze.recorder.ProgramRecorder` into one rank's
    program of the session, which also registers the runtime and observes
    each recorded event."""

    def __init__(self, session: "SanitizeSession", rank: int):
        super().__init__()
        self._session = session
        self._rank = rank
        self.program = session.programs[rank]

    def bind_runtime(self, rt) -> None:
        super().bind_runtime(rt)
        self._session.runtimes[self._rank] = rt

    def record(self, kind: str, sizes=None, **fields) -> AccEvent:
        event = super().record(kind, sizes, **fields)
        self._session.observe(self._rank, event)
        return event


@dataclass
class SanitizeResult:
    """Findings across all ranks of one sanitized run (mirrors
    :class:`~repro.analyze.framework.LintResult`, which the shared
    reporters duck-type against via :attr:`program`)."""

    name: str
    nranks: int
    programs: list[DirectiveProgram]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def program(self) -> DirectiveProgram:
        return self.programs[0]

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def worst(self) -> Severity | None:
        return max((d.severity for d in self.diagnostics), default=None)

    def fails(self, threshold: Severity) -> bool:
        return any(d.severity >= threshold for d in self.diagnostics)

    def clean(self) -> bool:
        return not self.diagnostics


class SanitizeSession:
    """Dynamic coherence + race sanitizer over ``nranks`` directive streams."""

    #: configuration and live-run wiring, which replay never writes: a
    #: fork shares them
    _FORK_SHARED = (
        "nranks", "name", "stencil_radius", "runtimes", "_field_map",
        "_halo_width", "_decomp",
    )
    #: everything replay writes, each with how :meth:`fork` copies it so
    #: that neither session's later replay reaches the other; equal
    #: values here are what :meth:`same_state` compares
    _REPLAY_STATE = {
        "programs": list,
        "shadows": lambda ranks: [
            {name: sh.copy() for name, sh in shadows.items()}
            for shadows in ranks
        ],
        "clocks": RankClocks.copy,
        "pending": lambda pending: {
            key: list(ops) for key, ops in pending.items()
        },
        "diagnostics": list,
        "_last_partial": dict,
        "_seen": set,
    }

    def __init__(
        self,
        nranks: int = 1,
        name: str = "sanitize",
        stencil_radius: int | None = None,
    ):
        self.nranks = int(nranks)
        self.name = name
        self.stencil_radius = stencil_radius
        self.programs = [
            DirectiveProgram(ProgramMeta(
                source="recorded",
                name=name if self.nranks == 1 else f"{name}[rank {r}]",
            ))
            for r in range(self.nranks)
        ]
        self.shadows: list[dict[str, ShadowArray]] = [
            {} for _ in range(self.nranks)
        ]
        self.clocks = RankClocks()
        #: in-flight async host-updates per (rank, var)
        self.pending: dict[tuple[int, str], list[PendingOp]] = {}
        self.diagnostics: list[Diagnostic] = []
        self.runtimes: dict[int, object] = {}
        #: halo field key -> device array name (live pipelines bind this
        #: before each exchange so hook events name the real array)
        self._field_map: dict[str, str] = {}
        self._halo_width: int | None = None
        #: decomposition of the live run (peers for halo send/recv events)
        self._decomp = None
        #: last *partial* ``update device`` per (rank, var) — the edit
        #: target when a short ghost transfer is diagnosed
        self._last_partial: dict[tuple[int, str], AccEvent] = {}
        self._seen: set[tuple] = set()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def recorder(self, rank: int = 0) -> _RankRecorder:
        """The recorder to ``rt.attach_recorder`` for ``rank``."""
        return _RankRecorder(self, rank)

    def declare_stencil(self, radius: int) -> None:
        """The stencil half-width (in grid planes) ghost transfers must
        cover — :func:`repro.stencil.operators` radius of the run."""
        self.stencil_radius = int(radius)

    def map_field(self, field_key: str, device_name: str) -> None:
        """Bind an exchanged halo field key to the device array it mirrors
        (re-bind when the pipeline switches wavefields, e.g. RTM backward)."""
        self._field_map[field_key] = device_name

    def replay(
        self,
        program: DirectiveProgram,
        rank: int = 0,
        events: Iterable[AccEvent] | None = None,
    ) -> None:
        """Feed an already-built program (the script frontend's output)
        through the checks; the program becomes the rank's reporting view
        and the source of extents. ``events`` replaces the program's own
        events as what is fed: a slice of it, or a transformed schedule
        over the same arrays."""
        self.programs[rank] = program
        for event in program.events if events is None else events:
            self.observe(rank, event)

    def fork(self) -> SanitizeSession:
        """An independent session in this one's replay state: what either
        replays afterwards leaves the other unchanged. It shares
        ``_FORK_SHARED`` and copies ``_REPLAY_STATE``, the same table
        :meth:`same_state` compares, so a fork can be judged against the
        session it left: once the two are in the same state at the same
        position, equal events from there on end them in equal states."""
        twin = object.__new__(type(self))
        for name in self._FORK_SHARED:
            setattr(twin, name, getattr(self, name))
        for name, copy in self._REPLAY_STATE.items():
            setattr(twin, name, copy(getattr(self, name)))
        return twin

    def same_state(self, other: SanitizeSession) -> bool:
        """Whether ``other`` holds this session's replay state: every
        part of ``_REPLAY_STATE`` equal, not only what a fingerprint
        reads (in-flight async ops and queue clocks decide later
        findings, too)."""
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._REPLAY_STATE
        )

    # ------------------------------------------------------------------
    # findings
    # ------------------------------------------------------------------
    def _emit(
        self,
        rule: str,
        message: str,
        rank: int | None = None,
        event: AccEvent | None = None,
        var: str | None = None,
        kernel: str | None = None,
        fix: ScriptFix | None = None,
    ) -> None:
        key = (
            rule, rank, var, kernel,
            event.label if event is not None else None,
        )
        if key in self._seen:
            return
        self._seen.add(key)
        if rank is not None and self.nranks > 1:
            message = f"[rank {rank}] {message}"
        self.diagnostics.append(Diagnostic(
            pass_name=PASSES[rule], rule=rule, severity=Severity.ERROR,
            message=message,
            event_index=event.index if event is not None else None,
            var=var, kernel=kernel, fix=fix,
        ))

    def result(self) -> SanitizeResult:
        return SanitizeResult(
            name=self.name, nranks=self.nranks,
            programs=self.programs, diagnostics=list(self.diagnostics),
        )

    # ------------------------------------------------------------------
    # event stream
    # ------------------------------------------------------------------
    def observe(self, rank: int, e: AccEvent) -> None:
        handler = getattr(self, f"_on_{e.kind}", None)
        if handler is not None:
            handler(rank, e)

    def _shadow(self, rank: int, name: str) -> ShadowArray | None:
        return self.shadows[rank].get(name)

    def _extent(self, rank: int, name: str) -> int:
        return self.programs[rank].extents.get(name) or UNKNOWN_EXTENT

    # --- lifetime -------------------------------------------------------
    def _on_enter(self, rank: int, e: AccEvent) -> None:
        for name in e.copyin + e.create:
            if name not in self.shadows[rank]:
                self.shadows[rank][name] = ShadowArray(
                    name, extent=self._extent(rank, name)
                )

    def _on_exit(self, rank: int, e: AccEvent) -> None:
        for name in e.copyout:
            sh = self._shadow(rank, name)
            if sh is None:
                continue
            stale = sh.device_stale()
            if stale:
                self._emit(
                    "stale-device-read",
                    rule("stale-device-read").format_alt(
                        var=name, ranges=_fmt(stale)
                    ),
                    rank=rank, event=e, var=name,
                    fix=self._update_fix(e, name, stale, "device"),
                )
        for name in e.copyout + e.delete:
            self.shadows[rank].pop(name, None)

    # --- transfers ------------------------------------------------------
    def _on_update(self, rank: int, e: AccEvent) -> None:
        sh = self._shadow(rank, e.var)
        if sh is None:
            return
        if (
            e.nbytes is not None
            and sh.extent < UNKNOWN_EXTENT
            and e.offset + e.nbytes > sh.extent
        ):
            self._emit(
                "ghost-transfer-out-of-bounds",
                rule("ghost-transfer-out-of-bounds").format(
                    direction=e.direction, var=e.var, lo=e.offset,
                    hi=e.offset + e.nbytes, extent=sh.extent,
                ),
                rank=rank, event=e, var=e.var,
            )
        if e.direction == "device":
            sh.update_device(e.offset, e.nbytes)
            key = (rank, e.var)
            if e.nbytes is not None and not self.programs[rank].full_extent(e):
                self._last_partial[key] = e
            else:
                self._last_partial.pop(key, None)
        else:
            sh.update_host(e.offset, e.nbytes)
            if e.queue is not None:
                lo = e.offset
                hi = sh.extent if e.nbytes is None else lo + e.nbytes
                ckey, tick = self.clocks.async_op(rank, e.queue)
                self.pending.setdefault((rank, e.var), []).append(PendingOp(
                    key=ckey, tick=tick, lo=lo, hi=hi,
                    event_index=e.index, queue=e.queue, label=e.label,
                ))

    # --- synchronisation ------------------------------------------------
    def _on_wait(self, rank: int, e: AccEvent) -> None:
        if e.wait_on:
            for q in e.wait_on:
                self.clocks.wait(rank, q)
        else:
            self.clocks.wait(rank, None)
        self._prune_pending(rank)

    def _prune_pending(self, rank: int) -> None:
        for key in [k for k in self.pending if k[0] == rank]:
            left = [
                p for p in self.pending[key]
                if not self.clocks.ordered(rank, p.key, p.tick)
            ]
            if left:
                self.pending[key] = left
            else:
                del self.pending[key]

    # --- compute --------------------------------------------------------
    def _on_compute(self, rank: int, e: AccEvent) -> None:
        if e.wait_all:
            self.clocks.wait(rank, None)
        for q in e.wait_on:
            self.clocks.wait(rank, q)
        if e.wait_all or e.wait_on:
            self._prune_pending(rank)
        for name in dict.fromkeys(e.reads + e.writes):
            sh = self._shadow(rank, name)
            if sh is None:
                continue
            stale = sh.device_stale()
            if stale:
                self._classify_device_stale(rank, e, name, sh, stale)
        # writes: recorded programs only know the present set (writes_known
        # False) — treat every present array as may-written, conservatively
        for name in (e.writes if e.writes_known else e.reads):
            sh = self._shadow(rank, name)
            if sh is not None:
                sh.device_write()

    def _classify_device_stale(
        self, rank: int, e: AccEvent, name: str,
        sh: ShadowArray, stale: list,
    ) -> None:
        required = self._ghost_requirement(e)
        last = self._last_partial.get((rank, name))
        if (
            required
            and last is not None
            and sh.extent < UNKNOWN_EXTENT
            and (last.nbytes or 0) < required
        ):
            faces_left = subtract_interval(
                subtract_interval(stale, 0, required),
                sh.extent - required, sh.extent,
            )
            if not faces_left:
                # stale bytes are confined to the ghost faces and the last
                # refresh was partial: the transfer is too narrow, not missing
                offset = 0 if all(hi <= required for _, hi in stale) else (
                    sh.extent - required
                    if all(lo >= sh.extent - required for lo, _ in stale)
                    else None
                )
                moved = int(last.nbytes or 0)
                self._emit(
                    "short-ghost-transfer",
                    rule("short-ghost-transfer").format(
                        var=name, moved=moved, halo=e.halo,
                        required=required, kernel=e.kernel,
                        ranges=_fmt(stale),
                    ),
                    rank=rank, event=e, var=name, kernel=e.kernel,
                    fix=ScriptFix(
                        action="widen-update", line=_line_of(last), var=name,
                        required_bytes=required, required_offset=offset,
                    ),
                )
                return
        self._emit(
            "stale-device-read",
            rule("stale-device-read").format(
                consumer=f"kernel '{e.kernel}'", var=name,
                ranges=_fmt(stale),
            ),
            rank=rank, event=e, var=name, kernel=e.kernel,
            fix=self._update_fix(e, name, stale, "device"),
        )

    def _ghost_requirement(self, e: AccEvent) -> int | None:
        """Bytes one ghost face must carry for this stencil compute: the
        stencil half-width (``halo`` planes) times the plane size."""
        if not e.halo or len(e.loop_dims) < 2:
            return None
        plane = _ITEMSIZE
        for d in e.loop_dims[1:]:
            plane *= int(d)
        return int(e.halo) * plane

    # --- host-side consumers -------------------------------------------
    def _on_host_write(self, rank: int, e: AccEvent) -> None:
        for name in e.writes:
            sh = self._shadow(rank, name)
            if sh is not None:
                sh.host_write(e.offset, e.nbytes)

    def _on_host_read(self, rank: int, e: AccEvent) -> None:
        for name in e.reads:
            self._check_host_consumer(
                rank, e, name, e.offset, e.nbytes, what="host read"
            )

    def _on_send(self, rank: int, e: AccEvent) -> None:
        self._check_host_consumer(
            rank, e, e.var, e.offset, e.nbytes, what="MPI send"
        )
        if e.peer is not None:
            self.clocks.send(rank, e.peer)

    def _on_recv(self, rank: int, e: AccEvent) -> None:
        sh = self._shadow(rank, e.var)
        if sh is not None:
            sh.host_write(e.offset, e.nbytes)
        if e.peer is not None:
            self.clocks.recv(rank, e.peer)

    def _check_host_consumer(
        self,
        rank: int,
        e: AccEvent | None,
        name: str,
        offset: int,
        nbytes: int | None,
        what: str,
    ) -> None:
        sh = self._shadow(rank, name)
        if sh is None:
            return
        stale = sh.host_stale(offset, nbytes)
        if stale:
            self._emit(
                "stale-host-read",
                rule("stale-host-read").format(
                    consumer=what, var=name, ranges=_fmt(stale),
                ),
                rank=rank, event=e, var=name,
                fix=self._update_fix(e, name, stale, "self"),
            )
        lo = max(0, int(offset))
        hi = sh.extent if nbytes is None else lo + int(nbytes)
        for p in self.pending.get((rank, name), []):
            if p.hi <= lo or p.lo >= hi:
                continue
            if self.clocks.ordered(rank, p.key, p.tick):
                continue
            self._emit(
                "halo-send-before-sync",
                rule("halo-send-before-sync").format(
                    consumer=what, var=name, lo=lo, hi=min(hi, p.hi),
                    queue=p.queue,
                )
                + self._queue_state(rank, p.queue),
                rank=rank, event=e, var=name,
                fix=ScriptFix(
                    action="insert-before", line=_line_of(e), var=name,
                    lines=(f"!$acc wait({p.queue})",),
                ),
            )

    def _queue_state(self, rank: int, queue: int) -> str:
        """Live confirmation from the simulated device's stream pool."""
        rt = self.runtimes.get(rank)
        if rt is None:
            return ""
        pending = rt.device.streams.pending_queues()
        if queue in pending:
            return " (queue has in-flight work on the device timeline)"
        return ""

    def _update_fix(
        self, e: AccEvent | None, name: str, stale: list, direction: str
    ) -> ScriptFix | None:
        """An ``insert-before`` fix pushing/pulling exactly the stale
        ranges ahead of the consuming directive."""
        line = _line_of(e)
        lines: list[str] = []
        for lo, hi in stale[:4]:
            if hi < UNKNOWN_EXTENT:
                lines.append(f"!$lint bytes={hi - lo} offset={lo}")
            lines.append(f"!$acc update {direction}({name})")
        return ScriptFix(
            action="insert-before", line=line, var=name, lines=tuple(lines)
        )

    # ------------------------------------------------------------------
    # mpisim hooks (live mode)
    # ------------------------------------------------------------------
    def on_halo_geometry(self, decomp) -> None:
        self._halo_width = int(decomp.halo)
        self._decomp = decomp
        if (
            self.stencil_radius is not None
            and decomp.halo < self.stencil_radius
        ):
            self._emit(
                "short-ghost-transfer",
                rule("short-ghost-transfer").format_alt(
                    have=decomp.halo, need=self.stencil_radius,
                ),
            )

    def _face_range(
        self, rank: int, name: str, side: str, nbytes: int, ghost: bool
    ) -> tuple[str | None, int, int | None]:
        """(device array, offset, nbytes) of a face slab. Sends read the
        owned planes just inside the halo; receives land in the halo."""
        dev = self._field_map.get(name)
        if dev is None:
            return None, 0, None
        ext = self._extent(rank, dev)
        if ext >= UNKNOWN_EXTENT:
            return dev, 0, None
        if side == "lo":
            lo = 0 if ghost else nbytes
        else:
            lo = ext - nbytes if ghost else ext - 2 * nbytes
        return dev, max(0, lo), nbytes

    def _halo_peer(self, rank: int, axis: int, side: str) -> int | None:
        """The other rank of a halo face, when the geometry is known —
        recorded on send/recv events so the static cross-rank pass can
        match message pairs without re-deriving the decomposition."""
        if self._decomp is None:
            return None
        try:
            return self._decomp.neighbour(rank, axis, side)
        except (AttributeError, ValueError):
            return None

    def on_halo_send(
        self, rank: int, name: str, axis: int, side: str, nbytes: int
    ) -> None:
        dev, lo, n = self._face_range(rank, name, side, nbytes, ghost=False)
        if dev is None:
            return
        event = self.programs[rank].add(AccEvent(
            kind="send", var=dev, offset=lo, nbytes=n,
            peer=self._halo_peer(rank, axis, side),
            label=f"halo axis {axis} {side}",
        ))
        self._check_host_consumer(rank, event, dev, lo, n, what="halo send")

    def on_halo_recv(
        self, rank: int, name: str, axis: int, side: str, nbytes: int
    ) -> None:
        dev, lo, n = self._face_range(rank, name, side, nbytes, ghost=True)
        if dev is None:
            return
        event = self.programs[rank].add(AccEvent(
            kind="recv", var=dev, offset=lo, nbytes=n,
            peer=self._halo_peer(rank, axis, side),
            label=f"halo axis {axis} {side}",
        ))
        sh = self._shadow(rank, dev)
        if sh is not None:
            sh.host_write(event.offset, event.nbytes)

    def on_isend(self, rank: int, dest: int, tag: int, nbytes: int) -> None:
        self.clocks.send(rank, dest, tag)

    def on_recv(self, rank: int, source: int, tag: int, nbytes: int) -> None:
        self.clocks.recv(rank, source, tag)


__all__ = ["SanitizeSession", "SanitizeResult", "PASSES"]
