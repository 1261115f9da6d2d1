"""The fused-kernel compiler: verified opportunities → an executable step.

This is the front half of :mod:`repro.compile` (the back half —
:mod:`repro.compile.lower` — turns the transformed events into bound
closures).  The pipeline is:

1. **Segmented recording** (:func:`record_segments`) — interpret the
   :class:`~repro.core.schedule.Schedule` on a fresh runtime + :class:`~
   repro.analyze.recorder.ProgramRecorder`, marking which event range
   each schedule action produced.
2. **Template extraction** — every repeated phase (forward step,
   snapshot, snapshot reload, imaging, backward step) must be
   steady-state: all its slices equal in every event field but
   ``index`` and ``label``.  Non-uniform schedules (e.g. auto-async
   queue rotation) are refused.
3. **Selection** (:func:`select_opportunities`) — verified
   :class:`~repro.analyze.dataflow.OptimizationOpportunity` records are
   mapped to template offsets, deduplicated across periodic repeats,
   structurally re-checked, made conflict-free, and each survivor is
   re-proven by the :func:`~repro.analyze.dataflow.verify_opportunity`
   replay, on one forward-only
   :class:`~repro.analyze.dataflow.ReplayVerifier` per selection pass.
4. **Application** — survivors are applied per template with
   :func:`~repro.analyze.dataflow.apply_opportunity`; hoisted updates
   move to a phase prologue that runs once.
5. **Verification gate** (inside :func:`compile_case`) — the compiled
   schedule is run on a fresh runtime under a recorder and
   its :func:`~repro.analyze.dataflow.replay_fingerprint` must be
   bitwise-identical to the interpreted program's.  Failure raises
   :class:`~repro.utils.errors.CompileError`; an unverified
   :class:`CompiledPipeline` is never returned.

Artifacts from ``repro deps --opportunities`` are accepted via
``artifact=``; they are schema-validated and matched to the re-recorded
program by :meth:`~repro.analyze.program.DirectiveProgram.sha` —
mismatch raises :class:`~repro.utils.errors.StaleArtifactError` (fail
closed, never "best effort").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.analyze.dataflow import (
    OptimizationOpportunity,
    ReplayVerifier,
    apply_opportunity,
    find_opportunities,
    replay_fingerprint,
    validate_opportunities,
)
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.analyze.recorder import ProgramRecorder
from repro.compile.lower import (
    BoundStep,
    LoweredOp,
    WorkloadRegistry,
    bind_ops,
    lower_events,
)
from repro.core.config import GpuTimes, GPUOptions
from repro.core.pipeline import device_times, failed_times
from repro.core.platform import CRAY_K40, Platform
from repro.core.schedule import (
    PHASE_ORDER,
    PROLOGUE_GATE,
    PROLOGUE_OF,
    REPEATED_PHASES,
    RESIDENCY_STEPS,
    Schedule,
)
from repro.core.shot import _build_runtime, build_pipeline
from repro.optim.autotune import TuningPlan, options_with_plan
from repro.optim.tuning import fused_launch_estimate
from repro.utils.errors import (
    CompileError,
    DeviceOutOfMemoryError,
    StaleArtifactError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.acc.runtime import Runtime
    from repro.core.pipeline import OffloadPipeline

@dataclass(frozen=True)
class CompileRequest:
    """What to compile: one seed-style case under one schedule shape.

    Mirrors the parameters ``repro deps`` records with, so a request
    compiled with the same ``nt`` hashes to the same
    :meth:`~repro.analyze.program.DirectiveProgram.sha` as the deps
    artifact (that equality is the staleness gate).
    """

    physics: str
    shape: tuple[int, ...]
    mode: str = "rtm"
    nt: int = 24
    snap_period: int = 4
    snapshot_decimate: int = 4
    nreceivers: int = 16
    space_order: int = 8
    boundary_width: int = 8
    pml_variant: str = "restructured"

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def name(self) -> str:
        return f"{self.physics}-{self.ndim}d-{self.mode}"

    @property
    def schedule(self) -> Schedule:
        return Schedule(self.mode, self.nt, self.snap_period, self.snapshot_decimate)

    @classmethod
    def from_case(cls, case: str, mode: str, nt: int = 24) -> "CompileRequest":
        """Build a request from a seed-case spelling (``iso2d`` ...),
        using the exact recording parameters of ``repro deps``."""
        from repro.cases import parse_case, record_args

        physics, ndim = parse_case(case)
        return cls(physics=physics, mode=mode, nt=nt, **record_args(ndim))


@dataclass(frozen=True)
class Segment:
    """One phase-method call's event range: ``[start, stop)``."""

    phase: str
    start: int
    stop: int

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.stop


#: an event's fields minus its program position and label: what every
#: slice of a steady-state phase repeats
_steady_fields = attrgetter(*(
    f.name for f in fields(AccEvent) if f.name not in ("index", "label")
))


@dataclass
class SegmentedRecording:
    """A recorded program plus the phase boundaries of every event."""

    request: CompileRequest
    program: DirectiveProgram
    segments: list[Segment]
    pipeline: "OffloadPipeline"

    def slices(self, phase: str) -> list[Segment]:
        return [s for s in self.segments if s.phase == phase]

    def segment_of(self, index: int) -> Segment | None:
        for s in self.segments:
            if index in s:
                return s
        return None

    def template(self, phase: str) -> list[AccEvent]:
        """The phase's steady-state event template.

        Raises :class:`CompileError` when the phase's slices differ in
        any event field but ``index`` and ``label`` — the schedule is
        input-dependent and must stay with the interpreter.
        """
        slices = self.slices(phase)
        if not slices:
            return []
        events = self.program.events
        first = [
            _steady_fields(e)
            for e in events[slices[0].start:slices[0].stop]
        ]
        for s in slices[1:]:
            other = [_steady_fields(e) for e in events[s.start:s.stop]]
            if other != first:
                raise CompileError(
                    f"phase '{phase}' is not steady-state: slice at event "
                    f"{s.start} differs from the template at event "
                    f"{slices[0].start} (input-dependent schedules cannot "
                    f"be compiled)"
                )
        return events[slices[0].start:slices[0].stop]


def record_segments(
    request: CompileRequest,
    options: GPUOptions,
    platform: Platform = CRAY_K40,
    name: str | None = None,
) -> SegmentedRecording:
    """Record the interpreted schedule with per-phase event boundaries:
    one :class:`Segment` per schedule action.  Failures are *not* soft
    here: a known-failure persona raises :class:`CompileError` and device
    OOM propagates.
    """
    pipe = build_pipeline(
        options, platform, request.physics, request.shape, request.nreceivers,
        request.space_order, request.boundary_width, request.pml_variant,
    )
    recorder = ProgramRecorder(name=name or request.name)
    pipe.rt.attach_recorder(recorder)
    schedule = request.schedule
    if schedule.known_failure(pipe.rt.compiler, pipe.physics, pipe.ndim):
        raise CompileError(
            f"persona {pipe.rt.compiler.name} cannot build "
            f"{pipe.physics}-{pipe.ndim}d-{request.mode} (known compiler failure)"
        )
    events = recorder.program.events
    segments: list[Segment] = []
    for step in schedule:
        for action in step.actions:
            start = len(events)
            pipe.perform(action, step)
            segments.append(Segment(action, start, len(events)))
    return SegmentedRecording(
        request=request, program=recorder.program, segments=segments,
        pipeline=pipe,
    )


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectedOpportunity:
    """A verified opportunity mapped into one phase template."""

    opportunity: OptimizationOpportunity
    phase: str
    #: anchor positions relative to the template start
    offsets: tuple[int, ...]
    #: for cross-phase fusions admitted by the translation validator:
    #: the adjacent phase holding the second anchor, and that anchor's
    #: offset within the partner phase's template
    cross_phase: str | None = None
    cross_offset: int | None = None


@dataclass
class SelectionResult:
    selected: list[SelectedOpportunity] = field(default_factory=list)
    #: ``(kind, events, reason)`` for every opportunity not taken
    skipped: list[tuple[str, tuple[int, ...], str]] = field(default_factory=list)

    def skip_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, _, reason in self.skipped:
            out[reason] = out.get(reason, 0) + 1
        return out


def _structural_reason(
    program: DirectiveProgram, opp: OptimizationOpportunity
) -> str | None:
    """Re-derive the opportunity's legality from program structure alone.

    The artifact's proofs are replayed separately; this check defends
    against malformed or tampered records *before* any replay runs, and
    encodes the hard scheduling rules: a fusion may never cross a
    ``wait`` (some other queue's producer may be ordered by it), and all
    anchors must be the kinds the transform expects.
    """
    events = program.events
    if any(i < 0 or i >= len(events) for i in opp.events + opp.remove_events):
        return "event index out of range"
    if opp.kind == "fuse-computes":
        if len(opp.events) != 2:
            return "fuse-computes needs exactly two anchors"
        a, b = (events[i] for i in opp.events)
        if a.kind != "compute" or b.kind != "compute":
            return "fuse anchor is not a compute"
        if a.queue != b.queue:
            return "fuse anchors on different queues"
        between = events[opp.events[0] + 1:opp.events[1]]
        if any(e.kind == "wait" for e in between):
            return "a wait between the computes orders another queue"
        if any(
            e.kind == "compute" and (e.wait_all or e.wait_on)
            for e in between
        ):
            return "an intervening launch carries wait clauses"
        if set(opp.remove_events) - {opp.events[1]}:
            return "fuse may only remove its second anchor"
        return None
    if opp.kind == "hoist-update":
        if any(events[i].kind != "update" for i in opp.events):
            return "hoist anchor is not an update"
        if opp.insert_at is None or not (0 <= opp.insert_at <= min(opp.events)):
            return "hoist insert point after its first anchor"
        anchors = {(events[i].var, events[i].direction) for i in opp.events}
        if len(anchors) != 1:
            return "hoist anchors disagree on array/direction"
        return None
    if opp.kind == "cancel-update-pair":
        if any(events[i].kind != "update" for i in opp.events):
            return "cancel anchor is not an update"
        if len({events[i].var for i in opp.events}) != 1:
            return "cancel anchors touch different arrays"
        return None
    return f"unknown opportunity kind '{opp.kind}'"


def _cross_phase_candidate(
    recording: SegmentedRecording,
    opp: OptimizationOpportunity,
    seg_a: Segment,
) -> Segment | None:
    """The partner segment of an adjacent-phase fusion, or None.

    A boundary-spanning fusion is a candidate for validator admission
    only under the tight geometry the proofs cover: exactly two compute
    anchors in *adjacent* segments of two *different* repeated phases,
    and that adjacency uniform — every slice of the first phase is
    immediately followed by a slice of the second, so one merged
    template plus one partner-phase variant covers every occurrence.
    """
    if opp.kind != "fuse-computes" or len(opp.events) != 2:
        return None
    ia, ib = opp.events
    if ia not in seg_a or set(opp.remove_events) - {ib}:
        return None
    seg_b = recording.segment_of(ib)
    if seg_b is None or seg_b.start != seg_a.stop:
        return None
    if seg_a.phase == seg_b.phase:
        return None
    if (
        seg_a.phase not in REPEATED_PHASES
        or seg_b.phase not in REPEATED_PHASES
    ):
        return None
    by_start = {s.start: s for s in recording.segments}
    for sa in recording.slices(seg_a.phase):
        sb = by_start.get(sa.stop)
        if sb is None or sb.phase != seg_b.phase:
            return None
    return seg_b


def _cross_phase_selection(
    recording: SegmentedRecording,
    opp: OptimizationOpportunity,
    seg_a: Segment,
    taken_offsets: dict[str, set[int]],
    seen_keys: set[tuple],
    verifier: ReplayVerifier,
) -> tuple[SelectedOpportunity | None, str]:
    """Admit one boundary-spanning fusion, or return the skip reason.

    Admission requires the translation validator's static proof *and*
    the replay re-proof on every periodic occurrence pair — the static
    proof is what unlocks the boundary, the replay stays as backstop.
    """
    from repro.analyze.framework import Severity
    from repro.compile.validate import validate_opportunity

    program = recording.program
    seg_b = _cross_phase_candidate(recording, opp, seg_a)
    if seg_b is None:
        return None, "spans a phase boundary"
    ia, ib = opp.events
    off_a, off_b = ia - seg_a.start, ib - seg_b.start
    key = (opp.kind, seg_a.phase, seg_b.phase, off_a, off_b, opp.var)
    if key in seen_keys:
        return None, "periodic duplicate of a selected template offset"
    seen_keys.add(key)
    reason = _structural_reason(program, opp)
    if reason is not None:
        return None, reason
    if (
        off_a in taken_offsets.get(seg_a.phase, set())
        or off_b in taken_offsets.get(seg_b.phase, set())
    ):
        return None, "conflicts with an already-selected opportunity"
    by_start = {s.start: s for s in recording.segments}
    for sa in recording.slices(seg_a.phase):
        sb = by_start[sa.stop]
        inst = replace(
            opp,
            events=(sa.start + off_a, sb.start + off_b),
            remove_events=(sb.start + off_b,),
            insert_at=None,
        )
        if any(
            d.severity >= Severity.ERROR
            for d in validate_opportunity(program, inst)
        ):
            return None, "refused by the translation validator"
        if not verifier.verify(inst):
            return None, "failed the replay re-proof"
    taken_offsets.setdefault(seg_a.phase, set()).add(off_a)
    taken_offsets.setdefault(seg_b.phase, set()).add(off_b)
    return SelectedOpportunity(
        opportunity=opp,
        phase=seg_a.phase,
        offsets=(off_a,),
        cross_phase=seg_b.phase,
        cross_offset=off_b,
    ), ""


def select_opportunities(
    recording: SegmentedRecording,
    opportunities: list[OptimizationOpportunity],
) -> SelectionResult:
    """Filter opportunities down to the disjoint, re-proven set the
    compiler will apply.

    Order of the gauntlet: verified flag → single-segment locality →
    repeated-phase locality → periodic dedup (template offsets) →
    structural legality → conflict-freedom within the template →
    :func:`~repro.analyze.dataflow.verify_opportunity` replay re-proof.

    Boundary-spanning fusions detour through the translation
    validator's cross-phase admission — and get *first* claim on
    template offsets, since the boundary candidates are exactly the
    ones only the static proof can unlock (a within-phase duplicate of
    the same anchor can always be re-found; the cross-phase one is
    refused forever without the proof).
    """
    program = recording.program
    result = SelectionResult()
    taken_offsets: dict[str, set[int]] = {}
    seen_keys: set[tuple] = set()
    ordered = sorted(opportunities, key=lambda o: o.events)
    # each pass re-proves in ascending order on one forward-only replay
    verifier = ReplayVerifier(program)

    def anchors_of(opp: OptimizationOpportunity) -> tuple[int, ...]:
        return opp.events + tuple(
            i for i in opp.remove_events if i not in opp.events
        )

    done: set[int] = set()
    for pos, opp in enumerate(ordered):
        if not opp.verified:
            continue
        anchors = anchors_of(opp)
        seg = recording.segment_of(anchors[0])
        if seg is None or all(i in seg for i in anchors):
            continue
        sel, reason = _cross_phase_selection(
            recording, opp, seg, taken_offsets, seen_keys, verifier
        )
        if sel is None:
            result.skipped.append((opp.kind, opp.events, reason))
        else:
            result.selected.append(sel)
        done.add(pos)

    verifier = ReplayVerifier(program, verifier.baseline)
    for pos, opp in enumerate(ordered):
        if pos in done:
            continue

        def skip(reason: str, opp=opp) -> None:
            result.skipped.append((opp.kind, opp.events, reason))

        if not opp.verified:
            skip("not verified by the dataflow engine")
            continue
        anchors = anchors_of(opp)
        seg = recording.segment_of(anchors[0])
        if seg is None or any(i not in seg for i in anchors):
            skip("spans a phase boundary")
            continue
        if seg.phase not in REPEATED_PHASES:
            skip(f"anchored in one-shot phase '{seg.phase}'")
            continue
        offsets = tuple(i - seg.start for i in opp.events)
        key = (opp.kind, seg.phase, offsets, opp.var)
        if key in seen_keys:
            skip("periodic duplicate of a selected template offset")
            continue
        seen_keys.add(key)
        reason = _structural_reason(program, opp)
        if reason is not None:
            skip(reason)
            continue
        touched = set(offsets) | {
            i - seg.start for i in opp.remove_events if i in seg
        }
        taken = taken_offsets.setdefault(seg.phase, set())
        if touched & taken:
            skip("conflicts with an already-selected opportunity")
            continue
        if not verifier.verify(opp):
            skip("failed the replay re-proof")
            continue
        taken.update(touched)
        result.selected.append(
            SelectedOpportunity(opportunity=opp, phase=seg.phase, offsets=offsets)
        )
    return result


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------
def _mini_program(meta, extents, events: list[AccEvent]) -> DirectiveProgram:
    mini = DirectiveProgram(meta)
    mini.extents = dict(extents)
    for e in events:
        mini.add(e)
    return mini


def apply_to_template(
    template: list[AccEvent],
    selections: list[SelectedOpportunity],
    program: DirectiveProgram,
) -> tuple[list[AccEvent], list[AccEvent]]:
    """Apply the phase's selected opportunities to its template.

    Returns ``(transformed_template, hoisted_events)`` — hoisted updates
    leave the per-iteration template entirely and run once in the phase
    prologue.  Application goes through the same
    :func:`~repro.analyze.dataflow.apply_opportunity` the proofs were
    checked with, in descending anchor order so earlier offsets stay
    valid as later events are removed.
    """
    mini = _mini_program(program.meta, program.extents, template)
    hoisted: list[AccEvent] = []
    ordered = sorted(selections, key=lambda s: -s.offsets[0])
    for sel in ordered:
        opp = sel.opportunity
        if opp.kind == "fuse-computes":
            local = replace(
                opp, events=sel.offsets, remove_events=(sel.offsets[1],),
                insert_at=None,
            )
            mini = apply_opportunity(mini, local)
        elif opp.kind == "hoist-update":
            hoisted.append(mini.events[sel.offsets[0]])
            # removal only: the kept update moves to the phase prologue,
            # so nothing is re-inserted into the per-iteration template
            local = replace(
                opp, kind="cancel-update-pair", events=sel.offsets,
                remove_events=sel.offsets, insert_at=None,
            )
            mini = apply_opportunity(mini, local)
        else:  # cancel-update-pair
            local = replace(
                opp, events=sel.offsets, remove_events=sel.offsets,
                insert_at=None,
            )
            mini = apply_opportunity(mini, local)
    return list(mini.events), hoisted


def _shifted_offset(
    offset: int, selections: list[SelectedOpportunity]
) -> int:
    """Map an original template offset to its position after the phase's
    within-phase selections removed events (fuse drops its second
    anchor; hoist/cancel drop all of theirs)."""
    removed: set[int] = set()
    for s in selections:
        if s.cross_phase is not None:
            continue
        if s.opportunity.kind == "fuse-computes":
            removed.add(s.offsets[1])
        else:
            removed.update(s.offsets)
    return offset - sum(1 for r in removed if r < offset)


def _apply_cross_phase(
    transformed: dict[str, list[AccEvent]],
    by_phase: dict[str, list[SelectedOpportunity]],
    cross: list[SelectedOpportunity],
) -> dict[tuple[str, str], str]:
    """Merge each cross-phase fusion's partner launch into the first
    phase's anchor and carve the partner phase's variant step without it.

    The variant (``"{pb}@after:{pa}"``) replaces the partner phase's
    step only when it immediately follows the first phase — exactly the
    adjacency the selection proved uniform.
    """
    from repro.analyze.dataflow.opportunities import _merged_compute

    cross_variants: dict[tuple[str, str], str] = {}
    groups: dict[tuple[str, str], list[SelectedOpportunity]] = {}
    for sel in cross:
        assert sel.cross_phase is not None
        groups.setdefault((sel.phase, sel.cross_phase), []).append(sel)
    for (pa, pb), sels in groups.items():
        ta = transformed[pa]
        tb = transformed[pb]
        drop: set[int] = set()
        for sel in sels:
            sa = _shifted_offset(sel.offsets[0], by_phase.get(pa, []))
            sb = _shifted_offset(sel.cross_offset, by_phase.get(pb, []))
            ta[sa] = _merged_compute(ta[sa], tb[sb])
            drop.add(sb)
        vname = f"{pb}@after:{pa}"
        transformed[vname] = [
            e for i, e in enumerate(tb) if i not in drop
        ]
        cross_variants[(pa, pb)] = vname
    return cross_variants


# ----------------------------------------------------------------------
# the compiled artifact
# ----------------------------------------------------------------------
@dataclass
class AppliedOpportunity:
    """One opportunity the compiler actually lowered, with its price."""

    kind: str
    phase: str
    offsets: tuple[int, ...]
    kernels: tuple[str, ...] = ()
    var: str | None = None
    proof: str = ""
    #: roofline/launch-model pricing of the fused launch (simulated
    #: seconds per step); empty for hoists/cancels
    modelled: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "offsets": list(self.offsets),
            "kernels": list(self.kernels),
            "var": self.var,
            "proof": self.proof,
            "modelled": dict(self.modelled),
        }


@dataclass
class CompiledPipeline:
    """An executable compiled schedule: per-phase lowered op lists.

    Never constructed unverified — :func:`compile_case` raises before
    returning one whose compiled replay is not bitwise-identical to the
    interpreted pipeline's.
    """

    request: CompileRequest
    program_sha: str
    steps: dict[str, list[LoweredOp]]
    registry: WorkloadRegistry
    plan: "TuningPlan | None"
    applied: list[AppliedOpportunity]
    skipped: list[tuple[str, tuple[int, ...], str]]
    #: per repeated phase: compute launches per iteration, before/after
    launches: dict[str, dict[str, int]]
    #: cross-phase fusions: ``(phase_a, phase_b) -> variant step name``;
    #: the variant is ``phase_b``'s step minus the launches fused into
    #: ``phase_a``'s, dispatched whenever ``phase_b`` follows ``phase_a``
    cross_variants: dict[tuple[str, str], str] = field(default_factory=dict)
    #: the translation validator's report (attached by ``compile_case``)
    validation: "object | None" = None
    verified: bool = False

    def launches_per_step(self) -> dict[str, int]:
        """Total per-iteration kernel launches across repeated phases."""
        return {
            side: sum(v[side] for v in self.launches.values())
            for side in ("interpreted", "compiled")
        }

    def bind(self, rt: "Runtime") -> "BoundPipeline":
        return BoundPipeline(self, rt)


class BoundPipeline:
    """A :class:`CompiledPipeline` bound to one live runtime."""

    def __init__(self, compiled: CompiledPipeline, rt: "Runtime"):
        self.compiled = compiled
        self.rt = rt
        self.steps: dict[str, BoundStep] = {
            phase: bind_ops(phase, ops, rt, compiled.registry, compiled.plan)
            for phase, ops in compiled.steps.items()
        }

    def run(self) -> GpuTimes:
        """Execute the full compiled schedule; same failure semantics as
        the interpreted drivers (OOM → ``failed_times('oom')``).

        Tracks the previous action so a cross-phase fusion's partner
        variant (the phase step minus the launches that moved into the
        predecessor's fused launch) fires exactly where the recording
        proved the adjacency.  Each prologue runs once, right after its
        gate action (:data:`~repro.core.schedule.PROLOGUE_GATE`), and does
        not advance the action sequence.
        """
        steps = self.steps
        variants = self.compiled.cross_variants
        after_gate = {gate: p for p, gate in PROLOGUE_GATE.items() if p in steps}
        prev: str | None = None
        for step in self.compiled.request.schedule:
            for action in step.actions:
                name = variants.get((prev, action), action)
                try:
                    steps[name if name in steps else action]()
                except DeviceOutOfMemoryError:
                    if step.kind not in RESIDENCY_STEPS:
                        raise
                    return failed_times("oom")
                prev = action
                if action in after_gate:
                    steps[after_gate[action]]()
        return self.gpu_times()

    def gpu_times(self) -> GpuTimes:
        return device_times(self.rt.device)


# ----------------------------------------------------------------------
# artifact intake
# ----------------------------------------------------------------------
def opportunities_from_artifact(
    artifact: dict, program: DirectiveProgram
) -> list[OptimizationOpportunity]:
    """Opportunities for ``program`` out of a deps artifact, gated on the
    program hash.  Raises :class:`StaleArtifactError` when no entry's
    ``program_sha`` matches — the proofs do not describe this schedule.
    """
    validate_opportunities(artifact)
    sha = program.sha()
    shas_seen = []
    for entry in artifact.get("programs", []):
        entry_sha = entry.get("program_sha")
        shas_seen.append(f"{entry.get('name')}: {entry_sha or '<none>'}")
        if entry_sha != sha:
            continue
        return [
            OptimizationOpportunity(
                kind=o["kind"],
                events=tuple(o["events"]),
                var=o.get("var"),
                kernels=tuple(o.get("kernels", ())),
                queue=o.get("queue"),
                proof=o.get("proof", ""),
                savings=dict(o.get("savings", {})),
                remove_events=tuple(o.get("remove_events", ())),
                insert_at=o.get("insert_at"),
                verified=bool(o.get("verified", False)),
            )
            for o in entry.get("opportunities", [])
        ]
    raise StaleArtifactError(
        f"opportunities artifact is stale for '{program.meta.name}': no "
        f"entry matches program sha {sha[:12]}… (artifact has: "
        f"{'; '.join(shas_seen) or 'no programs'}). Re-record it with "
        f"'python -m repro deps all --opportunities FILE' at the same nt."
    )


# ----------------------------------------------------------------------
# the compiler entry point
# ----------------------------------------------------------------------
def compile_case(
    request: CompileRequest,
    options: GPUOptions | None = None,
    platform: Platform = CRAY_K40,
    plan: "TuningPlan | None" = None,
    artifact: dict | None = None,
) -> CompiledPipeline:
    """Lower one case's recorded schedule into a verified
    :class:`CompiledPipeline`.

    ``artifact`` supplies pre-proven opportunities (``repro deps
    --opportunities``); without it the dataflow engine runs in-process
    with verification on.  ``plan`` (or ``options.plan``) is honoured
    exactly as the interpreted launch path honours it.  Raises
    :class:`CompileError` — including :class:`StaleArtifactError` — on
    any failure to prove equivalence; the returned object always has
    ``verified=True``.
    """
    base = options if options is not None else GPUOptions()
    if plan is not None:
        base = options_with_plan(base, plan)
    active_plan = base.plan

    recording = record_segments(request, base, platform)
    program = recording.program
    sha = program.sha()
    if artifact is not None:
        opportunities = opportunities_from_artifact(artifact, program)
    else:
        opportunities = find_opportunities(program, verify=True).opportunities

    selection = select_opportunities(recording, opportunities)
    cross = [s for s in selection.selected if s.cross_phase is not None]
    by_phase: dict[str, list[SelectedOpportunity]] = {}
    for sel in selection.selected:
        if sel.cross_phase is None:
            by_phase.setdefault(sel.phase, []).append(sel)

    transformed_by_phase: dict[str, list[AccEvent]] = {}
    launches: dict[str, dict[str, int]] = {}
    prologues: dict[str, list[AccEvent]] = {}
    for phase in PHASE_ORDER:
        template = recording.template(phase)
        if not template and phase not in ("allocate", "finalize"):
            continue
        transformed, hoisted = apply_to_template(
            template, by_phase.get(phase, []), program
        )
        if hoisted:
            prologues.setdefault(PROLOGUE_OF[phase], []).extend(hoisted)
        if phase in REPEATED_PHASES:
            launches[phase] = {
                "interpreted": sum(1 for e in template if e.kind == "compute"),
                "compiled": sum(1 for e in transformed if e.kind == "compute"),
            }
        transformed_by_phase[phase] = transformed
    cross_variants = _apply_cross_phase(transformed_by_phase, by_phase, cross)

    steps: dict[str, list[LoweredOp]] = {
        phase: lower_events(events, program.extents)
        for phase, events in transformed_by_phase.items()
    }
    for name, events in prologues.items():
        steps[name] = lower_events(events, program.extents)

    registry = WorkloadRegistry.from_pipeline(recording.pipeline)
    applied = [
        _applied_record(sel, recording, registry) for sel in selection.selected
    ]
    compiled = CompiledPipeline(
        request=request,
        program_sha=sha,
        steps=steps,
        registry=registry,
        plan=active_plan,
        applied=applied,
        skipped=selection.skipped,
        launches=launches,
        cross_variants=cross_variants,
    )
    _validate_compiled_or_raise(compiled, recording)
    _verify_compiled(compiled, base, platform, program)
    return compiled


def _validate_compiled_or_raise(
    compiled: CompiledPipeline, recording: SegmentedRecording
) -> None:
    """The pre-replay gate: run the translation validator and refuse any
    ERROR finding before the bitwise backstop even starts.  The report is
    attached to the pipeline either way (``compiled.validation``)."""
    from repro.analyze.framework import Severity
    from repro.compile.validate import validate_compiled

    report = validate_compiled(compiled, recording)
    compiled.validation = report
    if not report.ok:
        errors = [
            d for d in report.diagnostics if d.severity >= Severity.ERROR
        ]
        raise CompileError(
            f"translation validation of {compiled.request.name} failed "
            f"with {len(errors)} error(s): "
            + "; ".join(f"[{d.rule}] {d.message}" for d in errors[:3])
        )


def _applied_record(
    sel: SelectedOpportunity,
    recording: SegmentedRecording,
    registry: WorkloadRegistry,
) -> AppliedOpportunity:
    """Build the applied record, pricing fusions with the roofline/launch
    model (:func:`repro.optim.fused_launch_estimate`): one launch
    overhead instead of N, register pressure merged under the effective
    maxregcount."""
    opp = sel.opportunity
    if sel.cross_phase is not None:
        phase = f"{sel.phase}->{sel.cross_phase}"
        offsets = (sel.offsets[0], sel.cross_offset)
    else:
        phase, offsets = sel.phase, sel.offsets
    record = AppliedOpportunity(
        kind=opp.kind,
        phase=phase,
        offsets=offsets,
        kernels=opp.kernels,
        var=opp.var,
        proof=opp.proof,
    )
    if opp.kind == "fuse-computes" and len(opp.kernels) >= 2:
        from repro.gpusim.specs import CUDA_5_0

        rt = recording.pipeline.rt
        try:
            parts = [registry.resolve(k) for k in opp.kernels]
            est = fused_launch_estimate(
                rt.device.spec,
                parts,
                maxregcount=getattr(rt.flags, "maxregcount", None),
                toolkit=getattr(rt.device, "toolkit", CUDA_5_0),
            )
        except CompileError:
            return record
        record.modelled = {
            "fused_seconds": est.fused_seconds,
            "unfused_seconds": est.unfused_seconds,
            "saved_seconds": est.saved_seconds,
            "effective_maxregcount": (
                float(est.effective_maxregcount)
                if est.effective_maxregcount is not None else -1.0
            ),
            # proven launch bounds the capacity prover also derives —
            # the roofline pricing carries them so reports can compare
            # static occupancy/spill predictions against the trace
            "occupancy": est.fused.occupancy,
            "spilled_regs": float(est.fused.spilled_regs),
        }
    return record


def _verify_compiled(
    compiled: CompiledPipeline,
    options: GPUOptions,
    platform: Platform,
    interpreted: DirectiveProgram,
) -> None:
    """The bitwise gate: run the compiled schedule under a recorder on a
    fresh runtime and demand fingerprint equality with the interpreted
    program.  Mutates ``compiled.verified`` on success."""
    rt = _build_runtime(options, platform)
    recorder = ProgramRecorder(name=f"{compiled.request.name}-compiled")
    rt.attach_recorder(recorder)
    bound = compiled.bind(rt)
    times = bound.run()
    if not times.success:
        raise CompileError(
            f"compiled replay of {compiled.request.name} failed "
            f"({times.failure}) where the interpreter succeeded"
        )
    expect = replay_fingerprint(interpreted)
    got = replay_fingerprint(recorder.program)
    if expect != got:
        raise CompileError(
            f"compiled step for {compiled.request.name} is NOT bitwise-"
            f"identical to the interpreted pipeline (fingerprint mismatch "
            f"after applying {len(compiled.applied)} opportunities); "
            f"refusing to use it"
        )
    compiled.verified = True


__all__ = [
    "PHASE_ORDER",
    "REPEATED_PHASES",
    "CompileRequest",
    "Segment",
    "SegmentedRecording",
    "SelectedOpportunity",
    "SelectionResult",
    "AppliedOpportunity",
    "CompiledPipeline",
    "BoundPipeline",
    "record_segments",
    "select_opportunities",
    "apply_to_template",
    "opportunities_from_artifact",
    "compile_case",
]
