"""Translation validation: static proofs that a compiled schedule
simulates the recorded program.

The compiler (:mod:`repro.compile.compiler`) historically had exactly one
safety argument: bitwise replay.  That gate is sound but blind — it can
only *refuse* what it cannot replay, so every cross-phase fusion was
skipped.  This module adds the missing static half: a
simulation relation between the lowered per-phase op lists of a
:class:`~repro.compile.compiler.CompiledPipeline` and the recorded
:class:`~repro.analyze.program.DirectiveProgram`, checked obligation by
obligation against the dependence graph
(:class:`~repro.analyze.dataflow.graph.DependenceGraph`).

Proof obligations, each with its ``DF2xx`` rule
(:mod:`repro.analyze.rules`):

``DF201`` *dependence-edge-not-preserved*
    every RAW/WAR/WAW edge of the phase template must map to
    order-preserving positions in the lowered op list, and no fusion may
    collapse a synchronisation edge (a ``wait`` between the anchors, a
    wait clause on an intervening launch, or anchors on different
    queues).
``DF202`` *hoist-not-dominated*
    a hoisted update's one-time prologue copy must be dominated by the
    last writer of its array: no event between the insertion point and
    the final original anchor may write the array.
``DF203`` *fused-access-overlap*
    the moved half of a fused kernel carries its access set past every
    intervening event; any read/write conflict on the way refutes the
    fusion.

:func:`validate_opportunity` checks one opportunity on one program (the
unit the cross-check tests compare against replay verification);
:func:`validate_compiled` discharges the whole pipeline's obligations and
is wired into :func:`~repro.compile.compiler.compile_case` as a
pre-replay gate.  The replay gate stays as the backstop: the validator is
strictly more conservative, never admitting what replay rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analyze.dataflow.graph import DependenceGraph
from repro.analyze.framework import Diagnostic, Severity
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.analyze.rules import rule
from repro.core.schedule import PROLOGUE_GATE, PROLOGUE_OF, REPEATED_PHASES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.dataflow.opportunities import OptimizationOpportunity
    from repro.compile.compiler import CompiledPipeline, SegmentedRecording

PASS_NAME = "translation-validate"


def _accesses(event: AccEvent) -> dict[str, str]:
    """Conservative access set folded per array: ``'w'`` wins over ``'r'``."""
    out: dict[str, str] = {}
    for name, how in event.accesses(conservative=True):
        if name is None:
            continue
        if how == "w" or out.get(name) != "w":
            out[name] = how
    return out


def _diag(key: str, *, event_index=None, var=None, kernel=None,
          witness=(), **fields) -> Diagnostic:
    r = rule(key)
    fmt = dict(fields)
    fmt.setdefault("var", var)
    fmt.setdefault("kernel", kernel)
    return Diagnostic(
        pass_name=PASS_NAME,
        rule=r.static_rule,
        severity=r.severity,
        message=r.format(**fmt),
        event_index=event_index,
        var=var,
        kernel=kernel,
        witness=tuple(witness),
    )


# ----------------------------------------------------------------------
# per-opportunity proofs
# ----------------------------------------------------------------------
def _fuse_diags(
    program: DirectiveProgram, opp: "OptimizationOpportunity"
) -> list[Diagnostic]:
    events = program.events
    ia, ib = opp.events[0], opp.events[1]
    a, b = events[ia], events[ib]
    merged = "+".join(k for k in (a.kernel, b.kernel) if k) or "fused"
    diags: list[Diagnostic] = []
    if a.queue != b.queue:
        diags.append(_diag(
            "dependence-edge-not-preserved",
            kind="order", var=b.kernel or "compute", src=ia, dst=ib,
            detail=(
                f"the anchors sit on queues {a.queue} and {b.queue}; "
                f"fusing serialises two independent queue timelines"
            ),
            event_index=ib, kernel=merged, witness=(ia, ib),
        ))
    # the fusion moves b's body up to a's position: every event between
    # the anchors is reordered past b's access set, and any ordering
    # construct between them is an edge the move would collapse
    moved = _accesses(b)
    for e in events[ia + 1:ib]:
        if e.kind == "wait":
            diags.append(_diag(
                "dependence-edge-not-preserved",
                kind="order", var=b.kernel or "compute", src=ia, dst=ib,
                detail=(
                    f"a wait at event {e.index} joins another queue "
                    f"between the fused pair"
                ),
                event_index=e.index, kernel=merged,
                witness=(ia, e.index, ib),
            ))
            continue
        if e.kind == "compute" and (e.wait_all or e.wait_on):
            diags.append(_diag(
                "dependence-edge-not-preserved",
                kind="order", var=e.kernel or "compute", src=ia, dst=ib,
                detail=(
                    f"launch '{e.kernel}' at event {e.index} carries wait "
                    f"clauses the fusion would hoist past"
                ),
                event_index=e.index, kernel=merged,
                witness=(ia, e.index, ib),
            ))
        for name, how in _accesses(e).items():
            bh = moved.get(name)
            if bh is None:
                continue
            if how == "w" or bh == "w":
                diags.append(_diag(
                    "fused-access-overlap",
                    kernel=merged, var=name, idx=e.index,
                    detail=(
                        f"{e.kind} {'writes' if how == 'w' else 'reads'} "
                        f"'{name}' which the moved launch "
                        f"{'writes' if bh == 'w' else 'reads'}"
                    ),
                    event_index=e.index, witness=(ia, e.index, ib),
                ))
    return diags


def _hoist_diags(
    program: DirectiveProgram, opp: "OptimizationOpportunity"
) -> list[Diagnostic]:
    events = program.events
    first = events[opp.events[0]]
    var = opp.var or first.var
    start = opp.insert_at if opp.insert_at is not None else opp.events[0]
    stop = max(opp.events)
    anchors = set(opp.events)
    diags: list[Diagnostic] = []
    for e in events[start + 1:stop + 1]:
        if e.index in anchors:
            continue
        if _accesses(e).get(var) == "w":
            diags.append(_diag(
                "hoist-not-dominated",
                direction=first.direction, var=var, idx=opp.events[0],
                detail=f"{e.kind} of '{var}' at event {e.index}",
                event_index=e.index,
                witness=(start, e.index, *sorted(anchors)),
            ))
    return diags


def _cancel_diags(
    program: DirectiveProgram, opp: "OptimizationOpportunity"
) -> list[Diagnostic]:
    events = program.events
    i, j = min(opp.events), max(opp.events)
    var = opp.var or events[i].var
    diags: list[Diagnostic] = []
    for e in events[i + 1:j]:
        how = _accesses(e).get(var)
        if how is None:
            continue
        diags.append(_diag(
            "dependence-edge-not-preserved",
            kind="waw" if how == "w" else "raw", var=var, src=i, dst=j,
            detail=(
                f"event {e.index} ({e.kind}) "
                f"{'writes' if how == 'w' else 'reads'} '{var}' between "
                f"the cancelled update pair"
            ),
            event_index=e.index, witness=(i, e.index, j),
        ))
    return diags


def validate_opportunity(
    program: DirectiveProgram, opp: "OptimizationOpportunity"
) -> list[Diagnostic]:
    """Statically prove one opportunity legal on ``program``.

    Returns the refuting ``DF201``-``DF203`` diagnostics — empty means
    admitted.  Strictly more conservative than
    :func:`~repro.analyze.dataflow.verify_opportunity`'s shadow replay:
    whatever the replay rejects, this refuses too (the cross-check suite
    asserts that direction on the forged fixtures).
    """
    n = len(program.events)
    if any(i < 0 or i >= n for i in opp.events + tuple(opp.remove_events)):
        return [_diag(
            "dependence-edge-not-preserved",
            kind="order", var=opp.var or "?",
            src=min(opp.events, default=0), dst=max(opp.events, default=0),
            detail="an anchor index is outside the program",
        )]
    if opp.kind == "fuse-computes":
        return _fuse_diags(program, opp)
    if opp.kind == "hoist-update":
        return _hoist_diags(program, opp)
    if opp.kind == "cancel-update-pair":
        return _cancel_diags(program, opp)
    return [_diag(
        "dependence-edge-not-preserved",
        kind="order", var=opp.var or "?",
        src=opp.events[0], dst=opp.events[-1],
        detail=f"unknown opportunity kind '{opp.kind}'",
    )]


# ----------------------------------------------------------------------
# whole-pipeline validation
# ----------------------------------------------------------------------
@dataclass
class ValidationReport:
    """The validator's verdict for one compiled pipeline."""

    name: str
    program_sha: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: proof obligations discharged (instances checked + edges mapped)
    obligations: int = 0

    @property
    def ok(self) -> bool:
        return not any(
            d.severity >= Severity.ERROR for d in self.diagnostics
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "program_sha": self.program_sha,
            "ok": self.ok,
            "obligations": self.obligations,
            "diagnostics": [
                {
                    "rule": d.rule, "severity": d.severity.name.lower(),
                    "message": d.message, "event": d.event_index,
                    "witness": list(d.witness),
                }
                for d in self.diagnostics
            ],
        }


def _instance_opportunities(
    recording: "SegmentedRecording", rec
) -> tuple[list["OptimizationOpportunity"], list[Diagnostic]]:
    """Expand one applied record into per-occurrence opportunities with
    absolute anchors — every periodic instance carries its own proof."""
    from repro.analyze.dataflow.opportunities import OptimizationOpportunity

    program = recording.program
    out: list[OptimizationOpportunity] = []
    diags: list[Diagnostic] = []
    if "->" in rec.phase:
        pa, pb = rec.phase.split("->", 1)
        by_start = {s.start: s for s in recording.segments}
        for sa in recording.slices(pa):
            sb = by_start.get(sa.stop)
            if sb is None or sb.phase != pb:
                diags.append(_diag(
                    "dependence-edge-not-preserved",
                    kind="order", var=rec.var or "+".join(rec.kernels),
                    src=sa.start, dst=sa.stop,
                    detail=(
                        f"'{pa}' slice at event {sa.start} is not followed "
                        f"by a '{pb}' slice — the cross-phase fusion has no "
                        f"partner there"
                    ),
                    event_index=sa.start,
                ))
                continue
            ia, ib = sa.start + rec.offsets[0], sb.start + rec.offsets[1]
            out.append(OptimizationOpportunity(
                kind="fuse-computes", events=(ia, ib), var=rec.var,
                kernels=rec.kernels, remove_events=(ib,), verified=True,
            ))
        return out, diags
    slices = recording.slices(rec.phase)
    if rec.kind == "hoist-update":
        # one global obligation: the prologue copy must be dominated all
        # the way from its injection point to the last original anchor
        anchors = tuple(
            s.start + off for s in slices for off in rec.offsets
        )
        gates = recording.slices(PROLOGUE_GATE[PROLOGUE_OF[rec.phase]])
        insert = gates[0].stop - 1 if gates else slices[0].start
        out.append(OptimizationOpportunity(
            kind="hoist-update", events=anchors, var=rec.var,
            remove_events=anchors, insert_at=insert, verified=True,
        ))
        return out, diags
    for s in slices:
        events = tuple(s.start + off for off in rec.offsets)
        if rec.kind == "fuse-computes":
            out.append(OptimizationOpportunity(
                kind="fuse-computes", events=events, var=rec.var,
                kernels=rec.kernels, remove_events=(events[1],),
                verified=True,
            ))
        else:
            out.append(OptimizationOpportunity(
                kind="cancel-update-pair", events=events, var=rec.var,
                remove_events=events, verified=True,
            ))
    return out, diags


def _phase_facts(compiled: "CompiledPipeline", phase: str):
    """(removed offsets, fused offset -> kernel name) for one phase."""
    removed: set[int] = set()
    fused: dict[int, str] = {}
    partner: dict[int, int] = {}
    for rec in compiled.applied:
        if "->" in rec.phase:
            pa, _ = rec.phase.split("->", 1)
            if pa == phase:
                fused[rec.offsets[0]] = "+".join(rec.kernels)
            continue
        if rec.phase != phase:
            continue
        if rec.kind == "fuse-computes":
            fused[rec.offsets[0]] = "+".join(rec.kernels)
            removed.add(rec.offsets[1])
            partner[rec.offsets[1]] = rec.offsets[0]
        else:
            removed.update(rec.offsets)
    return removed, fused, partner


def _simulate_phase(
    compiled: "CompiledPipeline",
    phase: str,
    template: list[AccEvent],
    program: DirectiveProgram,
) -> tuple[list[Diagnostic], int]:
    """The simulation relation for one repeated phase: the lowered op
    list must be the template minus removed offsets, with fused anchors
    renamed, in order — and every dependence edge of the template must
    map to order-preserving lowered positions."""
    from repro.compile.compiler import _mini_program
    from repro.compile.lower import lower_events

    diags: list[Diagnostic] = []
    obligations = 0
    removed, fused, partner = _phase_facts(compiled, phase)
    ops = compiled.steps.get(phase, [])

    posmap: dict[int, int | None] = {}
    expected: list[tuple[int, AccEvent]] = []
    for off, e in enumerate(template):
        if off in removed:
            posmap[off] = None
            continue
        posmap[off] = len(expected)
        expected.append((off, e))
    if len(ops) != len(expected):
        diags.append(_diag(
            "dependence-edge-not-preserved",
            kind="order", var=phase, src=0, dst=len(template),
            detail=(
                f"phase '{phase}' lowered to {len(ops)} ops but the "
                f"transformed template has {len(expected)} events"
            ),
        ))
        return diags, obligations
    for pos, (off, e) in enumerate(expected):
        obligations += 1
        op = ops[pos]
        if off in fused:
            if op.kind != "compute" or op.kernel != fused[off]:
                diags.append(_diag(
                    "dependence-edge-not-preserved",
                    kind="order", var=e.kernel or phase, src=off, dst=off,
                    detail=(
                        f"offset {off} should lower to fused launch "
                        f"'{fused[off]}' but op {pos} is "
                        f"{op.kind} '{op.kernel}'"
                    ),
                    kernel=fused[off],
                ))
            continue
        if lower_events([e], program.extents)[0] != op:
            diags.append(_diag(
                "dependence-edge-not-preserved",
                kind="order", var=e.var or e.kernel or phase,
                src=off, dst=off,
                detail=(
                    f"op {pos} of phase '{phase}' does not lower the "
                    f"template event at offset {off} ({e.kind})"
                ),
            ))

    # dependence preservation over the template's own graph
    mini = _mini_program(program.meta, program.extents, template)
    graph = DependenceGraph.from_program(mini)
    for edge in graph.dependences():
        i, j = edge.src[1], edge.dst[1]
        pi = posmap.get(i)
        if pi is None and i in partner:
            pi = posmap.get(partner[i])
        pj = posmap.get(j)
        if pj is None and j in partner:
            pj = posmap.get(partner[j])
        if pi is None or pj is None:
            # the endpoint was hoisted/cancelled away — its legality is
            # discharged by that selection's own DF202/DF201 obligation
            continue
        obligations += 1
        if pi > pj:
            diags.append(_diag(
                "dependence-edge-not-preserved",
                kind=edge.kind, var=edge.var, src=i, dst=j,
                detail=(
                    f"phase '{phase}' lowers the producer to position "
                    f"{pi} after the consumer at {pj}"
                ),
                witness=(i, j),
            ))
    return diags, obligations


def _check_cross_variants(
    compiled: "CompiledPipeline",
) -> tuple[list[Diagnostic], int]:
    """Each cross-phase variant step must be the partner phase's base
    step with exactly the fused-away launches removed."""
    diags: list[Diagnostic] = []
    obligations = 0
    for (pa, pb), vname in compiled.cross_variants.items():
        obligations += 1
        base = list(compiled.steps.get(pb, []))
        variant = list(compiled.steps.get(vname, []))
        gone = [
            r.kernels[-1] for r in compiled.applied
            if r.phase == f"{pa}->{pb}"
        ]
        expected = list(base)
        for kernel in gone:
            hit = next(
                (k for k, op in enumerate(expected)
                 if op.kind == "compute" and op.kernel == kernel),
                None,
            )
            if hit is None:
                diags.append(_diag(
                    "dependence-edge-not-preserved",
                    kind="order", var=kernel, src=0, dst=0,
                    detail=(
                        f"variant '{vname}' should drop launch '{kernel}' "
                        f"but the base '{pb}' step never launches it"
                    ),
                    kernel=kernel,
                ))
                break
            expected.pop(hit)
        else:
            if expected != variant:
                diags.append(_diag(
                    "dependence-edge-not-preserved",
                    kind="order", var=vname, src=0, dst=0,
                    detail=(
                        f"variant '{vname}' is not the '{pb}' step minus "
                        f"the fused launches ({len(variant)} ops vs "
                        f"{len(expected)} expected)"
                    ),
                ))
    return diags, obligations


def validate_compiled(
    compiled: "CompiledPipeline", recording: "SegmentedRecording"
) -> ValidationReport:
    """Discharge every proof obligation of a compiled pipeline.

    Three obligation families: (1) each applied opportunity re-proven on
    *every* periodic instance via :func:`validate_opportunity`; (2) the
    per-phase simulation relation between lowered ops and the recorded
    template, with dependence-edge preservation over the template graph;
    (3) cross-phase variant structure.  ``compile_case`` runs this as a
    pre-replay gate and refuses any ERROR finding.
    """
    program = recording.program
    report = ValidationReport(
        name=compiled.request.name, program_sha=compiled.program_sha
    )
    for rec in compiled.applied:
        instances, diags = _instance_opportunities(recording, rec)
        report.diagnostics.extend(diags)
        for inst in instances:
            report.obligations += 1
            report.diagnostics.extend(validate_opportunity(program, inst))
    for phase in REPEATED_PHASES:
        template = recording.template(phase)
        if not template:
            continue
        diags, n = _simulate_phase(compiled, phase, template, program)
        report.diagnostics.extend(diags)
        report.obligations += n
    diags, n = _check_cross_variants(compiled)
    report.diagnostics.extend(diags)
    report.obligations += n
    return report


__all__ = [
    "PASS_NAME",
    "ValidationReport",
    "validate_opportunity",
    "validate_compiled",
]
