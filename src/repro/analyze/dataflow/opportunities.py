"""OptimizationOpportunity records: fusion / hoisting / cancellation facts.

The contract between the dataflow engine, the fused-kernel compiler
(:mod:`repro.compile`, which re-verifies and then *executes* these
records) and :mod:`repro.optim.transformations`: every record names the events
involved, the legality proof, and — decisively — carries a
machine-checked verification: :func:`apply_opportunity` produces the
transformed event schedule and :func:`verify_opportunity` replays both
schedules through the sanitizer's shadow state, requiring the final
per-array dirty intervals and the diagnostic set to be *identical*. An
opportunity that fails replay is reported with ``verified: false`` and
must not be applied.

Three kinds:

``fuse-computes``
    two adjacent compute launches (no compute between, same queue) with
    no intervening dependence into the second — one launch instead of
    two; the proof is the empty ``dependences_between`` query.
``hoist-update``
    an ``update`` inside the detected time loop whose array no other
    body event touches on either side — the transfer is loop-invariant
    and moves above the loop, saving ``(reps - 1)`` transfers.
``cancel-update-pair``
    an ``update host`` / ``update device`` pair over one array where the
    steady-state fixpoint proves both transfers clear zero dirty bytes
    and nothing touches the array between them — both are dead traffic.

The JSON serialization is schema-versioned (:data:`OPPORTUNITY_SCHEMA`)
and validated by :func:`validate_opportunities` (a dependency-free
draft-07 subset checker) — CI asserts the emitted artifact validates.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from repro.analyze.dataflow.absint import CoherenceSummary, interpret_program
from repro.analyze.dataflow.graph import DependenceGraph, LoopRegion
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.sanitize.shadow import normalize

#: schema version of the opportunities artifact
OPPORTUNITY_SCHEMA_VERSION = 1

#: maximum event gap between two computes still considered "adjacent"
_FUSE_GAP = 8

KINDS = ("fuse-computes", "hoist-update", "cancel-update-pair")


@dataclass
class OptimizationOpportunity:
    """One legal (candidate) schedule transformation."""

    kind: str
    #: anchor events in the original program (fuse: the two computes;
    #: hoist/cancel: the update event(s))
    events: tuple[int, ...]
    var: str | None = None
    kernels: tuple[str, ...] = ()
    queue: int | None = None
    #: human-readable legality argument
    proof: str = ""
    #: estimated steady-state savings (launches and/or bytes)
    savings: dict[str, float] = field(default_factory=dict)
    #: events the transform deletes (includes periodic repeats)
    remove_events: tuple[int, ...] = ()
    #: hoist: program position the kept update moves to
    insert_at: int | None = None
    #: replay check passed: transformed schedule is state- and
    #: diagnostic-identical to the original
    verified: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "events": list(self.events),
            "var": self.var,
            "kernels": list(self.kernels),
            "queue": self.queue,
            "proof": self.proof,
            "savings": dict(self.savings),
            "remove_events": list(self.remove_events),
            "insert_at": self.insert_at,
            "verified": self.verified,
        }


@dataclass
class OpportunityReport:
    """All opportunities found in one program."""

    name: str
    case: str | None = None
    mode: str | None = None
    #: :meth:`DirectiveProgram.sha` of the program the opportunities were
    #: proven on — consumers (``repro compile``) refuse artifacts whose
    #: hash no longer matches the re-recorded program (fail closed).
    program_sha: str | None = None
    opportunities: list[OptimizationOpportunity] = field(default_factory=list)

    def verified(self) -> list[OptimizationOpportunity]:
        return [o for o in self.opportunities if o.verified]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "case": self.case,
            "mode": self.mode,
            "program_sha": self.program_sha,
            "opportunities": [o.to_json() for o in self.opportunities],
        }


def reports_to_json(reports: list[OpportunityReport]) -> dict:
    """The schema-versioned ``--opportunities`` artifact document.

    One entry per recorded program; each entry carries the program's
    content hash (``program_sha``), which :mod:`repro.compile` compares
    against its own re-recording before trusting any proof.
    """
    return {
        "schema": OPPORTUNITY_SCHEMA_VERSION,
        "programs": [r.to_json() for r in reports],
    }


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
def _involved(e: AccEvent) -> set[str]:
    """Every array an event touches, on either side of the bus."""
    names = {n for n, _ in e.accesses(conservative=True)}
    names.update(e.writes)
    names.update(e.reads)
    if e.var is not None:
        names.add(e.var)
    names.update(e.copyin + e.create + e.delete + e.copyout)
    names.discard(None)  # type: ignore[arg-type]
    return names


def _canonical_mask(n: int, regions: list[LoopRegion]) -> list[bool]:
    """True for events outside any loop or in a loop's *first* iteration —
    the one copy of each periodic event opportunities anchor to."""
    mask = [True] * n
    for r in regions:
        for i in range(r.start + r.period, r.stop):
            mask[i] = False
    return mask


def _region_of(regions: list[LoopRegion], idx: int) -> LoopRegion | None:
    for r in regions:
        if r.start <= idx < r.stop:
            return r
    return None


def _repeats(region: LoopRegion | None, idx: int) -> tuple[int, ...]:
    """``idx`` and its periodic copies across the region's iterations."""
    if region is None:
        return (idx,)
    body_pos = (idx - region.start) % region.period
    return tuple(
        region.start + body_pos + k * region.period
        for k in range(region.reps)
    )


def find_opportunities(
    program: DirectiveProgram,
    graph: DependenceGraph | None = None,
    summary: CoherenceSummary | None = None,
    verify: bool = True,
) -> OpportunityReport:
    """Scan one program for fusion / hoist / cancellation opportunities,
    replay-verifying each candidate unless ``verify`` is False."""
    graph = graph if graph is not None else DependenceGraph.from_program(program)
    summary = summary if summary is not None else interpret_program(program)
    regions = summary.regions
    events = program.events
    mask = _canonical_mask(len(events), regions)
    report = OpportunityReport(name=program.meta.name)

    report.opportunities.extend(_find_fusions(program, graph, regions, mask))
    report.opportunities.extend(_find_hoists(program, regions))
    report.opportunities.extend(_find_cancels(program, summary, regions, mask))
    if verify and report.opportunities:
        verdicts = verify_opportunities(program, report.opportunities)
        for opp, verified in zip(report.opportunities, verdicts):
            opp.verified = verified
    return report


def _find_fusions(program, graph, regions, mask):
    out = []
    computes = program.computes()
    for a, b in zip(computes, computes[1:]):
        if not (mask[a.index] and mask[b.index]):
            continue
        if b.index - a.index > _FUSE_GAP:
            continue
        if a.queue != b.queue:
            continue
        between = program.events[a.index + 1:b.index]
        # a wait between the pair is a cross-queue barrier: hoisting b
        # above it could unorder b against other queues' in-flight work,
        # which shadow replay cannot observe
        if any(x.kind == "wait" for x in between):
            continue
        blockers = graph.dependences_between(a.index, b.index)
        if blockers:
            continue
        region = _region_of(regions, a.index)
        reps = region.reps if (
            region is not None and _region_of(regions, b.index) is region
        ) else 1
        gap = b.index - a.index - 1
        out.append(OptimizationOpportunity(
            kind="fuse-computes",
            events=(a.index, b.index),
            kernels=tuple(k for k in (a.kernel, b.kernel) if k),
            queue=a.queue,
            proof=(
                f"computes {a.index} and {b.index} share queue "
                f"{'sync' if a.queue is None else a.queue} with "
                f"{gap} event(s) between and no dependence edge from any "
                f"of them into {b.index}"
            ),
            savings={"launches": float(reps)},
            remove_events=(b.index,),
        ))
    return out


def _find_hoists(program, regions):
    out = []
    events = program.events
    for region in regions:
        body = list(region.body())
        for idx in body:
            e = events[idx]
            if e.kind != "update" or e.var is None:
                continue
            touched = False
            for other in body:
                if other == idx:
                    continue
                if e.var in _involved(events[other]):
                    touched = True
                    break
            if touched:
                continue
            nbytes = e.nbytes if e.nbytes is not None else (
                program.extents.get(e.var, 0)
            )
            out.append(OptimizationOpportunity(
                kind="hoist-update",
                events=(idx,),
                var=e.var,
                queue=e.queue,
                proof=(
                    f"update {e.direction}({e.var}) at {idx} is "
                    f"loop-invariant: no other event in the {region.period}"
                    f"-event body touches '{e.var}' on either side"
                ),
                savings={
                    "transfers": float(region.reps - 1),
                    "bytes": float((nbytes or 0) * (region.reps - 1)),
                },
                remove_events=_repeats(region, idx),
                insert_at=region.start,
            ))
    return out


def _find_cancels(program, summary, regions, mask):
    out = []
    events = program.events
    dead = {
        idx for idx, f in summary.facts.items()
        if events[idx].kind == "update"
        and f.get("host_dirty_cleared", 0) == 0
        and f.get("dev_dirty_cleared", 0) == 0
    }
    by_var: dict[str, list[int]] = {}
    for idx in sorted(dead):
        if mask[idx] and events[idx].var is not None:
            by_var.setdefault(events[idx].var, []).append(idx)
    for var, idxs in by_var.items():
        for i, j in zip(idxs, idxs[1:]):
            a, b = events[i], events[j]
            if {a.direction, b.direction} != {"host", "device"}:
                continue
            if any(
                var in _involved(events[k]) for k in range(i + 1, j)
            ):
                continue
            removed = (
                _repeats(_region_of(regions, i), i)
                + _repeats(_region_of(regions, j), j)
            )
            out.append(OptimizationOpportunity(
                kind="cancel-update-pair",
                events=(i, j),
                var=var,
                proof=(
                    f"fixpoint proves update {a.direction}({var}) at {i} "
                    f"and update {b.direction}({var}) at {j} each clear 0 "
                    f"dirty bytes in steady state, and no event between "
                    f"them touches '{var}'"
                ),
                savings={
                    "transfers": float(len(removed)),
                    "bytes": float(sum(
                        events[k].nbytes
                        or program.extents.get(var, 0) or 0
                        for k in removed
                    )),
                },
                remove_events=tuple(sorted(set(removed))),
            ))
    return out


# ----------------------------------------------------------------------
# transformation + replay verification
# ----------------------------------------------------------------------
def _merged_compute(a: AccEvent, b: AccEvent) -> AccEvent:
    kernel = "+".join(k for k in (a.kernel, b.kernel) if k) or a.kernel
    return replace(
        a,
        kernel=kernel,
        reads=tuple(dict.fromkeys(a.reads + b.reads)),
        writes=tuple(dict.fromkeys(a.writes + b.writes)),
        writes_known=a.writes_known and b.writes_known,
        wait_on=tuple(dict.fromkeys(a.wait_on + b.wait_on)),
        wait_all=a.wait_all or b.wait_all,
        regs_demand=max(
            (r for r in (a.regs_demand, b.regs_demand) if r is not None),
            default=None,
        ),
    )


def _transformed_events(
    program: DirectiveProgram,
    opp: OptimizationOpportunity,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[AccEvent]:
    """The transformed schedule as a stream over the original program
    positions ``[start, stop)``: the original event objects in their new
    order, plus one merged compute for a fusion. Nothing is re-indexed.
    Positions are indices, since :meth:`DirectiveProgram.add` numbers
    every event by its position. A ``start`` at or before the first
    change (:func:`_changed_span`) yields exactly the transformed events
    from that position on. Raises lazily on records that cannot be
    applied, and only before the rejoin point."""
    events = program.events
    removed = set(opp.remove_events)
    fuse_at = opp.events[0] if opp.kind == "fuse-computes" else None
    hoist_at = opp.insert_at if opp.kind == "hoist-update" else None
    for i in range(start, len(events) if stop is None else stop):
        e = events[i]
        if i == hoist_at:
            yield events[opp.events[0]]
        if i == fuse_at:
            yield _merged_compute(e, events[opp.events[1]])
            continue
        if i in removed:
            continue
        yield e


def _changed_span(
    opp: OptimizationOpportunity, n: int
) -> tuple[int, int] | None:
    """``(first, rejoin)`` for an ``n``-event program: the first position
    ``opp`` changes, and its *rejoin point*, the first position after its
    last change (``(n, n)`` when it changes none). From the rejoin point
    on, the transformed stream is the original's own events; for a
    fusion it is the second anchor + 1. None when an anchor or the
    insert point lies outside the program: Python's negative indexing
    would otherwise turn such a record into a no-op, which replays
    equal."""
    anchors = (*opp.events, *opp.remove_events)
    if opp.insert_at is not None:
        anchors += (opp.insert_at,)
    if not all(0 <= i < n for i in anchors):
        return None
    changed = list(opp.remove_events)
    if opp.kind == "fuse-computes" and opp.events:
        changed.append(opp.events[0])
    if opp.kind == "hoist-update" and opp.insert_at is not None:
        changed.append(opp.insert_at)
    if not changed:
        return n, n
    return min(changed), max(changed) + 1


def apply_opportunity(
    program: DirectiveProgram, opp: OptimizationOpportunity
) -> DirectiveProgram:
    """The transformed schedule: same program with the opportunity applied."""
    out = DirectiveProgram(program.meta)
    out.extents = dict(program.extents)
    for e in _transformed_events(program, opp):
        out.add(e)
    return out


def _fingerprint(session) -> tuple:
    shadows = tuple(sorted(
        (
            name,
            tuple(normalize(sh.host_dirty)),
            tuple(normalize(sh.dev_dirty)),
        )
        for name, sh in session.shadows[0].items()
    ))
    diags = tuple(sorted(
        (d.rule, d.var or "", d.kernel or "")
        for d in session.diagnostics
    ))
    return shadows, diags


def replay_fingerprint(program: DirectiveProgram) -> tuple:
    """Replay one schedule through the sanitizer's shadow machinery and
    fingerprint the outcome: which byte ranges of each array are dirty on
    which side at the end, plus the ``(rule, var, kernel)`` of each
    diagnostic. This is *coherence* state; it does not see values. Two
    programs with equal fingerprints agree on what is stale where, not
    necessarily on what was computed: a fusion record that keeps its
    second anchor (``events=(1, 2)``, ``remove_events=()``) launches
    kernel 2 twice and still replays equal. That is why the compiler's
    structural check and the translation validator also run. This
    equivalence is behind :func:`verify_opportunity` and the
    compiled-step verification gate in :mod:`repro.compile`."""
    from repro.sanitize.session import SanitizeSession

    session = SanitizeSession(nranks=1, name=program.meta.name)
    session.replay(program)
    return _fingerprint(session)


class ReplayVerifier:
    """Replay proofs of candidates on one program, sharing one replay.

    One sanitizer session replays the original forward only, stopping at
    each candidate's first changed position; :meth:`verify` forks it
    there. Ask in ascending order of first change: an earlier one starts
    the shared replay over. ``baseline`` is the original's fingerprint
    when the caller already has it; it is needed only for a fork that
    does not rejoin, and is computed then."""

    def __init__(
        self, program: DirectiveProgram, baseline: tuple | None = None
    ):
        self.program = program
        self.baseline = baseline
        self._session = None
        self._at = 0

    def _advance(self, to: int):
        """The shared session at position ``to``."""
        from repro.sanitize.session import SanitizeSession

        if self._session is None or to < self._at:
            self._session = SanitizeSession(
                nranks=1, name=self.program.meta.name
            )
            self._at = 0
        self._session.replay(
            self.program, events=self.program.events[self._at:to]
        )
        self._at = to
        return self._session

    def verify(self, opp: OptimizationOpportunity) -> bool:
        """The replay verdict on ``opp`` (see :func:`verify_opportunity`).

        A fork of the shared session replays the transformed stream up to
        the rejoin point (:func:`_changed_span`), and a second fork the
        original events up to it. From there on both streams are the
        original's events, so equal replay state
        (:meth:`~repro.sanitize.session.SanitizeSession.same_state`)
        gives an equal final fingerprint and the candidate verifies
        without replaying its tail. A fork whose state differs resumes
        its stream lazily to the end and is judged against the baseline
        fingerprint, which the second fork then replays on to give."""
        program, events = self.program, self.program.events
        span = _changed_span(opp, len(events))
        if span is None:
            return False
        first, rejoin = span
        try:
            head = list(_transformed_events(program, opp, first, rejoin))
        except (IndexError, KeyError, ValueError):
            return False
        session = self._advance(first)
        fork = session.fork()
        fork.replay(program, events=head)
        original = session.fork()
        original.replay(program, events=events[first:rejoin])
        if fork.same_state(original):
            return True
        fork.replay(program, events=_transformed_events(program, opp, rejoin))
        if self.baseline is None:
            original.replay(program, events=events[rejoin:])
            self.baseline = _fingerprint(original)
        return _fingerprint(fork) == self.baseline


def verify_opportunities(
    program: DirectiveProgram,
    opportunities: list[OptimizationOpportunity],
    baseline: tuple | None = None,
) -> list[bool]:
    """Replay-verify each candidate (see :func:`verify_opportunity`);
    the verdicts come back in input order.

    One :class:`ReplayVerifier` takes the candidates in ascending order
    of first change: the original replays once per program, and each
    fork stops at its candidate's rejoin point unless its replay state
    differs from the original's there. The streamed events keep their
    original indices: the sanitizer decides nothing from
    ``AccEvent.index`` and only copies it into ``Diagnostic.event_index``
    and ``PendingOp.event_index``, which the fingerprint ignores. A
    record with an anchor outside the program, or one that cannot be
    applied, is refused without a replay. ``baseline`` is the original's
    fingerprint when the caller already has it; otherwise the original
    replays to its end only if some fork does not rejoin."""
    n = len(program.events)
    verifier = ReplayVerifier(program, baseline)
    verdicts = [False] * len(opportunities)
    for k in sorted(
        range(len(opportunities)),
        key=lambda k: _changed_span(opportunities[k], n) or (n, n),
    ):
        verdicts[k] = verifier.verify(opportunities[k])
    return verdicts


def verify_opportunity(
    program: DirectiveProgram,
    opp: OptimizationOpportunity,
    baseline: tuple | None = None,
) -> bool:
    """Replay original vs transformed; True iff the final shadow state
    and diagnostics are identical (the replay equivalence gate, see
    :func:`replay_fingerprint`). ``baseline`` caches the original's
    fingerprint across candidates."""
    return verify_opportunities(program, [opp], baseline)[0]


# ----------------------------------------------------------------------
# JSON schema + dependency-free validation
# ----------------------------------------------------------------------
OPPORTUNITY_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro dataflow opportunities artifact",
    "type": "object",
    "required": ["schema", "programs"],
    "properties": {
        "schema": {"type": "integer", "enum": [OPPORTUNITY_SCHEMA_VERSION]},
        "programs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "opportunities"],
                "properties": {
                    "name": {"type": "string"},
                    "case": {"type": ["string", "null"]},
                    "mode": {"type": ["string", "null"]},
                    "program_sha": {"type": ["string", "null"]},
                    "opportunities": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "kind", "events", "proof", "savings",
                                "verified",
                            ],
                            "properties": {
                                "kind": {
                                    "type": "string",
                                    "enum": list(KINDS),
                                },
                                "events": {
                                    "type": "array",
                                    "items": {"type": "integer"},
                                },
                                "var": {"type": ["string", "null"]},
                                "kernels": {
                                    "type": "array",
                                    "items": {"type": "string"},
                                },
                                "queue": {"type": ["integer", "null"]},
                                "proof": {"type": "string"},
                                "savings": {"type": "object"},
                                "remove_events": {
                                    "type": "array",
                                    "items": {"type": "integer"},
                                },
                                "insert_at": {"type": ["integer", "null"]},
                                "verified": {"type": "boolean"},
                            },
                        },
                    },
                },
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _check_type(value, expected: str | list, path: str) -> None:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        if name == "integer":
            if isinstance(value, int) and not isinstance(value, bool):
                return
        elif name == "number":
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return
        elif isinstance(value, _TYPES[name]):
            # bool is an int subclass; don't let it satisfy other types
            if not (isinstance(value, bool) and name not in ("boolean",)):
                return
    raise ValueError(f"{path}: expected {expected}, got {type(value).__name__}")


def _validate(value, schema: dict, path: str) -> None:
    if "type" in schema:
        _check_type(value, schema["type"], path)
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{path}: {value!r} not in {schema['enum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: missing required key '{key}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]")


def validate_opportunities(doc: dict) -> None:
    """Raise ``ValueError`` iff ``doc`` violates :data:`OPPORTUNITY_SCHEMA`
    (implements the draft-07 subset the schema uses — no jsonschema dep)."""
    _validate(doc, OPPORTUNITY_SCHEMA, "$")


__all__ = [
    "OptimizationOpportunity",
    "OpportunityReport",
    "OPPORTUNITY_SCHEMA",
    "OPPORTUNITY_SCHEMA_VERSION",
    "KINDS",
    "ReplayVerifier",
    "find_opportunities",
    "apply_opportunity",
    "verify_opportunity",
    "verify_opportunities",
    "replay_fingerprint",
    "reports_to_json",
    "validate_opportunities",
]
