"""The shared coherence-rule registry: one record per bug class.

Every coherence bug class this project detects has up to two detectors —
the *dynamic* sanitizer pass (:mod:`repro.sanitize.session`), which flags
it on an executed schedule, and the *static* dataflow engine
(:mod:`repro.analyze.dataflow`), which proves or refutes it on the
recorded :class:`~repro.analyze.program.DirectiveProgram` before any run.
Both detectors draw their code, message template and docs anchor from
this registry, so a bug class is documented once and the two findings are
trivially matchable (the static rule id is ``<code>-<key>``, e.g.
``DF001-stale-device-read``).

``DF0xx`` codes mirror the sanitizer's five dynamic rules; ``DF1xx``
codes are static-only cross-rank findings (message matching and deadlock
detection have no dynamic counterpart — a deadlocked run never returns).
``DF2xx`` codes are static-only verification findings: ``DF201``-``DF203``
are emitted by the translation validator (:mod:`repro.compile.validate`),
which proves a compiled pipeline's lowered schedule simulates the
recorded program, and ``DF210``/``DF211`` by the capacity prover
(:mod:`repro.analyze.capacity`), which bounds device residency and
register pressure before any allocation happens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.framework import Severity


@dataclass(frozen=True)
class Rule:
    """One bug class: identity, detectors, message templates, docs."""

    key: str
    #: static diagnostic code (``DF...``)
    code: str
    severity: Severity
    #: dynamic sanitizer pass name (None = static-only rule)
    dynamic_pass: str | None
    #: static dataflow pass name (None = dynamic-only rule; unused today)
    static_pass: str | None
    title: str
    #: ``str.format`` template both detectors feed
    message: str
    #: alternate template for the rule's secondary phrasing, when one
    #: exists (e.g. short-ghost-transfer's decomposition-geometry variant)
    alt_message: str | None
    #: docs/analysis.md anchor documenting the bug class
    anchor: str

    @property
    def static_rule(self) -> str:
        """The rule id static diagnostics carry: ``DF001-stale-device-read``."""
        return f"{self.code}-{self.key}"

    def format(self, **fields) -> str:
        return self.message.format(**fields)

    def format_alt(self, **fields) -> str:
        assert self.alt_message is not None
        return self.alt_message.format(**fields)


_RULES = (
    Rule(
        key="stale-device-read",
        code="DF001",
        severity=Severity.ERROR,
        dynamic_pass="coherence",
        static_pass="dataflow",
        title="Device consumer reads host-dirty bytes",
        message=(
            "{consumer} reads '{var}' {ranges} the host wrote but no "
            "update device pushed — the device copy is stale"
        ),
        alt_message=(
            "copyout of '{var}' reads {ranges} the host wrote but no "
            "update device pushed — the device copy is stale"
        ),
        anchor="stale-device-read",
    ),
    Rule(
        key="stale-host-read",
        code="DF002",
        severity=Severity.ERROR,
        dynamic_pass="coherence",
        static_pass="dataflow",
        title="Host consumer reads device-dirty bytes",
        message=(
            "{consumer} consumes '{var}' {ranges} a kernel may have "
            "written but no update host pulled — the host copy is stale"
        ),
        alt_message=None,
        anchor="stale-host-read",
    ),
    Rule(
        key="short-ghost-transfer",
        code="DF003",
        severity=Severity.ERROR,
        dynamic_pass="ghost",
        static_pass="dataflow",
        title="Ghost refresh narrower than the stencil radius",
        message=(
            "ghost refresh of '{var}' moved {moved} bytes but the stencil "
            "radius {halo} needs {required} — kernel '{kernel}' reads "
            "{ranges} stale"
        ),
        alt_message=(
            "decomposition halo is {have} plane(s) but the stencil radius "
            "needs {need} — every exchange under-fills the ghost zones"
        ),
        anchor="short-ghost-transfer",
    ),
    Rule(
        key="ghost-transfer-out-of-bounds",
        code="DF004",
        severity=Severity.ERROR,
        dynamic_pass="ghost",
        static_pass="dataflow",
        title="Partial update runs past the array extent",
        message=(
            "update {direction} of '{var}' bytes [{lo}, {hi}) runs past "
            "the array extent {extent}"
        ),
        alt_message=None,
        anchor="ghost-transfer-out-of-bounds",
    ),
    Rule(
        key="halo-send-before-sync",
        code="DF005",
        severity=Severity.ERROR,
        dynamic_pass="rank-race",
        static_pass="dataflow",
        title="Host consumer races an in-flight async update host",
        message=(
            "{consumer} of '{var}' bytes [{lo}, {hi}) races the "
            "asynchronous update host on queue {queue} still filling it — "
            "no wait({queue}) orders the pair"
        ),
        alt_message=None,
        anchor="halo-send-before-sync",
    ),
    Rule(
        key="unmatched-send",
        code="DF101",
        severity=Severity.ERROR,
        dynamic_pass=None,
        static_pass="dataflow-rank",
        title="Send with no matching receive",
        message=(
            "send of '{var}' to rank {peer} (event {idx}) has no matching "
            "receive on rank {peer} — the message is lost (or the channel "
            "counts diverge)"
        ),
        alt_message=None,
        anchor="unmatched-send",
    ),
    Rule(
        key="unmatched-recv",
        code="DF102",
        severity=Severity.ERROR,
        dynamic_pass=None,
        static_pass="dataflow-rank",
        title="Receive with no matching send",
        message=(
            "receive of '{var}' from rank {peer} (event {idx}) has no "
            "matching send on rank {peer} — the receive blocks forever"
        ),
        alt_message=None,
        anchor="unmatched-recv",
    ),
    Rule(
        key="send-recv-deadlock",
        code="DF103",
        severity=Severity.ERROR,
        dynamic_pass=None,
        static_pass="dataflow-rank",
        title="Cross-rank receive cycle",
        message=(
            "send/recv wait cycle across ranks {ranks}: {detail} — every "
            "rank in the cycle blocks on a receive whose send sits behind "
            "another blocked receive"
        ),
        alt_message=None,
        anchor="send-recv-deadlock",
    ),
    Rule(
        key="dependence-edge-not-preserved",
        code="DF201",
        severity=Severity.ERROR,
        dynamic_pass=None,
        static_pass="translation-validate",
        title="Lowered schedule drops a dependence edge",
        message=(
            "{kind} dependence on '{var}' (events {src} -> {dst}) is not "
            "preserved by the lowered schedule — {detail}"
        ),
        alt_message=None,
        anchor="dependence-edge-not-preserved",
    ),
    Rule(
        key="hoist-not-dominated",
        code="DF202",
        severity=Severity.ERROR,
        dynamic_pass=None,
        static_pass="translation-validate",
        title="Hoisted update not dominated by its last writer",
        message=(
            "hoisted update {direction} of '{var}' (event {idx}) is not "
            "dominated by its last writer — {detail} invalidates the "
            "prologue copy"
        ),
        alt_message=None,
        anchor="hoist-not-dominated",
    ),
    Rule(
        key="fused-access-overlap",
        code="DF203",
        severity=Severity.ERROR,
        dynamic_pass=None,
        static_pass="translation-validate",
        title="Fused kernel's merged accesses conflict with an intervening event",
        message=(
            "fused kernel '{kernel}' merges accesses to '{var}' that "
            "conflict with intervening event {idx} ({detail}) — the fusion "
            "reorders it past the merge point"
        ),
        alt_message=None,
        anchor="fused-access-overlap",
    ),
    Rule(
        key="device-over-capacity",
        code="DF210",
        severity=Severity.ERROR,
        dynamic_pass=None,
        static_pass="capacity",
        title="Proven device-residency high-water mark exceeds usable memory",
        message=(
            "peak device residency {peak} bytes ({detail}) exceeds the "
            "usable {usable} bytes of {device} — the run would OOM at "
            "event {idx} before any recovery could help"
        ),
        alt_message=None,
        anchor="device-over-capacity",
    ),
    Rule(
        key="checkpoint-spike",
        code="DF211",
        severity=Severity.WARNING,
        dynamic_pass=None,
        static_pass="capacity",
        title="Checkpoint-restore spike approaches usable memory",
        message=(
            "checkpoint restore adds {spike} bytes on top of the backward "
            "phase's {base} resident bytes ({detail}) — the combined "
            "{total} bytes exceeds the usable {usable} bytes of {device}"
        ),
        alt_message=None,
        anchor="checkpoint-spike",
    ),
)

#: rule key -> :class:`Rule`
REGISTRY: dict[str, Rule] = {r.key: r for r in _RULES}

#: dynamic hazard code -> sanitizer pass name (the sanitizer's view of the
#: registry; re-exported as ``repro.sanitize.PASSES``)
DYNAMIC_PASSES: dict[str, str] = {
    r.key: r.dynamic_pass for r in _RULES if r.dynamic_pass is not None
}

#: static rule id (``DF001-stale-device-read``) -> rule key
STATIC_RULE_IDS: dict[str, str] = {r.static_rule: r.key for r in _RULES}


def rule(key: str) -> Rule:
    return REGISTRY[key]


def rule_for_static_id(rule_id: str) -> Rule | None:
    """Resolve a static diagnostic's ``rule`` field back to its registry
    record (None for non-registry rules, e.g. the four local lint passes)."""
    key = STATIC_RULE_IDS.get(rule_id)
    return REGISTRY[key] if key is not None else None


__all__ = [
    "Rule",
    "REGISTRY",
    "DYNAMIC_PASSES",
    "STATIC_RULE_IDS",
    "rule",
    "rule_for_static_id",
]
