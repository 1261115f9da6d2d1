"""Pass framework: severities, diagnostics, the pass protocol and driver.

A lint pass is a callable object with a ``name`` and a
``run(program) -> list[Diagnostic]`` method. :func:`run_passes` drives the
registered passes over one :class:`~repro.analyze.program.DirectiveProgram`
and returns the merged, severity-ranked findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.analyze.program import DirectiveProgram
from repro.utils.errors import AnalysisError, ConfigurationError


class Severity(IntEnum):
    """Ranked finding severity (higher = worse)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


def parse_severity(text: str) -> Severity:
    """``'error'`` -> :data:`Severity.ERROR` (used by ``--fail-on``)."""
    try:
        return Severity[text.strip().upper()]
    except KeyError:
        known = ", ".join(s.name.lower() for s in Severity)
        raise ConfigurationError(
            f"unknown severity '{text}' (expected one of: {known})"
        ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding: which pass, which rule, how bad, where."""

    pass_name: str
    rule: str
    severity: Severity
    message: str
    #: program position (event index) the finding anchors to
    event_index: int | None = None
    #: array / kernel the finding concerns, when there is one
    var: str | None = None
    kernel: str | None = None
    #: machine-applicable remedy (a :class:`repro.sanitize.fixit.ScriptFix`)
    #: when the pass can propose one; ``--fix`` consumes these
    fix: object | None = None
    #: event-chain witness: the event indices (cause ... consumer) whose
    #: interleaving exhibits the finding — static dataflow proofs fill this
    witness: tuple[int, ...] = ()

    def location(self, program: DirectiveProgram | None = None) -> str:
        if self.event_index is None:
            return "program"
        loc = f"event {self.event_index}"
        if program is not None and 0 <= self.event_index < len(program.events):
            label = program.events[self.event_index].label
            if label:
                loc = f"{label} ({loc})"
        return loc

    def to_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "event": self.event_index,
            "var": self.var,
            "kernel": self.kernel,
            "fix": str(self.fix) if self.fix is not None else None,
            "witness": list(self.witness),
        }


class LintPass:
    """Base class; subclasses set ``name`` and implement :meth:`run`."""

    name = "pass"

    def run(self, program: DirectiveProgram) -> list[Diagnostic]:  # pragma: no cover
        raise NotImplementedError

    def diag(
        self,
        rule: str,
        severity: Severity,
        message: str,
        event_index: int | None = None,
        var: str | None = None,
        kernel: str | None = None,
    ) -> Diagnostic:
        return Diagnostic(self.name, rule, severity, message, event_index, var, kernel)


def default_passes() -> tuple[LintPass, ...]:
    """The four shipped passes, in catalogue order."""
    from repro.analyze.async_race import AsyncRacePass
    from repro.analyze.present_lifetime import PresentLifetimePass
    from repro.analyze.schedule_lint import ScheduleLintPass
    from repro.analyze.transfer import TransferEfficiencyPass

    return (
        PresentLifetimePass(),
        AsyncRacePass(),
        ScheduleLintPass(),
        TransferEfficiencyPass(),
    )


def deep_passes() -> tuple[LintPass, ...]:
    """The four shipped passes plus the whole-program dataflow engine
    (``lint --deep`` and the strict pipeline gate)."""
    from repro.analyze.dataflow import DataflowCoherencePass

    return default_passes() + (DataflowCoherencePass(),)


def run_passes(
    program: DirectiveProgram, passes: tuple[LintPass, ...] | None = None
) -> list[Diagnostic]:
    """Run ``passes`` (default: all four) and rank the merged findings
    worst-first, then by program position."""
    passes = passes if passes is not None else default_passes()
    out: list[Diagnostic] = []
    for p in passes:
        out.extend(p.run(program))
    out.sort(key=lambda d: (-int(d.severity), d.event_index if d.event_index is not None else -1))
    return out


@dataclass
class LintResult:
    """Findings of one linted program, with gating helpers."""

    program: DirectiveProgram
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def worst(self) -> Severity | None:
        return max((d.severity for d in self.diagnostics), default=None)

    def fails(self, threshold: Severity) -> bool:
        """Whether any finding is at or above ``threshold``."""
        return any(d.severity >= threshold for d in self.diagnostics)


def lint_program(
    program: DirectiveProgram, passes: tuple[LintPass, ...] | None = None
) -> LintResult:
    """Convenience: run the passes and wrap the findings."""
    return LintResult(program, run_passes(program, passes))


def refuse(
    diagnostics, fail_on: Severity, who: str, what: str, noun: str
) -> None:
    """The strict gates' one refusal: raise :class:`AnalysisError` when any
    of ``diagnostics`` is at or above ``fail_on``, naming the first three
    (``"<who> refused the <what>: N <noun> at or above <fail_on> — ..."``)."""
    worst = [d for d in diagnostics if d.severity >= fail_on]
    if worst:
        head = "; ".join(f"{d.rule}: {d.message}" for d in worst[:3])
        more = f" (+{len(worst) - 3} more)" if len(worst) > 3 else ""
        raise AnalysisError(
            f"{who} refused the {what}: {len(worst)} {noun} at or above "
            f"{str(fail_on)} — {head}{more}"
        )


__all__ = [
    "Severity",
    "parse_severity",
    "Diagnostic",
    "LintPass",
    "LintResult",
    "default_passes",
    "deep_passes",
    "run_passes",
    "lint_program",
    "refuse",
]
