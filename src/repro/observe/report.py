"""``python -m repro report``: diff the latest run against the ledger.

For every (command, case, mode, ranks) group in the run ledger the
report compares the newest record's metrics against a baseline built
from the group's history (the median of up to ``window`` prior runs —
robust to a single outlier run poisoning the trend). Each metric has a
direction: ``step_seconds`` regressing means *growing*, an overlap
fraction regressing means *shrinking*. A relative threshold (default
10%) gates the verdict; fraction-valued metrics whose baseline is zero
are compared in absolute points instead.

``--check`` turns the report into a CI gate: exit 1 iff any group
regressed. Groups with no history yet report as ``new`` and never gate —
a freshly seeded ledger must not fail its own first run. The gate fails
closed: the command shell refuses ``--check`` (exit 2) on a missing
ledger or one with a line the reader skips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.observe.ledger import DEFAULT_LEDGER_PATH, LedgerRecord, RunLedger

#: metrics where smaller is better (times, costs)
LOWER_IS_BETTER = frozenset({
    "makespan_s",
    "step_seconds",
    "compute_s",
    "transfer_s",
    "comm_s",
    "critical_chain_s",
    "kernel_total_s",
    "baseline_step_seconds",
    "tuned_step_seconds",
    "recovery_cost_s",
    "unrecovered",
    "lint_errors",
    "lint_warnings",
    "df_findings",
    # serve: recovery actions and queue health (fewer / shorter is better)
    "recovery_retries",
    "recovery_restarts",
    "recovery_requeues",
    "recovery_degrades",
    "queue_p50_s",
    "queue_p95_s",
    "queue_max_s",
    "shed",
    "rejected_shots",
    "rejected_surveys",
    "quarantined",
    "stranded",
    "workers_lost",
})
#: metrics where larger is better (overlap, efficiency, recovery)
HIGHER_IS_BETTER = frozenset({
    "comm_overlap_fraction",
    "transfer_overlap_fraction",
    "speedup",
    "efficiency",
    "improvement",
    "recovered_fraction",
    "opportunities",
    "verified_opportunities",
    # serve: throughput, cache effectiveness and completion
    "shots_per_hour",
    "cache_hit_rate",
    "completed_fraction",
    "verified",
})
#: metrics that are fractions in [0, 1]: when their baseline is 0 a
#: relative delta is meaningless, so these compare in absolute points
FRACTION_METRICS = frozenset({
    "comm_overlap_fraction",
    "transfer_overlap_fraction",
    "efficiency",
    "improvement",
    "recovered_fraction",
    "cache_hit_rate",
    "completed_fraction",
    "verified",
})

DEFAULT_THRESHOLD = 0.10
DEFAULT_WINDOW = 5


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class MetricDelta:
    """One metric's latest-vs-baseline comparison."""

    metric: str
    latest: float
    baseline: float
    #: relative delta (latest/baseline - 1), or absolute points delta for
    #: fraction metrics on a zero baseline
    delta: float
    absolute: bool
    direction: str  # 'lower' | 'higher' | 'info'
    regression: bool

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "latest": self.latest,
            "baseline": self.baseline,
            "delta": self.delta,
            "absolute": self.absolute,
            "direction": self.direction,
            "regression": self.regression,
        }


def compare_metric(
    metric: str, latest: float, baseline: float, threshold: float
) -> MetricDelta:
    """Compare one metric value against its baseline under the policy."""
    if metric in LOWER_IS_BETTER:
        direction = "lower"
    elif metric in HIGHER_IS_BETTER:
        direction = "higher"
    else:
        direction = "info"
    absolute = metric in FRACTION_METRICS and abs(baseline) < 1e-12
    if absolute:
        delta = latest - baseline
    elif abs(baseline) < 1e-12:
        # non-fraction zero baseline: any appearance is reported as-is
        delta = latest
        absolute = True
    else:
        delta = latest / baseline - 1.0
    regression = False
    if direction == "lower":
        regression = delta > threshold
    elif direction == "higher":
        regression = delta < -threshold
    return MetricDelta(
        metric=metric, latest=latest, baseline=baseline,
        delta=delta, absolute=absolute, direction=direction,
        regression=regression,
    )


@dataclass
class GroupReport:
    """One ledger group's verdict."""

    command: str
    case: str | None
    mode: str | None
    ranks: int
    run_id: str
    timestamp: str
    history: int
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.history == 0:
            return "new"
        return "regression" if self.regressions else "ok"

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def label(self) -> str:
        parts = [self.command]
        if self.case:
            parts.append(self.case)
        if self.mode:
            parts.append(self.mode)
        parts.append(f"r{self.ranks}")
        return ":".join(parts)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "case": self.case,
            "mode": self.mode,
            "ranks": self.ranks,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "history": self.history,
            "status": self.status,
            "deltas": [d.to_json() for d in self.deltas],
        }


@dataclass
class LedgerReport:
    """The whole ledger's latest-vs-trajectory diff."""

    groups: list[GroupReport]
    threshold: float
    window: int
    warnings: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[GroupReport]:
        return [g for g in self.groups if g.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "window": self.window,
            "ok": self.ok,
            "groups": [g.to_json() for g in self.groups],
            "warnings": list(self.warnings),
        }

    def to_text(self) -> str:
        title = (
            f"Run-ledger report — {len(self.groups)} group(s), "
            f"threshold {100 * self.threshold:.0f}%, window {self.window}"
        )
        lines = [title, "=" * len(title)]
        if not self.groups:
            lines.append("(ledger is empty)")
        for g in self.groups:
            marker = {"ok": " ", "new": "+", "regression": "!"}[g.status]
            lines.append(
                f"{marker} {g.label:<28} {g.status:<10} "
                f"history={g.history} run={g.run_id}"
            )
            shown = g.regressions if g.status == "regression" else []
            for d in shown:
                unit = "pts" if d.absolute else "%"
                value = d.delta if d.absolute else 100 * d.delta
                lines.append(
                    f"    {d.metric:<28} {d.baseline:.6g} -> {d.latest:.6g} "
                    f"({value:+.2f} {unit}, {d.direction} is better)"
                )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append("OK" if self.ok else
                     f"REGRESSION in {len(self.regressions)} group(s)")
        return "\n".join(lines)


def diff_ledger(
    ledger: RunLedger,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    command: str | None = None,
) -> LedgerReport:
    """Build the latest-vs-trajectory report from one ledger."""
    groups: list[GroupReport] = []
    buckets = ledger.groups()
    for key in sorted(buckets, key=lambda k: tuple(str(x) for x in k)):
        records = buckets[key]
        if command is not None and key[0] != command:
            continue
        latest = records[-1]
        history = records[:-1][-window:]
        report = GroupReport(
            command=latest.command,
            case=latest.case,
            mode=latest.mode,
            ranks=latest.ranks,
            run_id=latest.run_id,
            timestamp=latest.timestamp,
            history=len(history),
        )
        if history:
            report.deltas = _deltas(latest, history, threshold)
        groups.append(report)
    return LedgerReport(
        groups=groups, threshold=threshold, window=window,
        warnings=list(ledger.warnings),
    )


def _deltas(
    latest: LedgerRecord, history: list[LedgerRecord], threshold: float
) -> list[MetricDelta]:
    out: list[MetricDelta] = []
    for metric in sorted(latest.metrics):
        values = [
            r.metrics[metric] for r in history if metric in r.metrics
        ]
        if not values:
            continue
        out.append(
            compare_metric(
                metric, float(latest.metrics[metric]),
                _median([float(v) for v in values]), threshold,
            )
        )
    return out


def run_report_command(args) -> int:
    """``python -m repro report`` entry point (argparse namespace in)."""
    ledger = RunLedger(args.ledger or DEFAULT_LEDGER_PATH)
    report = diff_ledger(
        ledger,
        threshold=args.threshold / 100.0,
        window=args.window,
        command=args.command_filter,
    )
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    if args.check and not report.ok:
        return 1
    return 0


__all__ = [
    "LOWER_IS_BETTER",
    "HIGHER_IS_BETTER",
    "FRACTION_METRICS",
    "DEFAULT_THRESHOLD",
    "DEFAULT_WINDOW",
    "MetricDelta",
    "compare_metric",
    "GroupReport",
    "LedgerReport",
    "diff_ledger",
    "run_report_command",
]
