"""The run ledger: an append-only JSONL trajectory of observed runs.

Every run of a ledger-writing command (``trace``, ``tune``, ``chaos``,
``scale``, ``serve``, ``compile``, ``validate``, ``lint --deep``) appends one
:class:`LedgerRecord` — run identity (command, case, mode, ranks), the
TuningPlan fingerprint in effect, the run's reduced metrics, and the
structured events and counters the run emitted (recoveries, degrades,
phase transitions). Each writer runs inside :func:`observed_run`, which
makes the record the ambient run log of :mod:`repro.observe.runlog` for
the run and appends it when the run completes. ``python -m repro report``
reads the trajectory back and diffs the latest run of each group against
its history, so a schedule change that quietly costs 10% of step time is
caught by CI rather than by a reader of BENCH files.

The on-disk format is one JSON object per line (schema-versioned). Lines
with a newer schema or unparseable content are surfaced as warnings, not
errors: the ledger is history, and history survives format drift (only
``report --check`` refuses to gate over them).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterator

#: current record schema
LEDGER_SCHEMA = 1
#: default ledger location, relative to the working directory
DEFAULT_LEDGER_PATH = os.path.join(".repro", "ledger.jsonl")
#: cap on stored events per run — a runaway loop (nt in the thousands)
#: must not turn the ledger into a trace; the overflow is counted in
#: ``counters["ledger.dropped_events"]``, not kept
MAX_EVENTS = 512


def plan_fingerprint(plan) -> str | None:
    """Stable short hash of a :class:`~repro.optim.autotune.TuningPlan`
    (or None) — ledger records carry it so a metric shift can be tied to
    the plan that caused it."""
    if plan is None:
        return None
    doc = json.dumps(plan.to_json(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _numbers(doc: dict, key: str) -> dict[str, float]:
    """``doc[key]`` (``metrics`` or ``counters``) as floats: a JSON object
    of finite numbers, booleans refused (``true`` would read as 1.0) and
    so are ``NaN`` and ``Infinity`` (no comparison gates a NaN)."""
    values = doc.get(key, {})
    if not isinstance(values, dict):
        raise TypeError(f"{key} is not an object")
    for name, value in values.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise TypeError(
                f"{key}[{name!r}] = {value!r} is not a finite number"
            )
    return {name: float(value) for name, value in values.items()}


def _integer(doc: dict, key: str, default: int) -> int:
    """``doc[key]`` (``ranks`` or ``schema``): a JSON integer, not a
    boolean or a float that ``int()`` would truncate."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} {value!r} is not an integer")
    return value


@dataclass
class LedgerRecord:
    """One observed run; inside :func:`observed_run` also the ambient
    run log that :func:`repro.observe.runlog.emit` and
    :func:`~repro.observe.runlog.count` add to."""

    command: str
    case: str | None
    mode: str | None
    ranks: int
    metrics: dict[str, float]
    run_id: str = ""
    timestamp: str = ""
    plan_hash: str | None = None
    events: list[dict] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA

    def __post_init__(self) -> None:
        if not self.run_id:
            self.run_id = uuid.uuid4().hex[:12]
        if not self.timestamp:
            self.timestamp = _utcnow()

    # ------------------------------------------------------------------
    def log(self, kind: str, **fields: Any) -> None:
        """Record one structured event (``kind`` plus free-form fields)."""
        if len(self.events) >= MAX_EVENTS:
            self.count("ledger.dropped_events")
            return
        self.events.append({"kind": kind, **fields})

    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump a named run counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    @property
    def group(self) -> tuple:
        """The trend axis: runs compare only within their group."""
        return (self.command, self.case, self.mode, self.ranks)

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "command": self.command,
            "case": self.case,
            "mode": self.mode,
            "ranks": self.ranks,
            "plan_hash": self.plan_hash,
            "metrics": dict(sorted(self.metrics.items())),
            "counters": dict(sorted(self.counters.items())),
            "events": list(self.events),
        }

    @staticmethod
    def from_json(doc: dict) -> "LedgerRecord":
        """The record one ledger line holds. Raises KeyError, TypeError
        or OverflowError on a line no writer produces: a missing command,
        a field of the wrong type, a metric or counter that is not a
        finite number."""
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        if not isinstance(doc["command"], str):
            raise TypeError("command is not a string")
        for key in ("case", "mode"):
            if not isinstance(doc.get(key), (str, type(None))):
                raise TypeError(f"{key} is not a string")
        events = doc.get("events", [])
        if not isinstance(events, list):
            raise TypeError("events is not a list")
        return LedgerRecord(
            command=doc["command"],
            case=doc.get("case"),
            mode=doc.get("mode"),
            ranks=_integer(doc, "ranks", 1),
            metrics=_numbers(doc, "metrics"),
            run_id=doc.get("run_id", ""),
            timestamp=doc.get("timestamp", ""),
            plan_hash=doc.get("plan_hash"),
            events=events,
            counters=_numbers(doc, "counters"),
            schema=_integer(doc, "schema", LEDGER_SCHEMA),
        )


class RunLedger:
    """Append/read access to one JSONL ledger file."""

    def __init__(self, path: str = DEFAULT_LEDGER_PATH):
        self.path = path
        self.warnings: list[str] = []

    # ------------------------------------------------------------------
    def append(self, record: LedgerRecord) -> LedgerRecord:
        """Append one record (creating the ledger directory on first use)."""
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record.to_json(), sort_keys=False) + "\n")
        return record

    # ------------------------------------------------------------------
    def records(
        self,
        command: str | None = None,
        case: str | None = None,
        mode: str | None = None,
        ranks: int | None = None,
    ) -> list[LedgerRecord]:
        """All parseable records, in append order, optionally filtered."""
        self.warnings = []
        if not os.path.exists(self.path):
            return []
        out: list[LedgerRecord] = []
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    rec = LedgerRecord.from_json(doc)
                except (ValueError, KeyError, TypeError, OverflowError) as exc:
                    self.warnings.append(
                        f"{self.path}:{lineno}: skipped unreadable record "
                        f"({type(exc).__name__}: {exc})"
                    )
                    continue
                if rec.schema > LEDGER_SCHEMA:
                    self.warnings.append(
                        f"{self.path}:{lineno}: skipped schema-{rec.schema} "
                        f"record (this build reads <= {LEDGER_SCHEMA})"
                    )
                    continue
                out.append(rec)
        if command is not None:
            out = [r for r in out if r.command == command]
        if case is not None:
            out = [r for r in out if r.case == case]
        if mode is not None:
            out = [r for r in out if r.mode == mode]
        if ranks is not None:
            out = [r for r in out if r.ranks == ranks]
        return out

    def groups(self) -> dict[tuple, list[LedgerRecord]]:
        """Records bucketed by their (command, case, mode, ranks) group,
        each bucket in append order."""
        out: dict[tuple, list[LedgerRecord]] = {}
        for rec in self.records():
            out.setdefault(rec.group, []).append(rec)
        return out

    def latest(self, **filters) -> LedgerRecord | None:
        recs = self.records(**filters)
        return recs[-1] if recs else None


def ledger_path_from_args(args) -> str | None:
    """Resolve a CLI's ``--ledger``/``--no-ledger`` pair: None disables
    the append, otherwise the given (or default) ledger path."""
    if getattr(args, "no_ledger", False):
        return None
    return getattr(args, "ledger", None) or DEFAULT_LEDGER_PATH


@contextmanager
def observed_run(
    ledger_path: str | None,
    command: str,
    case: str | None = None,
    mode: str | None = None,
    ranks: int = 1,
) -> Iterator[LedgerRecord]:
    """Observe one run: the body runs with a fresh record as the ambient
    run log and sets its ``metrics`` (and ``plan_hash``). The record is
    appended to ``ledger_path`` when the body exits without an exception;
    a ``None`` path (``--no-ledger``) appends nothing."""
    from repro.observe import runlog  # local: the shell loads this module for its path

    record = LedgerRecord(command, case, mode, int(ranks), {})
    token = runlog.ambient.set(record)
    try:
        yield record
    finally:
        runlog.ambient.reset(token)
    if ledger_path is not None:
        RunLedger(ledger_path).append(record)


__all__ = [
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "MAX_EVENTS",
    "plan_fingerprint",
    "LedgerRecord",
    "RunLedger",
    "observed_run",
    "ledger_path_from_args",
]
