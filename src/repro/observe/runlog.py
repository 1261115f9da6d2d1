"""Run-scoped structured logging: one context, many subsystems.

The run being observed is one :class:`~repro.observe.ledger.LedgerRecord`,
installed as the ambient record by
:func:`~repro.observe.ledger.observed_run`. Instrumented layers never
hold a reference to it — they call the module-level :func:`emit` /
:func:`count` with whatever context they have (``rank=...``,
``phase=...``) and the ambient record, if any, keeps it. With no active
record both are no-ops, so the pipeline/recovery hot paths stay
unconditional, mirroring the ``NULL_TRACER`` convention of
:mod:`repro.trace`.

This module imports nothing: ``core`` loads it at import time, and the
ledger (with its JSON and hashing) loads only with a ledger writer.
"""

from __future__ import annotations

import contextvars
from typing import Any

#: the ambient run record (None outside any ``observed_run`` scope)
ambient: contextvars.ContextVar = contextvars.ContextVar(
    "repro_runlog", default=None
)


def emit(kind: str, **fields: Any) -> None:
    """Record an event on the ambient run; no-op outside a run scope."""
    record = ambient.get()
    if record is not None:
        record.log(kind, **fields)


def count(name: str, amount: float = 1.0) -> None:
    """Bump a counter on the ambient run; no-op outside a run scope."""
    record = ambient.get()
    if record is not None:
        record.count(name, amount)


__all__ = ["emit", "count"]
