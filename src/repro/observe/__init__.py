"""Trace analytics, run ledger and the multi-rank scaling observatory.

``repro.observe`` is the layer that turns the raw telemetry of
:mod:`repro.trace` into guarded quantities:

* :mod:`~repro.observe.reduce` — the reduction engine: span streams in,
  per-rank overlap fractions / queue utilization / kernel aggregates /
  critical-path estimates out;
* :mod:`~repro.observe.scaling` — the ``scale`` CLI: sweep the executed
  :class:`~repro.core.multigpu.MultiGpuPipeline` over rank counts,
  assert the scaling shape against the paper's cluster model, publish
  ``BENCH_scaling.json``;
* :mod:`~repro.observe.ledger` — the append-only JSONL run ledger every
  ``trace``/``tune``/``chaos``/``scale`` invocation writes to;
* :mod:`~repro.observe.report` — the ``report [--check]`` regression
  gate over the ledger trajectory;
* :mod:`~repro.observe.runlog` — run-scoped structured logging threaded
  through the pipeline, multi-GPU and resilience layers.

See ``docs/observability.md``.
"""

from repro.observe.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    LedgerRecord,
    RunLedger,
    append_run,
    ledger_path_from_args,
    plan_fingerprint,
)
from repro.observe.reduce import (
    CriticalPath,
    KernelAggregate,
    QueueUtilization,
    RankReduction,
    TraceReduction,
    reduce_trace,
)
from repro.observe.report import (
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    LedgerReport,
    compare_metric,
    diff_ledger,
)
from repro.observe.runlog import RunLog, count, current_runlog, emit
from repro.observe.scaling import (
    DEFAULT_RANKS,
    SCALE_CASES,
    ScaleCaseResult,
    ScalePoint,
    assert_scaling_shape,
    run_scale_case,
    run_scale_point,
    run_scale_sweep,
    scale_document,
)

__all__ = [
    # reduce
    "TraceReduction",
    "RankReduction",
    "KernelAggregate",
    "QueueUtilization",
    "CriticalPath",
    "reduce_trace",
    # ledger
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "LedgerRecord",
    "RunLedger",
    "append_run",
    "ledger_path_from_args",
    "plan_fingerprint",
    # report
    "DEFAULT_THRESHOLD",
    "DEFAULT_WINDOW",
    "LedgerReport",
    "compare_metric",
    "diff_ledger",
    # runlog
    "RunLog",
    "current_runlog",
    "emit",
    "count",
    # scaling
    "DEFAULT_RANKS",
    "SCALE_CASES",
    "ScalePoint",
    "ScaleCaseResult",
    "run_scale_point",
    "run_scale_case",
    "run_scale_sweep",
    "scale_document",
    "assert_scaling_shape",
]
