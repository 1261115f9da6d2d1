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

Names load on first access. The pipeline, multi-GPU, resilience, serve
and compile layers import only :mod:`~repro.observe.runlog`, and that
loads none of the ledger, report and scaling tools (``scaling`` itself
runs the multi-GPU pipeline).

See ``docs/observability.md``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "reduce": (
        "TraceReduction",
        "RankReduction",
        "KernelAggregate",
        "QueueUtilization",
        "CriticalPath",
        "reduce_trace",
    ),
    "ledger": (
        "LEDGER_SCHEMA",
        "DEFAULT_LEDGER_PATH",
        "LedgerRecord",
        "RunLedger",
        "append_run",
        "ledger_path_from_args",
        "plan_fingerprint",
    ),
    "report": (
        "DEFAULT_THRESHOLD",
        "DEFAULT_WINDOW",
        "LedgerReport",
        "compare_metric",
        "diff_ledger",
    ),
    "runlog": ("RunLog", "current_runlog", "emit", "count"),
    "scaling": (
        "DEFAULT_RANKS",
        "SCALE_CASES",
        "ScalePoint",
        "ScaleCaseResult",
        "run_scale_point",
        "run_scale_case",
        "run_scale_sweep",
        "scale_document",
        "assert_scaling_shape",
    ),
})
