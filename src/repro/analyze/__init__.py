"""Static analyzer & lint passes for OpenACC directive programs.

Every bug class the paper fights by hand — data re-transferred each step
instead of staying resident (S5.1), full-array updates where partial
ghost-node extents suffice, ``independent`` asserted on loops with carried
writes, async queues racing on shared wavefields (S6), ``kernels``
vectorizing a non-contiguous loop under CRAY (Figs 8-9) — is statically
detectable from the directive sequence plus the kernels' read/write sets.
This package detects them *before* a run:

* :mod:`~repro.analyze.program` — the DirectiveProgram IR, an ordered
  event sequence with per-kernel read/write sets and async-queue ids;
* :mod:`~repro.analyze.recorder` — the Runtime recording hook, so real
  pipeline runs emit their own programs;
* :mod:`~repro.analyze.frontend` — build programs from ``!$acc`` scripts
  via :mod:`repro.acc.parser` (with ``!$lint`` sidecar annotations);
* four passes — :mod:`~repro.analyze.present_lifetime`,
  :mod:`~repro.analyze.async_race`, :mod:`~repro.analyze.schedule_lint`,
  :mod:`~repro.analyze.transfer` — over the shared
  :mod:`~repro.analyze.framework` (severity-ranked diagnostics);
* :mod:`~repro.analyze.rules` — the shared bug-class registry: each
  coherence rule carries its dynamic (sanitizer) pass, its static
  ``DF*`` id, one message template, and a docs anchor;
* :mod:`~repro.analyze.dataflow` — the whole-program dataflow engine:
  dependence graph, fixed-point coherence interpreter (``lint --deep``),
  cross-rank deadlock detection, and verified fusion/hoisting
  opportunities (``python -m repro deps``);
* :mod:`~repro.analyze.cli` — ``python -m repro lint`` with text/JSON
  reporters and ``--fail-on`` gating;
* :mod:`~repro.analyze.drivers` — record-and-lint helpers plus the
  strict gate :func:`~repro.analyze.drivers.check_schedule`, which a
  caller runs before a real run: it lints a dry run of the same
  configuration, the dataflow engine's proofs included.
"""

from repro.analyze.async_race import AsyncRacePass
from repro.analyze.dataflow import (
    DataflowCoherencePass,
    DependenceGraph,
    OptimizationOpportunity,
    check_ranks,
    find_opportunities,
    interpret_program,
)
from repro.analyze.drivers import (
    check_schedule,
    lint_pipeline,
    record_pipeline_program,
)
from repro.analyze.framework import (
    Diagnostic,
    LintPass,
    LintResult,
    Severity,
    deep_passes,
    default_passes,
    lint_program,
    parse_severity,
    run_passes,
)
from repro.analyze.rules import REGISTRY, rule
from repro.analyze.frontend import program_from_script
from repro.analyze.present_lifetime import PresentLifetimePass
from repro.analyze.program import AccEvent, DirectiveProgram, ProgramMeta
from repro.analyze.recorder import ProgramRecorder
from repro.analyze.report import format_json, format_text, to_json_dict
from repro.analyze.schedule_lint import ScheduleLintPass
from repro.analyze.transfer import TransferEfficiencyPass

__all__ = [
    "AccEvent",
    "DirectiveProgram",
    "ProgramMeta",
    "ProgramRecorder",
    "program_from_script",
    "Diagnostic",
    "Severity",
    "parse_severity",
    "LintPass",
    "LintResult",
    "default_passes",
    "deep_passes",
    "run_passes",
    "lint_program",
    "REGISTRY",
    "rule",
    "DataflowCoherencePass",
    "DependenceGraph",
    "OptimizationOpportunity",
    "check_ranks",
    "find_opportunities",
    "interpret_program",
    "PresentLifetimePass",
    "AsyncRacePass",
    "ScheduleLintPass",
    "TransferEfficiencyPass",
    "format_text",
    "format_json",
    "to_json_dict",
    "record_pipeline_program",
    "lint_pipeline",
    "check_schedule",
]
