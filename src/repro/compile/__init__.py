"""Fused-kernel compilation of the directive IR — the hot-path backend.

The interpreter executes the offload schedule one directive at a time;
this package *compiles* it: a recorded
:class:`~repro.analyze.program.DirectiveProgram` plus its verified
:class:`~repro.analyze.dataflow.OptimizationOpportunity` records are
lowered into per-phase :class:`~repro.compile.lower.LoweredOp` lists, a
flattened step over the same vectorised kernel workloads, with each
fusion/hoist/cancellation applied through the dataflow engine's own
:func:`~repro.analyze.dataflow.apply_opportunity`.

Guarantees:

* **bitwise equivalence** — every compiled schedule is replayed under a
  recorder and its :func:`~repro.analyze.dataflow.replay_fingerprint`
  must equal the interpreted pipeline's before it is ever used;
* **fail closed** — stale opportunity artifacts
  (:meth:`~repro.analyze.program.DirectiveProgram.sha` mismatch),
  non-steady-state schedules and failed re-proofs raise
  :class:`~repro.utils.errors.CompileError` /
  :class:`~repro.utils.errors.StaleArtifactError`;
* **priced fusions** — each applied fusion is costed by the
  roofline/launch model (:func:`repro.optim.fused_launch_estimate`):
  one launch overhead instead of N, register pressure merged under the
  effective maxregcount.

Entry points: ``python -m repro compile CASE|all`` (see
:mod:`repro.compile.cli`), :func:`compile_case` followed by
``.bind(runtime).run()``, and the wall-clock benchmark behind
``BENCH_step.json`` (:mod:`repro.compile.bench`).
"""

from repro.compile.bench import measure_case
from repro.compile.compiler import (
    AppliedOpportunity,
    BoundPipeline,
    CompiledPipeline,
    CompileRequest,
    SegmentedRecording,
    SelectedOpportunity,
    SelectionResult,
    apply_to_template,
    compile_case,
    opportunities_from_artifact,
    record_segments,
    select_opportunities,
)
from repro.compile.lower import (
    BoundStep,
    LoweredOp,
    WorkloadRegistry,
    bind_ops,
    lower_events,
)

__all__ = [
    "AppliedOpportunity",
    "BoundPipeline",
    "BoundStep",
    "CompiledPipeline",
    "CompileRequest",
    "LoweredOp",
    "SegmentedRecording",
    "SelectedOpportunity",
    "SelectionResult",
    "WorkloadRegistry",
    "apply_to_template",
    "bind_ops",
    "compile_case",
    "lower_events",
    "measure_case",
    "opportunities_from_artifact",
    "record_segments",
    "select_opportunities",
]
