"""Whole-program dataflow engine over the DirectiveProgram IR.

Where the four local lint passes pattern-match event windows and the
sanitizer shadows an *executed* schedule, this package reasons about the
whole program statically:

* :mod:`~repro.analyze.dataflow.graph` — a :class:`DependenceGraph` over
  :class:`~repro.analyze.program.AccEvent`\\ s: RAW/WAR/WAW edges from
  ``accesses(conservative=True)`` joined with the happens-before order
  induced by queues, ``wait``/``wait_all`` and send/recv message edges,
  with reachability queries and Graphviz export;
* :mod:`~repro.analyze.dataflow.absint` — a fixed-point abstract
  interpreter over per-array host/device dirty byte intervals; the step
  loop is closed (the body iterates to a fixpoint) so steady-state facts
  hold, and the sanitizer's five error rules become compile-time ``DF*``
  diagnostics with event-chain witnesses;
* :mod:`~repro.analyze.dataflow.crossrank` — send/recv matching across
  per-rank programs: unmatched messages and wait-cycle deadlocks;
* :mod:`~repro.analyze.dataflow.opportunities` — ``OptimizationOpportunity``
  records (kernel fusion, update hoisting, cancellable update pairs) with
  machine-checked proofs: each candidate replays its transformed schedule
  through the sanitizer and must leave the same coherence state and
  diagnostics as the original.

``repro lint --deep`` runs the coherence engine beside the default
passes; ``repro deps`` exposes the graph (``--dot``) and the opportunity
artifact (``--opportunities``) consumed — hash-gated — by the
fused-kernel compiler, :mod:`repro.compile`.
"""

from repro.analyze.dataflow.absint import (
    CoherenceSummary,
    interpret_program,
)
from repro.analyze.dataflow.crossrank import (
    CrossRankResult,
    check_ranks,
    match_messages,
)
from repro.analyze.dataflow.graph import (
    DepEdge,
    DependenceGraph,
    LoopRegion,
    detect_loops,
)
from repro.analyze.dataflow.opportunities import (
    OPPORTUNITY_SCHEMA,
    OpportunityReport,
    OptimizationOpportunity,
    ReplayVerifier,
    apply_opportunity,
    find_opportunities,
    replay_fingerprint,
    reports_to_json,
    validate_opportunities,
    verify_opportunities,
    verify_opportunity,
)
from repro.analyze.dataflow.passes import DataflowCoherencePass

__all__ = [
    "DependenceGraph",
    "DepEdge",
    "LoopRegion",
    "detect_loops",
    "CoherenceSummary",
    "interpret_program",
    "CrossRankResult",
    "check_ranks",
    "match_messages",
    "OptimizationOpportunity",
    "OpportunityReport",
    "OPPORTUNITY_SCHEMA",
    "find_opportunities",
    "apply_opportunity",
    "verify_opportunity",
    "verify_opportunities",
    "ReplayVerifier",
    "replay_fingerprint",
    "reports_to_json",
    "validate_opportunities",
    "DataflowCoherencePass",
]
