"""Driver behind ``python -m repro deps``.

Builds the dependence graph (and, at ``--ranks N``, the cross-rank
message graph) of a case's recorded schedule, reports the dataflow
engine's findings and optimization opportunities, and exports:

* ``--dot FILE`` — the Graphviz dependence graph of a single target;
* ``--opportunities FILE`` — the schema-validated JSON artifact of
  ``OptimizationOpportunity`` records (the fused-kernel compiler's
  input contract).

Targets mirror ``repro lint``: one seed case, ``all`` (the 12 seed
programs), or ``--script FILE``.
"""

from __future__ import annotations

import json

from repro.analyze.dataflow.crossrank import check_ranks
from repro.analyze.dataflow.graph import DependenceGraph, detect_loops
from repro.analyze.dataflow.opportunities import (
    OpportunityReport,
    find_opportunities,
    reports_to_json,
    validate_opportunities,
)
from repro.analyze.frontend import program_from_file
from repro.analyze.program import DirectiveProgram
from repro.cases import case_targets, record_args


def _record_case(
    physics: str, ndim: int, mode: str, nt: int, ranks: int
) -> list[DirectiveProgram]:
    from repro.analyze.drivers import record_pipeline_program
    from repro.sanitize.drivers import sanitize_pipeline

    name = f"{physics.upper()} {ndim}D ({mode})"
    if ranks <= 1:
        return [record_pipeline_program(
            physics, mode=mode, nt=nt, name=name, **record_args(ndim),
        )]
    return sanitize_pipeline(
        physics, mode=mode, ranks=ranks, nt=nt, name=name,
        **record_args(ndim),
    ).programs


def _targets(args) -> list[tuple[str, str | None, list[DirectiveProgram]]]:
    """``(label, mode, per-rank programs)`` of each target."""
    if args.script:
        return [(args.script, None, [program_from_file(args.script)])]
    return [
        (
            f"{physics}{ndim}d", mode,
            _record_case(physics, ndim, mode, args.nt, args.ranks),
        )
        for _, physics, ndim, mode in case_targets(args.case, args.mode)
    ]


def run_deps_command(args) -> int:
    """``python -m repro deps`` entry point (argparse namespace in)."""
    targets = _targets(args)
    verify = not args.no_verify
    reports: list[OpportunityReport] = []
    docs: list[dict] = []
    failed = False
    for label, mode, programs in targets:
        graph = DependenceGraph(programs)
        crossrank = check_ranks(programs) if len(programs) > 1 else None
        report = find_opportunities(programs[0], verify=verify)
        report.case = label
        report.mode = mode
        report.program_sha = programs[0].sha()
        reports.append(report)
        regions = detect_loops(programs[0])
        summary = graph.summary()
        doc = {
            "case": label,
            "mode": mode,
            "ranks": len(programs),
            "events": summary.get("events", 0),
            "edges": {
                k: v for k, v in sorted(summary.items()) if k != "events"
            },
            "loops": [
                {"start": r.start, "period": r.period, "reps": r.reps}
                for r in regions
            ],
            "opportunities": len(report.opportunities),
            "verified_opportunities": len(report.verified()),
            "crossrank": (
                [d.to_dict() for d in crossrank.diagnostics]
                if crossrank is not None else []
            ),
        }
        docs.append(doc)
        if crossrank is not None and args.fail_on is not None:
            failed = failed or any(
                d.severity >= args.fail_on for d in crossrank.diagnostics
            )
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot())
    if args.opportunities:
        artifact = reports_to_json(reports)
        validate_opportunities(artifact)
        with open(args.opportunities, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps({"targets": docs}, indent=2))
    else:
        for doc in docs:
            _print_target(doc)
    return int(failed)


def _print_target(doc: dict) -> None:
    mode = f" ({doc['mode']})" if doc.get("mode") else ""
    title = f"deps {doc['case']}{mode} x{doc['ranks']}"
    print(title)
    print("-" * len(title))
    edges = ", ".join(f"{k}={v}" for k, v in doc["edges"].items())
    print(f"  events {doc['events']}, edges: {edges}")
    for loop in doc["loops"]:
        print(
            f"  loop @ {loop['start']}: period {loop['period']} "
            f"x {loop['reps']} reps"
        )
    print(
        f"  opportunities: {doc['opportunities']} "
        f"({doc['verified_opportunities']} verified)"
    )
    for d in doc["crossrank"]:
        print(f"  [{d['severity']}] {d['rule']}: {d['message']}")


__all__ = ["run_deps_command"]
