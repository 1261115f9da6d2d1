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

from repro.analyze.cli import check_target
from repro.analyze.dataflow.crossrank import check_ranks
from repro.analyze.dataflow.graph import DependenceGraph, detect_loops
from repro.analyze.dataflow.opportunities import (
    OpportunityReport,
    find_opportunities,
    reports_to_json,
    validate_opportunities,
)
from repro.analyze.framework import Severity, parse_severity
from repro.analyze.frontend import program_from_script
from repro.analyze.program import DirectiveProgram, ProgramMeta
from repro.utils.errors import ConfigurationError


def _record_case(
    physics: str, ndim: int, mode: str, nt: int, ranks: int
) -> list[DirectiveProgram]:
    from repro.analyze.cli import _SHAPES
    from repro.analyze.drivers import record_pipeline_program
    from repro.sanitize.drivers import sanitize_pipeline

    shape = _SHAPES[ndim]
    name = f"{physics.upper()} {ndim}D ({mode})"
    if ranks <= 1:
        return [record_pipeline_program(
            physics, shape, mode, nt=nt, snap_period=4,
            space_order=4 if ndim == 3 else 8,
            boundary_width=8, name=name,
        )]
    result = sanitize_pipeline(
        physics, shape, mode, ranks=ranks, nt=nt, snap_period=4,
        space_order=4 if ndim == 3 else 8, boundary_width=8,
        name=name,
    )
    return result.programs


def deps_targets(args) -> list[tuple[str, str | None, list[DirectiveProgram]]]:
    """Resolve the CLI namespace, checked by
    :func:`~repro.analyze.cli.check_target`, into ``(label, mode,
    per-rank programs)`` targets."""
    ranks = args.ranks
    if args.script:
        with open(args.script, encoding="utf-8") as fh:
            program = program_from_script(fh.read())
        program.meta = ProgramMeta(source="script", name=args.script)
        return [(args.script, None, [program])]
    case = args.case
    modes = ("modeling", "rtm") if args.mode == "both" else (args.mode,)
    if case.lower() == "all":
        from repro.analyze.cli import _INVENTORY

        return [
            (
                f"{physics}{ndim}d", mode,
                _record_case(physics, ndim, mode, args.nt, ranks),
            )
            for physics, ndim in _INVENTORY
            for mode in ("modeling", "rtm")
        ]
    from repro.trace.cli import parse_case

    physics, ndim = parse_case(case)
    return [
        (
            f"{physics}{ndim}d", mode,
            _record_case(physics, ndim, mode, args.nt, ranks),
        )
        for mode in modes
    ]


def _check_command(args) -> None:
    """Refuse a malformed command line before anything is recorded
    (raises :class:`ConfigurationError` naming the flag)."""
    check_target(args)
    single = bool(args.script) or (
        args.case.lower() != "all" and args.mode != "both"
    )
    if args.dot and not single:
        raise ConfigurationError(
            "--dot exports one graph: give a single case and --mode"
        )


def run_deps_command(args) -> int:
    """``python -m repro deps`` entry point (argparse namespace in).
    Returns 2, having recorded and written nothing, on a malformed
    command line."""
    try:
        _check_command(args)
    except ConfigurationError as exc:
        print(f"deps: {exc}")
        return 2
    targets = deps_targets(args)
    verify = not getattr(args, "no_verify", False)
    reports: list[OpportunityReport] = []
    docs: list[dict] = []
    worst_error = False
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
        if crossrank is not None and any(
            d.severity >= Severity.ERROR for d in crossrank.diagnostics
        ):
            worst_error = True
        if getattr(args, "dot", None):
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot())
    if getattr(args, "opportunities", None):
        artifact = reports_to_json(reports)
        validate_opportunities(artifact)
        with open(args.opportunities, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"targets": docs}, indent=2))
    else:
        for doc in docs:
            _print_target(doc)
    fail_on = getattr(args, "fail_on", "none") or "none"
    if fail_on.lower() == "none":
        return 0
    threshold = parse_severity(fail_on)
    if threshold <= Severity.ERROR and worst_error:
        return 1
    return 0


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


__all__ = ["run_deps_command", "deps_targets"]
