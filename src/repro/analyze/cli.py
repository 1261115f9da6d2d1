"""Driver behind ``python -m repro lint``.

Three targets:

* ``lint CASE`` — record one seed case's offload schedule (estimate mode,
  reduced grid) and lint it; ``--mode`` picks modeling/rtm/both;
* ``lint all`` — the 12 seed-case programs (6 cases x both modes);
* ``lint --script FILE`` — lint a ``!$acc`` directive script without
  running anything.

``--fail-on SEVERITY`` exits non-zero when any finding reaches the gate
(default ``error``; ``none`` always exits 0); ``--json`` emits the
machine-readable report.

``--deep`` adds the whole-program dataflow engine
(:mod:`repro.analyze.dataflow`) to the pass list — fixed-point coherence
proofs with ``DF*`` codes and event-chain witnesses — and appends a
ledger record (diagnostic + opportunity counts) so ``repro report
--check`` can flag regressions in statically-proven schedule quality.
"""

from __future__ import annotations

from repro.analyze.framework import (
    LintResult,
    Severity,
    deep_passes,
    lint_program,
    parse_severity,
)
from repro.analyze.frontend import program_from_script
from repro.utils.errors import ConfigurationError

#: reduced lint-recording grids (the directive sequence does not depend on
#: the grid size; estimate mode makes even these instant)
_SHAPES = {2: (96, 96), 3: (48, 48, 48)}

#: the seed inventory: 3 physics x 2 dimensions (x both modes = 12 programs)
_INVENTORY = (
    ("isotropic", 2),
    ("acoustic", 2),
    ("elastic", 2),
    ("isotropic", 3),
    ("acoustic", 3),
    ("elastic", 3),
)


def lint_case(
    physics: str,
    ndim: int,
    mode: str,
    nt: int = 24,
    compiler: str | None = None,
    deep: bool = False,
) -> LintResult:
    """Record one seed case at a reduced grid and lint it."""
    from repro.acc.compiler import COMPILERS
    from repro.analyze.drivers import lint_pipeline
    from repro.core.config import GPUOptions

    options = GPUOptions()
    if compiler is not None:
        try:
            options.compiler = COMPILERS[compiler]
        except KeyError:
            known = ", ".join(sorted(COMPILERS))
            raise ConfigurationError(
                f"unknown compiler '{compiler}' (expected one of: {known})"
            ) from None
    shape = _SHAPES[ndim]
    return lint_pipeline(
        physics,
        shape,
        mode,
        nt=nt,
        snap_period=4,
        options=options,
        space_order=4 if ndim == 3 else 8,
        boundary_width=8,
        name=f"{physics.upper()} {ndim}D ({mode})",
        passes=deep_passes() if deep else None,
    )


def lint_targets(args) -> list[LintResult]:
    """Resolve the CLI namespace into one or more lint results."""
    deep = bool(getattr(args, "deep", False))
    if getattr(args, "script", None):
        with open(args.script, encoding="utf-8") as fh:
            program = program_from_script(fh.read())
        program.meta = type(program.meta)(
            source="script", name=args.script,
        )
        return [lint_program(program, deep_passes() if deep else None)]
    case = getattr(args, "case", None)
    if case is None:
        raise ConfigurationError("lint needs a CASE (or 'all', or --script FILE)")
    modes = ("modeling", "rtm") if args.mode == "both" else (args.mode,)
    if case.lower() == "all":
        return [
            lint_case(physics, ndim, mode, nt=args.nt,
                      compiler=args.compiler, deep=deep)
            for physics, ndim in _INVENTORY
            for mode in ("modeling", "rtm")
        ]
    from repro.trace.cli import parse_case

    physics, ndim = parse_case(case)
    return [
        lint_case(physics, ndim, mode, nt=args.nt,
                  compiler=args.compiler, deep=deep)
        for mode in modes
    ]


def check_target(args) -> None:
    """Refuse a malformed target or flag of ``deps`` or ``sanitize``
    before anything is recorded: raises :class:`ConfigurationError`
    naming it (an unreadable ``--script``, a missing or unknown CASE, a
    count below 1, an unknown ``--fail-on`` severity)."""
    from repro.observe.scaling import check_counts
    from repro.trace.cli import parse_case

    if args.script:
        try:
            with open(args.script, encoding="utf-8"):
                pass
        except OSError as exc:
            raise ConfigurationError(
                f"--script: cannot read '{args.script}' ({exc.strerror})"
            ) from None
    elif args.case is None:
        raise ConfigurationError("needs a CASE (or 'all', or --script FILE)")
    elif args.case.lower() != "all":
        parse_case(args.case)
    check_counts(("--nt", args.nt), ("--ranks", args.ranks))
    if args.fail_on.lower() != "none":
        try:
            parse_severity(args.fail_on)
        except ConfigurationError as exc:
            raise ConfigurationError(f"--fail-on: {exc}") from None


def lint_ledger_metrics(results: list[LintResult]) -> dict[str, float]:
    """The statically-proven-quality metrics a ``lint --deep`` run records:
    diagnostic counts by severity, ``DF*`` findings, and the opportunity
    pass's verified fusion/hoisting count."""
    from repro.analyze.dataflow import find_opportunities

    diags = [d for r in results for d in r.diagnostics]
    opportunities = 0
    verified = 0
    for r in results:
        report = find_opportunities(r.program)
        opportunities += len(report.opportunities)
        verified += len(report.verified())
    return {
        "lint_errors": float(sum(
            1 for d in diags if d.severity == Severity.ERROR
        )),
        "lint_warnings": float(sum(
            1 for d in diags if d.severity == Severity.WARNING
        )),
        "lint_info": float(sum(
            1 for d in diags if d.severity == Severity.INFO
        )),
        "df_findings": float(sum(
            1 for d in diags if d.rule.startswith("DF")
        )),
        "opportunities": float(opportunities),
        "verified_opportunities": float(verified),
    }


def _append_lint_ledger(args, results: list[LintResult]) -> None:
    from repro.observe.ledger import append_run, ledger_path_from_args
    from repro.observe.runlog import RunLog

    path = ledger_path_from_args(args)
    if path is None:
        return
    case = getattr(args, "case", None) or getattr(args, "script", None)
    runlog = RunLog(
        command="lint",
        case=case,
        mode=getattr(args, "mode", None),
        ranks=1,
    )
    append_run(path, runlog, lint_ledger_metrics(results))


def run_lint_command(args) -> int:
    """``python -m repro lint`` entry point (argparse namespace in)."""
    from repro.analyze.report import format_json, format_sarif, format_text

    results = lint_targets(args)
    fmt = getattr(args, "format", None) or (
        "json" if getattr(args, "json", False) else "text"
    )
    if fmt == "json":
        print(format_json(results))
    elif fmt == "sarif":
        print(format_sarif(results))
    else:
        for i, result in enumerate(results):
            if i:
                print()
            print(format_text(result))
    if getattr(args, "deep", False):
        _append_lint_ledger(args, results)
    if args.fail_on.lower() == "none":
        return 0
    threshold = parse_severity(args.fail_on)
    return 1 if any(r.fails(threshold) for r in results) else 0


__all__ = [
    "run_lint_command",
    "check_target",
    "lint_targets",
    "lint_case",
    "lint_ledger_metrics",
]
