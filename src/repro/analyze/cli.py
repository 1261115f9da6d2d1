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
)
from repro.analyze.frontend import program_from_file
from repro.cases import INVENTORY as _INVENTORY  # noqa: F401 (the wall benchmark's name)
from repro.cases import case_targets, record_args


def lint_case(
    physics: str,
    ndim: int,
    mode: str,
    nt: int = 24,
    compiler=None,
    deep: bool = False,
) -> LintResult:
    """Record one seed case at a reduced grid and lint it (``compiler``:
    a :class:`~repro.acc.compiler.CompilerPersona`, default PGI 14.6)."""
    from repro.analyze.drivers import lint_pipeline
    from repro.core.config import GPUOptions

    options = GPUOptions()
    if compiler is not None:
        options.compiler = compiler
    return lint_pipeline(
        physics,
        mode=mode,
        nt=nt,
        options=options,
        name=f"{physics.upper()} {ndim}D ({mode})",
        passes=deep_passes() if deep else None,
        **record_args(ndim),
    )


def _lint_results(args) -> list[LintResult]:
    passes = deep_passes() if args.deep else None
    if args.script:
        return [lint_program(program_from_file(args.script), passes)]
    return [
        lint_case(physics, ndim, mode, nt=args.nt, compiler=args.compiler,
                  deep=args.deep)
        for _, physics, ndim, mode in case_targets(args.case, args.mode)
    ]


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


def run_lint_command(args) -> int:
    """``python -m repro lint`` entry point (argparse namespace in)."""
    from repro.analyze.report import print_results
    from repro.observe.ledger import ledger_path_from_args, observed_run

    results = _lint_results(args)
    verdict = print_results(
        results, args.format or ("json" if args.json else "text"),
        args.fail_on,
    )
    path = ledger_path_from_args(args)
    if args.deep and path is not None:
        with observed_run(path, "lint", args.case or args.script,
                          args.mode) as record:
            record.metrics = lint_ledger_metrics(results)
    return verdict


__all__ = ["run_lint_command", "lint_case", "lint_ledger_metrics"]
