"""Driver behind ``python -m repro sanitize``.

Targets mirror the lint CLI:

* ``sanitize CASE`` — run one seed case's per-rank offload schedule
  (estimate mode, reduced grid) under the sanitizer; ``--ranks N`` sets
  the card count, ``--mode`` picks modeling/rtm/both;
* ``sanitize all`` — the 12 seed-case programs (6 cases x both modes);
* ``sanitize --script FILE`` — replay an ``!$acc`` directive script;
  with ``--fix`` the proposed directive edits are applied to the file
  (or ``--output``) and the result re-sanitized to validate the round
  trip.

``--fail-on SEVERITY`` gates the exit code; ``--format text|json|sarif``
picks the report (``--json`` is kept as an alias of ``--format json``).
"""

from __future__ import annotations

from repro.cases import case_targets, record_args
from repro.sanitize.drivers import sanitize_pipeline, sanitize_script
from repro.sanitize.fixit import apply_fixes, collect_fixes
from repro.sanitize.session import SanitizeResult


def sanitize_case(
    physics: str,
    ndim: int,
    mode: str,
    ranks: int = 1,
    nt: int = 8,
) -> SanitizeResult:
    """Sanitize one seed case at a reduced grid."""
    return sanitize_pipeline(
        physics,
        mode=mode,
        ranks=ranks,
        nt=nt,
        name=f"{physics.upper()} {ndim}D ({mode}, {ranks} rank"
        + ("s)" if ranks != 1 else ")"),
        **record_args(ndim),
    )


def _run_fix(args) -> int:
    """``--fix``: apply the proposed edits to the script, re-sanitize."""
    with open(args.script, encoding="utf-8") as fh:
        text = fh.read()
    result = sanitize_script(text, name=args.script)
    fixes = collect_fixes(result.diagnostics)
    if not result.diagnostics:
        print(f"{args.script}: already clean, nothing to fix")
        return 0
    fixed, applied = apply_fixes(text, result.diagnostics)
    out_path = args.output or args.script
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(fixed)
    revalidated = sanitize_script(fixed, name=out_path)
    print(
        f"{args.script}: {len(result.diagnostics)} finding(s), "
        f"{len(fixes)} fix(es) proposed, {applied} applied -> {out_path}"
    )
    for fix in fixes:
        print(f"  {fix}")
    if revalidated.clean():
        print(f"  re-sanitized: clean")
        return 0
    print(f"  re-sanitized: {len(revalidated.diagnostics)} finding(s) remain")
    from repro.analyze.report import format_text

    print(format_text(revalidated, title=f"repro sanitize — {out_path}"))
    return int(args.fail_on is not None and revalidated.fails(args.fail_on))


def run_sanitize_command(args) -> int:
    """``python -m repro sanitize`` entry point (argparse namespace in)."""
    from repro.analyze.report import format_text, print_results

    if args.fix:
        return _run_fix(args)
    if args.script:
        with open(args.script, encoding="utf-8") as fh:
            results = [sanitize_script(fh.read(), name=args.script)]
    else:
        results = [
            sanitize_case(physics, ndim, mode, ranks=args.ranks, nt=args.nt)
            for _, physics, ndim, mode in case_targets(args.case, args.mode)
        ]
    return print_results(
        results, args.format or ("json" if args.json else "text"),
        args.fail_on, tool_name="repro-sanitize",
        texts=(
            format_text(r, title=f"repro sanitize — {r.name}") for r in results
        ),
    )


__all__ = ["run_sanitize_command", "sanitize_case"]
