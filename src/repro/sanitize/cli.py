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

from repro.analyze.cli import _INVENTORY, _SHAPES, check_target
from repro.analyze.framework import parse_severity
from repro.sanitize.drivers import sanitize_pipeline, sanitize_script
from repro.sanitize.fixit import apply_fixes, collect_fixes
from repro.sanitize.session import SanitizeResult
from repro.utils.errors import ConfigurationError


def sanitize_case(
    physics: str,
    ndim: int,
    mode: str,
    ranks: int = 1,
    nt: int = 8,
) -> SanitizeResult:
    """Sanitize one seed case at a reduced grid."""
    shape = _SHAPES[ndim]
    return sanitize_pipeline(
        physics,
        shape,
        mode,
        ranks=ranks,
        nt=nt,
        snap_period=4,
        space_order=4 if ndim == 3 else 8,
        boundary_width=8,
        name=f"{physics.upper()} {ndim}D ({mode}, {ranks} rank"
        + ("s)" if ranks != 1 else ")"),
    )


def sanitize_targets(args) -> list[SanitizeResult]:
    """Resolve the CLI namespace, checked by
    :func:`~repro.analyze.cli.check_target`, into one or more sanitize
    results."""
    if args.script:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
        return [sanitize_script(text, name=args.script)]
    case = args.case
    ranks = args.ranks
    modes = ("modeling", "rtm") if args.mode == "both" else (args.mode,)
    if case.lower() == "all":
        return [
            sanitize_case(physics, ndim, mode, ranks=ranks, nt=args.nt)
            for physics, ndim in _INVENTORY
            for mode in ("modeling", "rtm")
        ]
    from repro.trace.cli import parse_case

    physics, ndim = parse_case(case)
    return [
        sanitize_case(physics, ndim, mode, ranks=ranks, nt=args.nt)
        for mode in modes
    ]


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
    out_path = getattr(args, "output", None) or args.script
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
    threshold_name = getattr(args, "fail_on", "error")
    if threshold_name.lower() == "none":
        return 0
    return 1 if revalidated.fails(parse_severity(threshold_name)) else 0


def _check_command(args) -> None:
    """Refuse a malformed command line before anything runs (raises
    :class:`ConfigurationError` naming the flag)."""
    check_target(args)
    if args.fix and not args.script:
        raise ConfigurationError(
            "--fix needs --script FILE (recorded-schedule findings "
            "carry advisory fixes only)"
        )


def run_sanitize_command(args) -> int:
    """``python -m repro sanitize`` entry point (argparse namespace in).
    Returns 2, having run and written nothing, on a malformed command
    line."""
    from repro.analyze.report import format_json, format_sarif, format_text

    try:
        _check_command(args)
    except ConfigurationError as exc:
        print(f"sanitize: {exc}")
        return 2
    if args.fix:
        return _run_fix(args)

    results = sanitize_targets(args)
    fmt = getattr(args, "format", None) or (
        "json" if getattr(args, "json", False) else "text"
    )
    if fmt == "json":
        print(format_json(results))
    elif fmt == "sarif":
        print(format_sarif(results, tool_name="repro-sanitize"))
    else:
        for i, result in enumerate(results):
            if i:
                print()
            print(format_text(
                result, title=f"repro sanitize — {result.name}"
            ))
    if args.fail_on.lower() == "none":
        return 0
    threshold = parse_severity(args.fail_on)
    return 1 if any(r.fails(threshold) for r in results) else 0


__all__ = ["run_sanitize_command", "sanitize_targets", "sanitize_case"]
