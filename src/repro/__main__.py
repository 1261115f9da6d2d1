"""The command shell: ``python -m repro <command>``.

``docs/cli.md`` documents every subcommand, flag and exit code (drift-
tested against :func:`build_parser`). The shell checks each value as the
line is parsed and the rules that span flags once before dispatch: a
malformed line prints one line ``<command>: <message>`` and exits 2
before anything runs or is written. A command's module is imported only
when the shell dispatches to it.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from repro.cases import CASES, MODES, SURVEY_CASES, case_targets, parse_case, parse_survey_case
from repro.utils.errors import ConfigurationError

#: the figure studies ``figures NAME`` prints
FIGURES = tuple(f"fig{n}" for n in range(6, 16)) + ("tuned",)
#: the commands that append run-ledger records
LEDGER_COMMANDS = ("trace", "tune", "chaos", "scale", "serve", "compile", "validate", "lint")


# ----------------------------------------------------------------------
# shared checks: each takes the text and the flag it came from, and
# returns the value the command reads or raises ConfigurationError
# ----------------------------------------------------------------------
def case(text: str, flag: str) -> str:
    """One seed case."""
    parse_case(text)
    return text


def case_or_all(text: str, flag: str) -> str:
    """One seed case, or ``all``."""
    return text if text.lower() == "all" else case(text, flag)


def case_list(text: str, flag: str, every=CASES, parse=parse_case) -> tuple:
    """``all`` or a comma list of seed cases -> their names."""
    names = every if text.lower() == "all" else tuple(text.split(","))
    for name in names:
        parse(name)
    return names


def survey_list(text: str, flag: str) -> tuple:
    """:func:`case_list` of 2-D cases."""
    return case_list(text, flag, SURVEY_CASES, parse_survey_case)


def _at_least(text: str, flag: str, kind, what: str, low):
    try:
        value = kind(text)
    except ValueError:
        raise ConfigurationError(f"{flag} wants {what}, not '{text}'") from None
    if not value >= low:
        raise ConfigurationError(f"{flag} must be >= {low} (got {value})")
    return value


def count(text: str, flag: str) -> int:
    """An integer >= 1."""
    return _at_least(text, flag, int, "an integer", 1)


def non_negative(text: str, flag: str) -> float:
    """A number >= 0."""
    return _at_least(text, flag, float, "a number", 0)


def counts(text: str, flag: str) -> tuple[int, ...]:
    """``'1,2,4,8'`` -> ``(1, 2, 4, 8)``, each >= 1."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(
            f"{flag} wants a comma-separated int list, not '{text}'"
        ) from None
    if not values or any(v < 1 for v in values):
        raise ConfigurationError(f"{flag} values must be >= 1 (got '{text}')")
    return values


def severity(text: str, flag: str):
    """``info``, ``warning`` or ``error`` -> that Severity; ``none`` -> None."""
    from repro.analyze.framework import parse_severity

    if text.lower() == "none":
        return None
    try:
        return parse_severity(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from None


def compiler(text: str, flag: str):
    """A compiler persona's name -> the persona."""
    from repro.acc.compiler import COMPILERS

    if text not in COMPILERS:
        known = ", ".join(sorted(COMPILERS))
        raise ConfigurationError(
            f"unknown compiler '{text}' (expected one of: {known})"
        )
    return COMPILERS[text]


def faults(text: str, flag: str) -> str:
    """Fault specs ``kind[@op][xN][:rank],...`` (refusals name --faults)."""
    from repro.resilience.faults import parse_faults

    parse_faults(text)
    return text


def _loads(load, text: str, flag: str, what: str) -> str:
    try:
        load(text)
    except OSError as exc:
        raise ConfigurationError(
            f"{flag}: cannot read '{text}' ({exc.strerror})"
        ) from None
    except (ConfigurationError, ValueError, KeyError, TypeError,
            AttributeError) as exc:
        raise ConfigurationError(f"{flag}: unusable {what} {text}: {exc}") from None
    return text


def plan_file(text: str, flag: str) -> str:
    """A readable TuningPlan JSON."""
    from repro.optim.autotune import load_plan

    return _loads(load_plan, text, flag, "tuning plan")


def script_file(text: str, flag: str) -> str:
    """A readable ``!$acc`` directive script that parses."""
    from repro.analyze.frontend import program_from_file

    return _loads(program_from_file, text, flag, "directive script")


CHECKS = (
    case, case_or_all, case_list, survey_list, count, non_negative, counts,
    severity, compiler, faults, plan_file, script_file,
)


def _flag(action: argparse.Action) -> str:
    return action.option_strings[0] if action.option_strings else (
        action.metavar or action.dest.upper()
    )


class _CommandParser(argparse.ArgumentParser):
    """argparse converts and checks every value (text defaults included)
    through these two methods; a value a shared check or ``choices``
    refuses raises ConfigurationError, which ``parse_args`` passes on."""

    def _get_value(self, action, text):
        if action.type in CHECKS:
            return action.type(text, _flag(action))
        return super()._get_value(action, text)

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            known = ", ".join(action.choices)
            raise ConfigurationError(
                f"{_flag(action)}: unknown value '{value}' "
                f"(expected one of: {known})"
            )


_CASE_HELP = "e.g. iso2d, acoustic3d, el2d — or 'all' for the full inventory"


def _add_ledger_args(p) -> None:
    from repro.observe.ledger import DEFAULT_LEDGER_PATH

    p.add_argument("--ledger", metavar="PATH", default=DEFAULT_LEDGER_PATH,
                   help=f"run-ledger JSONL path (default {DEFAULT_LEDGER_PATH})")
    p.add_argument("--no-ledger", action="store_true",
                   help="do not append this run to the ledger")


def _add_fail_on(p, default: str) -> None:
    p.add_argument("--fail-on", metavar="SEVERITY", type=severity,
                   default=default,
                   help="exit non-zero on findings at/above this severity "
                   f"(info|warning|error|none; default {default})")


def _add_target_args(p, verb: str, nt: int) -> None:
    """lint, deps and sanitize: a CASE or a --script, --mode and --nt."""
    p.add_argument("case", nargs="?", type=case_or_all, help=_CASE_HELP)
    p.add_argument("--script", metavar="FILE", type=script_file,
                   help=f"{verb} an !$acc directive script instead of a case")
    p.add_argument("--mode", choices=MODES, default="rtm")
    p.add_argument("--nt", type=count, default=nt,
                   help="recorded time steps (pattern repeats; keep small)")


def _add_recorded_args(p) -> None:
    """compile and validate: CASE, --mode, --nt and a deps artifact."""
    p.add_argument("case", type=case_or_all, help=_CASE_HELP)
    p.add_argument("--mode", choices=MODES, default="both")
    p.add_argument("--nt", type=count, default=24,
                   help="recorded time steps (must match the deps artifact "
                   "when --opportunities is given)")
    p.add_argument("--opportunities", metavar="FILE",
                   help="consume a 'repro deps --opportunities' artifact "
                   "(schema-checked and hash-gated; malformed and stale "
                   "artifacts are refused)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'GPU Technology Applied to "
        "RTM and Seismic Modeling via OpenACC' (PMAM/PPoPP 2015)",
    )
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)

    def command(name: str, run: str, help: str):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    t = command("tables", "repro.bench.cli:run_tables_command",
                "regenerate Tables 3 and 4")
    t.add_argument("--trace", metavar="PATH", help="write a harness trace")
    t.add_argument("--plan", metavar="PATH", type=plan_file,
                   help="apply a tuning plan JSON to its matching case")

    f = command("figures", "repro.bench.cli:run_figures_command",
                "regenerate the Figure 6-15 studies")
    f.add_argument("name", nargs="?", choices=FIGURES, metavar="NAME",
                   help="one figure, e.g. fig12 (or 'tuned' with --plan)")
    f.add_argument("--trace", metavar="PATH", help="write a harness trace")
    f.add_argument("--plan", metavar="PATH", type=plan_file,
                   help="print the plan's default-vs-tuned step-time study")

    p = command("plan", "repro.bench.cli:run_plan_command",
                "offload residency plan for one case")
    p.add_argument("physics", choices=["isotropic", "acoustic", "elastic", "vti"])
    p.add_argument("dims", nargs="+", type=count, metavar="DIMS",
                   help="grid shape, e.g. 512 512 512")

    s = command("sweep", "repro.bench.cli:run_sweep_command",
                "grid-size speedup sweep")
    s.add_argument("--nt", type=count, default=100)
    s.add_argument("--trace", metavar="PATH", help="write a harness trace")

    command("experiments", "repro.bench.cli:run_experiments_command",
            "write EXPERIMENTS.md",
            ).add_argument("path", nargs="?", default="EXPERIMENTS.md")
    command("json", "repro.bench.cli:run_json_command",
            "write machine-readable results",
            ).add_argument("path", nargs="?", default="experiments.json")

    tr = command("trace", "repro.trace.cli:run_trace_command",
                 "run one case instrumented; write a Perfetto trace.json")
    tr.add_argument("case", type=case, help="e.g. iso2d, acoustic3d, el2d")
    tr.add_argument("--mode", choices=["modeling", "rtm"], default="rtm")
    tr.add_argument("--nt", type=count, default=60, help="time steps")
    tr.add_argument("--ranks", type=count, default=1,
                    help="simulated MPI ranks for a halo-exchange superstep")
    tr.add_argument("--out", default="trace.json", help="Perfetto JSON path")
    tr.add_argument("--jsonl", metavar="PATH", help="also write flat JSONL")
    _add_ledger_args(tr)

    li = command("lint", "repro.analyze.cli:run_lint_command",
                 "static analysis of directive schedules (recorded or scripted)")
    _add_target_args(li, "lint", nt=24)
    li.add_argument("--compiler", metavar="NAME", type=compiler,
                    help="compiler persona, e.g. pgi-14.6, cray-8.2.6")
    li.add_argument("--json", action="store_true",
                    help="machine-readable report (alias of --format json)")
    li.add_argument("--format", choices=["text", "json", "sarif"],
                    help="report format (default text; sarif for CI "
                    "code-scanning uploads)")
    li.add_argument("--deep", action="store_true",
                    help="add the whole-program dataflow engine: "
                    "fixed-point coherence proofs with DF* codes and "
                    "event-chain witnesses (appends a ledger record)")
    _add_fail_on(li, "error")
    _add_ledger_args(li)

    de = command("deps", "repro.analyze.dataflow.cli:run_deps_command",
                 "whole-program dependence graph, cross-rank checks, and "
                 "verified fusion/hoisting opportunities")
    _add_target_args(de, "analyze", nt=24)
    de.add_argument("--ranks", type=count, default=1,
                    help="simulated MPI ranks; >1 enables the cross-rank "
                    "send/recv matching and deadlock pass")
    de.add_argument("--dot", metavar="FILE",
                    help="write the Graphviz dependence graph of a single "
                    "target")
    de.add_argument("--opportunities", metavar="FILE",
                    help="write the schema-validated OptimizationOpportunity "
                    "JSON artifact")
    de.add_argument("--no-verify", action="store_true",
                    help="skip the bitwise replay verification of each "
                    "opportunity (faster; verified count will be 0)")
    de.add_argument("--format", choices=["text", "json"], default="text")
    _add_fail_on(de, "none")

    sa = command("sanitize", "repro.sanitize.cli:run_sanitize_command",
                 "dynamic coherence sanitizer + cross-rank halo race detector")
    _add_target_args(sa, "replay", nt=8)
    sa.add_argument("--ranks", type=count, default=1,
                    help="simulated GPUs/MPI ranks (default 1)")
    sa.add_argument("--fix", action="store_true",
                    help="apply proposed directive edits to the --script "
                    "file and re-sanitize")
    sa.add_argument("--output", metavar="FILE",
                    help="with --fix: write the fixed script here instead "
                    "of in place")
    sa.add_argument("--json", action="store_true",
                    help="machine-readable report (alias of --format json)")
    sa.add_argument("--format", choices=["text", "json", "sarif"],
                    help="report format (default text)")
    _add_fail_on(sa, "error")

    ch = command("chaos", "repro.resilience.chaos:run_chaos_command",
                 "seeded fault-injection campaign with executed recovery")
    ch.add_argument("case", type=case_or_all, help=_CASE_HELP)
    ch.add_argument("--seed", type=int, default=7,
                    help="campaign seed (identical seeds reproduce "
                    "identical reports; default 7)")
    ch.add_argument("--faults", metavar="SPEC", type=faults,
                    help="explicit fault specs 'kind[@op][xN][:rank],...' "
                    "instead of the seeded per-kind sweep")
    ch.add_argument("--ranks", type=count, default=1,
                    help="simulated GPUs/MPI ranks (>1 adds message and "
                    "dead-rank faults; default 1)")
    ch.add_argument("--mode", choices=MODES, default="both")
    ch.add_argument("--nt", type=count,
                    help="time steps per run (default 16, or 12 decomposed)")
    ch.add_argument("--format", choices=["text", "json"], default="text")
    ch.add_argument("--out", metavar="PATH",
                    help="also write the report to this file")
    ch.add_argument("--trace", metavar="PATH",
                    help="write a Perfetto trace of faults and recovery")
    _add_ledger_args(ch)

    tu = command("tune", "repro.optim.autotune:run_tune_command",
                 "closed-loop schedule auto-tuning; writes a TuningPlan JSON")
    tu.add_argument("case", type=case, help="e.g. iso2d, acoustic-2d, el3d")
    tu.add_argument("--mode", choices=["modeling", "rtm"], default="rtm")
    tu.add_argument("--budget", type=count, default=8,
                    help="max measured probe runs in the search (default 8)")
    tu.add_argument("--nt", type=count, default=6,
                    help="time steps per probe window (default 6)")
    tu.add_argument("--compiler", metavar="NAME", type=compiler,
                    help="compiler persona, e.g. pgi-14.6, cray-8.2.6")
    tu.add_argument("--out", default="plan.json",
                    help="TuningPlan JSON path (default plan.json)")
    _add_ledger_args(tu)

    sc = command("scale", "repro.observe.scaling:run_scale_command",
                 "multi-rank scaling observatory; writes BENCH_scaling.json")
    sc.add_argument("case", type=case_list,
                    help="e.g. iso2d, ac3d — 'all' or a comma list for the "
                    "full sweep")
    sc.add_argument("--ranks", type=counts, default="1,2,4,8",
                    help="comma-separated rank counts (default 1,2,4,8)")
    sc.add_argument("--mode", choices=["modeling", "rtm"], default="rtm")
    sc.add_argument("--nt", type=count, default=16,
                    help="time steps per point (default 16)")
    sc.add_argument("--out", default="BENCH_scaling.json",
                    help="scaling artifact path (default BENCH_scaling.json)")
    _add_ledger_args(sc)

    sv = command("serve", "repro.serve.campaign:run_serve_command",
                 "shot-parallel RTM service with fault-tolerant scheduling; "
                 "writes BENCH_service.json")
    sv.add_argument("case", type=survey_list,
                    help="e.g. iso2d, ac2d, el2d — 'all' or a comma list for "
                    "the 2-D sweep")
    sv.add_argument("--shots", type=count, default=4,
                    help="shots per survey (default 4)")
    sv.add_argument("--workers", type=counts, default="2,4",
                    help="comma-separated worker counts (default 2,4)")
    sv.add_argument("--gpus", type=count, default=1,
                    help="cards per worker node; >1 adds the verified "
                    "multi-card node harness (default 1)")
    sv.add_argument("--nt", type=count, default=24,
                    help="time steps per shot (default 24)")
    sv.add_argument("--faults", metavar="SPEC", type=faults,
                    help="fault specs 'kind[@op][xN][:rank],...' — rank "
                    "names the worker (mpi-rank-dead@x1, shot-poison:2)")
    sv.add_argument("--seed", type=int, default=7,
                    help="scheduler/backoff seed (default 7)")
    sv.add_argument("--capacity", type=count, default=64,
                    help="bounded shot-queue capacity (default 64)")
    sv.add_argument("--policy", choices=["reject", "shed"], default="reject",
                    help="admission policy when a survey does not fit "
                    "(default reject)")
    sv.add_argument("--no-resubmit", action="store_true",
                    help="skip the duplicate survey submission that "
                    "exercises the result cache")
    sv.add_argument("--quarantine-after", type=count, default=3,
                    help="failures before a poisoned shot is "
                    "quarantined (default 3)")
    sv.add_argument("--format", choices=["text", "json"], default="text")
    sv.add_argument("--out", default="BENCH_service.json",
                    help="service artifact path (default BENCH_service.json)")
    _add_ledger_args(sv)

    rp = command("report", "repro.observe.report:run_report_command",
                 "diff the latest runs against the ledger trajectory")
    rp.add_argument("--check", action="store_true",
                    help="exit non-zero when any group regressed")
    rp.add_argument("--ledger", metavar="PATH",
                    help="ledger path (default .repro/ledger.jsonl)")
    rp.add_argument("--threshold", type=non_negative, default=10.0,
                    help="regression threshold in percent (default 10)")
    rp.add_argument("--window", type=count, default=5,
                    help="baseline = median of up to N prior runs (default 5)")
    rp.add_argument("--command-filter", metavar="CMD", choices=LEDGER_COMMANDS,
                    help="only report groups of one ledger-writing command "
                    f"({'|'.join(LEDGER_COMMANDS)})")
    rp.add_argument("--format", choices=["text", "json"], default="text")

    co = command("compile", "repro.compile.cli:run_compile_command",
                 "fused-kernel lowering of recorded schedules, with bitwise "
                 "verification against the interpreter")
    _add_recorded_args(co)
    co.add_argument("--plan", metavar="FILE", type=plan_file,
                    help="apply a 'repro tune' TuningPlan to launch choices "
                    "(fused launches share the dominant part's entry)")
    co.add_argument("--bench", metavar="FILE",
                    help="wall-clock interpreted vs compiled and write the "
                    "BENCH_step.json document here")
    co.add_argument("--repeats", type=count, default=5,
                    help="timing repetitions per side for --bench "
                    "(best-of-N; default 5)")
    co.add_argument("--format", choices=["text", "json"], default="text")
    _add_ledger_args(co)

    va = command("validate", "repro.analyze.validate_cli:run_validate_command",
                 "static capacity + translation proofs of recorded schedules "
                 "(DF2xx findings, SARIF for CI uploads)")
    _add_recorded_args(va)
    va.add_argument("--artifact", metavar="FILE",
                    help="write the machine-readable proof document "
                    "(capacity phases + discharged obligations)")
    _add_fail_on(va, "error")
    va.add_argument("--format", choices=["text", "json", "sarif"],
                    default="text")
    _add_ledger_args(va)
    return ap


def _check_line(args: argparse.Namespace) -> None:
    """The rules that span flags (raise ConfigurationError naming them)."""
    command = args.command
    if command in ("lint", "deps", "sanitize") and args.case is None:
        if args.script is None:
            raise ConfigurationError("needs a CASE (or 'all', or --script FILE)")
    if command == "deps" and args.dot and args.script is None:
        if len(case_targets(args.case, args.mode)) != 1:
            raise ConfigurationError(
                "--dot exports one graph: give a single case and --mode"
            )
    if command == "sanitize" and args.fix and args.script is None:
        raise ConfigurationError(
            "--fix needs --script FILE (recorded-schedule findings "
            "carry advisory fixes only)"
        )
    if command == "chaos" and args.faults is not None:
        from repro.resilience.faults import CATEGORY, MPI_KINDS, parse_faults

        for spec in parse_faults(args.faults):
            if spec.kind not in CATEGORY:  # no device or MPI operation
                raise ConfigurationError(
                    f"--faults: chaos cannot inject '{spec.kind}' (only "
                    "serve injects it)"
                )
            if spec.kind in MPI_KINDS and args.ranks == 1:
                raise ConfigurationError(
                    f"--faults: '{spec.kind}' needs --ranks 2 or more (a "
                    "one-card run has no MPI world)"
                )
    if command == "figures" and args.name == "tuned" and args.plan is None:
        raise ConfigurationError("NAME 'tuned' needs --plan PATH")
    if command == "plan" and len(args.dims) not in (2, 3):
        raise ConfigurationError(
            f"DIMS wants 2 or 3 grid sizes (got {len(args.dims)})"
        )
    if command == "report" and args.check:  # gate only what reads in full
        from repro.observe.ledger import DEFAULT_LEDGER_PATH, RunLedger

        ledger = RunLedger(args.ledger or DEFAULT_LEDGER_PATH)
        if not os.path.exists(ledger.path):
            raise ConfigurationError(f"--check: no ledger at {ledger.path}")
        ledger.records()
        if ledger.warnings:
            raise ConfigurationError(f"--check: {ledger.warnings[0]}")


def parse_line(argv: list[str]) -> argparse.Namespace:
    """Parse and check one command line: raises
    :class:`ConfigurationError` naming a refused flag or value."""
    args = build_parser().parse_args(argv)
    _check_line(args)
    return args


def dispatch(args: argparse.Namespace) -> int:
    """Import the command's module and run it; returns its exit code."""
    module, function = args.run.split(":")
    return getattr(importlib.import_module(module), function)(args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_line(argv)
    except ConfigurationError as exc:
        # the top-level parser takes only the command, so argv[0] names it
        print(f"{argv[0]}: {exc}")
        return 2
    return dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
