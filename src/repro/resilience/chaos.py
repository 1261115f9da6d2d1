"""The chaos harness behind ``python -m repro chaos``.

For each seed case the harness:

1. runs the **fault-free reference** under a counting injector (empty
   plan) — this yields both the golden outputs and the per-category
   operation-count envelope;
2. draws a seeded :class:`~repro.resilience.faults.FaultPlan` over that
   envelope (one spec per fault kind, injection points uniform over the
   operations the run actually performs);
3. runs each spec through the matching resilient wrapper
   (:class:`~repro.resilience.recovery.ResilientPipeline` single-card,
   :class:`~repro.resilience.recovery.ResilientMultiGpu` when
   ``ranks > 1``) and compares the recovered answer against the
   reference — exact first, then a tight ``allclose``.

Everything is a pure function of ``(case, mode, seed, ranks, nt)``: no
wall clock, no global RNG — identical seeds produce identical
:class:`~repro.resilience.report.ResilienceReport` JSON.
"""

from __future__ import annotations

import numpy as np

from repro.cases import CASES, MODES, layered_config, parse_case, space_order_of
from repro.resilience.faults import (
    DEVICE_KINDS,
    MPI_KINDS,
    RANK_DEAD,
    FaultPlan,
    parse_faults,
)
from repro.resilience.injector import FaultInjector
from repro.resilience.recovery import (
    BackoffPolicy,
    ResilientMultiGpu,
    ResilientPipeline,
)
from repro.resilience.report import FaultOutcome, ResilienceReport
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError, ReproError

#: chaos-run grid sizes — smaller than the trace CLI's: each case runs
#: once per fault kind plus the reference
CHAOS_SHAPES = {2: (64, 64), 3: (32, 32, 32)}

#: fault kinds exercised per world size
SINGLE_RANK_KINDS = DEVICE_KINDS
MULTI_RANK_KINDS = DEVICE_KINDS + MPI_KINDS + (RANK_DEAD,)

_RTOL, _ATOL = 1e-5, 1e-6


def _equivalent(a: np.ndarray, b: np.ndarray) -> tuple[bool, str]:
    """Exact first (recovery replays the same NumPy ops on restored bits),
    tolerance second; returns (equivalent, note)."""
    if np.array_equal(a, b):
        return True, "bitwise"
    if a.shape == b.shape and np.allclose(a, b, rtol=_RTOL, atol=_ATOL):
        return True, "allclose"
    return False, "mismatch"


def _chaos_config(case: str, nt: int):
    """Build the (physics, ndim, config kwargs) of one chaos case."""
    physics, ndim = parse_case(case)
    return physics, ndim, layered_config(physics, CHAOS_SHAPES[ndim], nt)


def _min_rank_envelope(injector: FaultInjector, ranks: int) -> dict[str, int]:
    """Per-category op counts safe for *any* rank filter: rank-filtered
    specs fire against their rank's own counter, so the seeded op index
    must fit inside the smallest per-rank count."""
    if ranks <= 1:
        return injector.op_counts()
    out: dict[str, int] = {}
    for cat in injector.op_counts():
        per_rank = [injector.op_count(cat, rank=r) for r in range(ranks)]
        floor = min(per_rank)
        if floor > 0:
            out[cat] = floor
    return out


def _chaos_loop(
    case: str, mode: str, seed: int, ranks: int, faults: str | None,
    kinds: tuple[str, ...], tracer, build, answers, first_row: int = 0,
) -> list[FaultOutcome]:
    """The campaign of one case: the fault-free reference run (golden
    answers and the per-category op envelope), then one outcome per
    seeded or parsed spec. ``build(plan, tracer)`` makes a resilient run,
    ``answers(run)`` runs it and returns the arrays compared against the
    reference, in order, until the first mismatch.

    With ``tracer``, each fault run records on a fresh tracer of its own,
    so its spans read its own clock, and is absorbed into ``tracer`` under
    the process prefix ``run<k>:``, ``k`` its row in the report (this
    case's first run is row ``first_row``)."""
    ref = build(None, None)
    ref_answers = answers(ref)
    envelope = _min_rank_envelope(ref.injector, ranks)
    if faults:
        specs = parse_faults(faults)
    else:
        specs = FaultPlan.seeded(seed, tuple(kinds), envelope, ranks=ranks).specs

    outcomes = []
    for row, spec in enumerate(specs, first_row):
        run_tracer = Tracer() if tracer is not None else None
        run = build(FaultPlan(seed=seed, specs=(spec,)), run_tracer)
        recovered, equivalent, notes = False, False, ""
        try:
            got = answers(run)
            recovered = True
            for want, have in zip(ref_answers, got):
                equivalent, notes = _equivalent(want, have)
                if not equivalent:
                    break
        except ReproError as exc:
            notes = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.absorb(run_tracer, f"run{row}:")
        stats, injector = run.stats, run.injector
        outcomes.append(FaultOutcome(
            case=case,
            mode=mode,
            kind=spec.kind,
            spec=spec.spec_string(),
            injected=len(injector.events),
            detected=stats.detected > 0,
            retries=stats.retries,
            restarts=stats.restarts,
            degraded=",".join(stats.degraded),
            recovered=recovered,
            equivalent=equivalent,
            recovery_cost_s=stats.recovery_cost_s,
            events=tuple(ev.label() for ev in injector.events),
            notes=notes,
        ))
    return outcomes


# ---------------------------------------------------------------------------
# single-card campaign (the 12 executed seed cases)
# ---------------------------------------------------------------------------

def run_chaos_case(
    case: str,
    mode: str = "rtm",
    seed: int = 7,
    nt: int = 16,
    faults: str | None = None,
    kinds: tuple[str, ...] | None = None,
    tracer=None,
    first_row: int = 0,
) -> list[FaultOutcome]:
    """Chaos one executed single-card case; one outcome per fault spec
    (``first_row``: the report row of the first, for the trace)."""
    from repro.core.config import GPUOptions, ModelingConfig, RTMConfig

    if mode not in ("modeling", "rtm"):
        raise ConfigurationError(f"mode must be 'modeling' or 'rtm', not '{mode}'")
    _, _, kw = _chaos_config(case, nt)
    cfg_cls = RTMConfig if mode == "rtm" else ModelingConfig

    def build(plan, inj_tracer):
        return ResilientPipeline(
            cfg_cls(**kw),
            gpu_options=GPUOptions(),
            tracer=inj_tracer,
            plan=plan,
            backoff=BackoffPolicy(seed=seed),
        )

    def answers(run):
        if mode == "rtm":
            return (run.run_rtm().image,)
        result = run.run_modeling()
        return result.final_wavefield, result.seismogram

    return _chaos_loop(
        case, mode, seed, 1, faults,
        kinds if kinds is not None else SINGLE_RANK_KINDS, tracer, build, answers,
        first_row,
    )


# ---------------------------------------------------------------------------
# decomposed campaign (ranks > 1)
# ---------------------------------------------------------------------------

def run_chaos_case_multigpu(
    case: str,
    mode: str = "rtm",
    seed: int = 7,
    ranks: int = 2,
    nt: int = 12,
    faults: str | None = None,
    kinds: tuple[str, ...] | None = None,
    tracer=None,
    first_row: int = 0,
) -> list[FaultOutcome]:
    """Chaos one decomposed case over ``ranks`` simulated cards
    (``first_row``: the report row of its first run, for the trace)."""
    if mode not in ("modeling", "rtm"):
        raise ConfigurationError(f"mode must be 'modeling' or 'rtm', not '{mode}'")
    if ranks < 2:
        raise ConfigurationError("multi-GPU chaos needs ranks >= 2")
    physics, ndim, _ = _chaos_config(case, nt)

    def build(plan, inj_tracer):
        return ResilientMultiGpu(
            physics, CHAOS_SHAPES[ndim], ranks,
            plan=plan,
            backoff=BackoffPolicy(seed=seed),
            boundary_width=8,
            space_order=space_order_of(ndim),
            seed=seed,
            tracer=inj_tracer,
        )

    return _chaos_loop(
        case, mode, seed, ranks, faults,
        kinds if kinds is not None else MULTI_RANK_KINDS, tracer, build,
        lambda run: (run.run(nt, 4, mode=mode),), first_row,
    )


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def run_chaos_campaign(
    cases: tuple[str, ...] | None = None,
    modes: tuple[str, ...] = ("modeling", "rtm"),
    seed: int = 7,
    ranks: int = 1,
    nt: int | None = None,
    faults: str | None = None,
    tracer=None,
) -> ResilienceReport:
    """The full campaign: every case x mode x fault kind."""
    cases = tuple(cases) if cases else CASES
    report = ResilienceReport(seed=seed, ranks=ranks)
    for case in cases:
        for mode in modes:
            if ranks > 1:
                rows = run_chaos_case_multigpu(
                    case, mode=mode, seed=seed, ranks=ranks,
                    nt=nt if nt is not None else 12,
                    faults=faults, tracer=tracer,
                    first_row=len(report.outcomes),
                )
            else:
                rows = run_chaos_case(
                    case, mode=mode, seed=seed,
                    nt=nt if nt is not None else 16,
                    faults=faults, tracer=tracer,
                    first_row=len(report.outcomes),
                )
            for row in rows:
                report.add(row)
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_chaos_command(args) -> int:
    """``python -m repro chaos`` entry point (argparse namespace in)."""
    from repro.observe import ledger_path_from_args, observed_run
    from repro.trace.tracer import Tracer

    tracer = Tracer() if args.trace else None

    # ``all`` here honours --mode: the campaign crosses cases with modes
    cases = None if args.case.lower() == "all" else (args.case,)
    ledger_path = ledger_path_from_args(args)
    with observed_run(ledger_path, "chaos", args.case, args.mode,
                      args.ranks) as record:
        report = run_chaos_campaign(
            cases=cases, modes=MODES[args.mode], seed=args.seed,
            ranks=args.ranks, nt=args.nt, faults=args.faults, tracer=tracer,
        )

        text = report.to_json() if args.format == "json" else report.to_text()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {args.out}")
            if args.format != "json":
                print(text)
        else:
            print(text)

        if tracer is not None:
            from repro.trace.export import write_perfetto

            write_perfetto(tracer, args.trace)
            print(f"wrote {args.trace}")

        runs = len(report.outcomes)
        record.metrics = {
            "runs": float(runs),
            "injected": float(report.injected),
            "unrecovered": float(report.unrecovered),
            "recovered_fraction": (
                1.0 - report.unrecovered / runs if runs else 1.0
            ),
            "recovery_cost_s": report.recovery_cost_s,
        }
    if ledger_path is not None:
        print(f"ledger {ledger_path} (run {record.run_id})")
    return 0 if report.unrecovered == 0 else 1


__all__ = [
    "CHAOS_SHAPES",
    "SINGLE_RANK_KINDS",
    "MULTI_RANK_KINDS",
    "run_chaos_case",
    "run_chaos_case_multigpu",
    "run_chaos_campaign",
    "run_chaos_command",
]
