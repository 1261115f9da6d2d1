"""Driver behind ``python -m repro trace CASE``.

Runs one seismic case end-to-end with every layer instrumented — the acc
runtime's data/compute constructs, the simulated device's kernel and copy
engines (one Perfetto track per async queue), the pipeline phases, and
(when ``--ranks`` > 1) a halo-exchange superstep over the simulated MPI
world — then writes a Chrome/Perfetto ``trace.json`` plus a text summary
in the style of the paper's profiler figures.

All span timestamps are *simulated* seconds from the device's
:class:`~repro.utils.timer.SimClock`, so the timeline you open in the
Perfetto UI is the modelled GPU timeline, not this process's wall clock.
"""

from __future__ import annotations

from repro.cases import RECORD_SHAPES, layered_config, parse_case, space_order_of
from repro.trace.export import summary_text, write_jsonl, write_perfetto
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError


def trace_case(
    case: str,
    mode: str = "rtm",
    nt: int = 60,
    ranks: int = 1,
    tracer: Tracer | None = None,
):
    """Run ``case`` under full instrumentation; returns ``(tracer, result)``.

    ``mode`` selects modeling (forward only) or RTM (both phases — the
    richer trace). ``ranks`` > 1 appends an instrumented halo-exchange
    superstep of the final wavefield over a simulated MPI world.
    """
    from repro.core import GPUOptions, ModelingConfig, RTMConfig
    from repro.core.shot import Shot

    physics, ndim = parse_case(case)
    if mode not in ("modeling", "rtm"):
        raise ConfigurationError(f"mode must be 'modeling' or 'rtm', not '{mode}'")
    if nt < 1:
        raise ConfigurationError("nt must be >= 1")
    if ranks < 1:
        raise ConfigurationError("ranks must be >= 1")

    tracer = tracer if tracer is not None else Tracer()
    shape = RECORD_SHAPES[ndim]
    if ranks > 1:
        return tracer, _trace_multigpu(
            tracer, physics, shape, mode, nt, ranks, case=case, ndim=ndim
        )
    config = (RTMConfig if mode == "rtm" else ModelingConfig)(
        **layered_config(physics, shape, nt)
    )
    result = Shot(config, mode, GPUOptions(), tracer=tracer).run()
    # the whole-run umbrella span, emitted post hoc: its clock is only
    # rebound to the device's simulated timeline once the Runtime exists
    tracer.emit(f"trace.{mode}", 0.0, tracer.now(), track="run", cat="phase",
                case=case, physics=physics, ndim=ndim, nt=nt)
    return tracer, result


class MultiGpuTraceResult:
    """What a decomposed trace run yields: per-rank modelled timings (the
    single-card ``result.gpu`` has no one-card equivalent here)."""

    def __init__(self, rank_times):
        self.rank_times = list(rank_times)
        self.gpu = None


def _trace_multigpu(
    tracer: Tracer, physics: str, shape, mode: str, nt: int, ranks: int,
    case: str, ndim: int,
) -> MultiGpuTraceResult:
    """The decomposed path: a traced :class:`~repro.core.multigpu.
    MultiGpuPipeline` merges each rank's timeline into ``tracer`` under
    ``rank<r>:``-prefixed processes, halo-exchange spans on the shared
    timeline."""
    from repro.core import GPUOptions
    from repro.core.multigpu import MultiGpuPipeline

    mgp = MultiGpuPipeline(
        physics, shape, ranks,
        options=GPUOptions(),
        space_order=space_order_of(ndim),
        boundary_width=8,
        tracer=tracer,
    )
    times = mgp.run(nt, 4, mode)
    tracer.emit(f"trace.{mode}", 0.0, mgp.makespan_s(), track="run",
                cat="phase", case=case, physics=physics, ndim=ndim, nt=nt,
                ranks=ranks)
    return MultiGpuTraceResult(times)


def run_trace_command(args) -> int:
    """``python -m repro trace`` entry point (argparse namespace in)."""
    from repro.bench.report import format_gpu_times
    from repro.observe import ledger_path_from_args, observed_run
    from repro.observe.reduce import reduce_trace

    ledger_path = ledger_path_from_args(args)
    with observed_run(ledger_path, "trace", args.case, args.mode,
                      args.ranks) as record:
        tracer, result = trace_case(
            args.case, mode=args.mode, nt=args.nt, ranks=args.ranks
        )
        trace = write_perfetto(tracer, args.out)
        if args.jsonl:
            write_jsonl(tracer, args.jsonl)
        print(summary_text(
            tracer, title=f"Trace summary — {args.case} ({args.mode})"
        ))
        print()
        reduction = reduce_trace(tracer)
        print(reduction.to_text(
            title=f"Trace reduction — {args.case} ({args.mode})"
        ))
        print()
        if result.gpu is not None:
            print(format_gpu_times("GPU time by category", result.gpu))
            print()
        for r, times in enumerate(getattr(result, "rank_times", ())):
            print(format_gpu_times(f"GPU time by category — rank {r}", times))
            print()
        print(f"wrote {args.out} ({len(trace['traceEvents'])} events; "
              "open in https://ui.perfetto.dev)")
        if args.jsonl:
            print(f"wrote {args.jsonl}")
        record.metrics = reduction.summary_metrics()
    if ledger_path is not None:
        print(f"ledger {ledger_path} (run {record.run_id})")
    return 0
