"""The paper-harness commands of ``python -m repro``: ``tables``,
``figures``, ``plan``, ``sweep``, ``experiments`` and ``json``."""

from __future__ import annotations


def _harness_tracer(args):
    """Wall-clock tracer for ``--trace PATH`` on the harness commands (the
    dedicated ``trace`` command uses the device's simulated clock instead)."""
    from repro.trace import NULL_TRACER, Tracer

    return Tracer() if getattr(args, "trace", None) else NULL_TRACER


def _write_harness_trace(args, tracer) -> None:
    if getattr(args, "trace", None):
        from repro.trace import write_perfetto

        write_perfetto(tracer, args.trace)
        print(f"wrote {args.trace}")


def _load_plan(args):
    """The ``--plan PATH`` tuning plan, or None."""
    if not getattr(args, "plan", None):
        return None
    from repro.optim.autotune import load_plan

    plan = load_plan(args.plan)
    print(f"applying tuning plan {args.plan} "
          f"({plan.case} {plan.mode}, {plan.compiler} on {plan.platform})")
    return plan


def run_tables_command(args) -> int:
    from repro.bench import format_table3, format_table4

    plan = _load_plan(args)
    tracer = _harness_tracer(args)
    with tracer.span("tables", track="cli", cat="harness"):
        with tracer.span("table3", track="cli", cat="harness"):
            print(format_table3(plan=plan))
        print()
        with tracer.span("table4", track="cli", cat="harness"):
            print(format_table4(plan=plan))
    _write_harness_trace(args, tracer)
    return 0


def run_figures_command(args) -> int:
    from repro.bench import figures
    from repro.bench.report import format_series

    wanted = args.name
    plan = _load_plan(args)
    tracer = _harness_tracer(args)

    def want(tag):
        return wanted is None or wanted == tag

    if plan is not None and (wanted is None or wanted == "tuned"):
        with tracer.span("tuned", track="cli", cat="harness"):
            print(format_series(
                f"Auto-tuned — {plan.case} {plan.mode} step time "
                f"({plan.compiler})",
                figures.plan_comparison(plan),
            ))

    if want("fig6") or want("fig7"):
        with tracer.span("fig6_fig7", track="cli", cat="harness"):
            for comp, series in figures.fig6_fig7_iso_variants().items():
                print(format_series(f"Figs 6/7 — ISO 3D variants ({comp})", series))
    if want("fig8") or want("fig9"):
        with tracer.span("fig8_fig9", track="cli", cat="harness"):
            for dim, series in figures.fig8_fig9_acoustic_constructs().items():
                print(format_series(f"Figs 8/9 — acoustic {dim} on CRAY", series))
    if want("fig10"):
        with tracer.span("fig10", track="cli", cat="harness"):
            pts = figures.fig10_register_sweep()
            print(format_series(
                "Fig 10 — elastic 3D registers/thread (K40)",
                {str(p.maxregcount): p.seconds for p in pts},
            ))
    if want("fig11"):
        with tracer.span("fig11", track="cli", cat="harness"):
            print(format_series("Fig 11 — async improvement fraction",
                                figures.fig11_async(), unit=""))
    if want("fig12"):
        with tracer.span("fig12", track="cli", cat="harness"):
            for card, s in figures.fig12_fission().items():
                print(format_series(f"Fig 12 — acoustic 3D fission ({card})", s))
    if want("fig13"):
        with tracer.span("fig13", track="cli", cat="harness"):
            for card, s in figures.fig13_coalescing().items():
                print(format_series(f"Fig 13 — coalescing fix ({card})", s))
    if want("fig14") or want("fig15"):
        with tracer.span("fig14_fig15", track="cli", cat="harness"):
            for label, rep in figures.fig14_fig15_profiles().items():
                print(f"Figs 14/15 — profile ({label})")
                print(rep.to_text())
                print()
    _write_harness_trace(args, tracer)
    return 0


def run_plan_command(args) -> int:
    from repro.core import plan_offload
    from repro.gpusim import K40, M2090

    shape = tuple(args.dims)
    for spec in (M2090, K40):
        print(plan_offload(args.physics, shape, spec).report())
        print()
    return 0


def run_sweep_command(args) -> int:
    from repro.bench import grid_size_sweep

    tracer = _harness_tracer(args)
    with tracer.span("sweep", track="cli", cat="harness", nt=args.nt):
        for p in grid_size_sweep(nt=args.nt):
            tracer.instant(f"point:{int(p.x)}", track="cli", cat="harness",
                           speedup=p.speedup)
            print(f"  {int(p.x):>5}^2 : speedup {p.speedup:5.2f} "
                  f"(GPU {p.gpu_total:.2f} s, CPU {p.cpu_total:.2f} s)")
    _write_harness_trace(args, tracer)
    return 0


def run_experiments_command(args) -> int:
    from repro.bench.experiments import generate

    generate(args.path)
    print(f"wrote {args.path}")
    return 0


def run_json_command(args) -> int:
    from repro.bench.experiments import write_json

    write_json(args.path)
    print(f"wrote {args.path}")
    return 0
