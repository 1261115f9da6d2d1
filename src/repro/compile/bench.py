"""Wall-clock benchmarking of interpreted vs compiled execution.

Everything else in this package talks about *simulated* device seconds;
this module measures the one thing the compiler actually changes — the
**host-side** Python cost of driving the schedule.  Each side runs the
identical schedule on identical fresh twins (same device spec, persona,
flags), so the simulated times agree by construction and the
``perf_counter`` delta isolates interpreter overhead and the launches
removed by fusion.  Neither side re-derives each launch in steady state:
both replay each repeated step from the priced-op tape its first run
recorded (the runtime's one tape policy), so the difference is mostly
the first (recorded) steps and the fused launches.

``python -m repro compile all --bench BENCH_step.json`` persists the
results in the same shape as ``BENCH_autotune.json``; the benchmark
suite (``benchmarks/test_step_compile.py``) asserts compiled ≤
interpreted on every seed case.
"""

from __future__ import annotations

import gc
import time
from typing import TYPE_CHECKING, Callable

from repro.utils.fold import left_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.compiler import CompiledPipeline, CompileRequest
    from repro.core.config import GPUOptions
    from repro.core.platform import Platform

#: timing repetitions; min-of-N suppresses scheduler noise
DEFAULT_REPEATS = 5


def _time_best(fns: tuple[Callable[[], None], ...], repeats: int) -> list[float]:
    """Best-of-``repeats`` wall-clock seconds of each of ``fns`` (GC
    paused). After one warm-up each (imports, allocation paths, memoised
    lowering), the repetitions interleave, so a burst of load on the
    machine lands on every side rather than on one."""
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def _run_interpreted(
    request: "CompileRequest", options: "GPUOptions", platform: "Platform"
) -> None:
    from repro.core.pipeline import run_schedule
    from repro.core.shot import build_pipeline

    pipe = build_pipeline(
        options, platform, request.physics, request.shape, request.nreceivers,
        request.space_order, request.boundary_width, request.pml_variant,
    )
    run_schedule(pipe, request.schedule)


def measure_case(
    request: "CompileRequest",
    compiled: "CompiledPipeline",
    options: "GPUOptions",
    platform: "Platform",
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Wall-clock interpreted vs compiled for one case.

    Returns the per-case record written into ``BENCH_step.json``:
    per-step host seconds both ways, the speedup, launch counts, and the
    roofline-modelled simulated savings of the applied fusions.
    """
    from repro.core.shot import _build_runtime

    interp_total, compiled_total = _time_best(
        (
            lambda: _run_interpreted(request, options, platform),
            lambda: compiled.bind(_build_runtime(options, platform)).run(),
        ),
        repeats,
    )
    nt = max(1, request.nt)
    interp_step = interp_total / nt
    compiled_step = compiled_total / nt
    modelled_saved = left_sum(
        rec.modelled.get("saved_seconds", 0.0) for rec in compiled.applied
    )
    return {
        "interpreted_s": interp_total,
        "compiled_s": compiled_total,
        "interpreted_step_s": interp_step,
        "compiled_step_s": compiled_step,
        "speedup": interp_step / compiled_step if compiled_step > 0 else 0.0,
        "applied": len(compiled.applied),
        "launches_per_step": compiled.launches_per_step(),
        "modelled_saved_s_per_step": modelled_saved,
        "verified": compiled.verified,
    }


def bench_document(
    cases: dict[str, dict], nt: int, snap_period: int, repeats: int
) -> dict:
    """The ``BENCH_step.json`` document."""
    return {
        "schema": 1,
        "benchmark": "step_compile",
        "nt": nt,
        "snap_period": snap_period,
        "repeats": repeats,
        "cases": cases,
    }


__all__ = ["DEFAULT_REPEATS", "measure_case", "bench_document"]
