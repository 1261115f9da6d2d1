"""The paper results must be the same bits on every supported Python.

CPython 3.12 made the builtin ``sum`` of floats compensated (Neumaier
summation); 3.10 and 3.11 add left to right. The committed results are
3.11 values, so every modelled float reduction folds left explicitly
(:func:`repro.utils.fold.left_sum`). The digest below is checked on the
running interpreter (CI runs 3.10, 3.11 and 3.12) and, on any
interpreter, with ``sum`` replaced by an emulation of 3.12's. One small
case of each other wall-clock workload (a served survey, an executed RTM
shot, a compiled case and its bound run) must also digest the same under
the emulation, and so must one row of each committed modelled BENCH
document (a scaling point, a tuning plan, a step-bench case's modelled
fields).
"""

import builtins
import hashlib
import json
import math

import numpy as np
import pytest

from repro.utils.fold import left_sum

#: sha256 of ``json.dumps(results_json(), sort_keys=True)``
RESULTS_DIGEST = "587faa599258472585044a18eff86268dfad7d8c702d2ad4b7f654e11730ba19"


def sum_312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``: an exact fast path for ints, then a
    float fast path with Neumaier compensation, then plain ``+``."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


def _digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def test_emulation_is_compensated():
    assert sum_312([0.1] * 10) == 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert sum_312([1, 2, True]) == 4
    assert sum_312([], 0.5) == 0.5


def test_paper_results_digest(paper_results):
    assert _digest(paper_results) == RESULTS_DIGEST


def test_results_digest_under_compensated_sum(monkeypatch):
    from repro.bench.experiments import results_json

    monkeypatch.setattr(builtins, "sum", sum_312)
    assert _digest(results_json()) == RESULTS_DIGEST


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode() + part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _times(g) -> dict:
    """Every field of a GpuTimes, JSON-shaped."""
    return {
        "total": g.total, "kernel": g.kernel, "h2d": g.h2d, "d2h": g.d2h,
        "alloc": g.alloc, "launches": g.launches, "success": g.success,
        "failure": g.failure, "categories": dict(g.categories),
        "profile": g.profile.to_json(),
    }


def _served_survey() -> str:
    """iso2d, two shots at nt 8 on two workers, one of them dead."""
    from repro.core import shot_line
    from repro.resilience.faults import FaultPlan, parse_faults
    from repro.serve import SurveyScheduler, serve_case_config

    config = serve_case_config("iso2d", nt=8)
    xs = shot_line(config.model, 2)
    plan = FaultPlan(seed=1, specs=parse_faults("mpi-rank-dead@x1"))
    scheduler = SurveyScheduler(workers=2, plan=plan, seed=1)
    scheduler.submit_survey("primary", config, xs, case="iso2d")
    scheduler.submit_survey("resubmit", config, xs, case="iso2d", primary=False)
    result = scheduler.run()
    return _sha(
        result.stacks["primary"], result.images["primary"], result.metrics()
    )


def _executed_shot() -> str:
    """One executed iso2d RTM shot at 48 x 48, nt 8."""
    from repro.core import GPUOptions, RTMConfig, run_rtm
    from repro.model import layered_model

    model = layered_model(
        (48, 48), spacing=10.0, interfaces=[300.0], velocities=[1500.0, 2400.0],
    )
    config = RTMConfig(
        physics="isotropic", model=model, nt=8, dt=1.3e-3, peak_freq=12.0,
        space_order=8, boundary_width=16, snap_period=4,
    )
    result = run_rtm(config, gpu_options=GPUOptions())
    return _sha(result.raw_image, result.seismogram, _times(result.gpu))


def _compiled_case() -> str:
    """iso2d RTM at nt 8, compiled, then its bound run."""
    from repro.compile import CompileRequest, compile_case
    from repro.core import GPUOptions
    from repro.core.platform import CRAY_K40
    from repro.core.shot import _build_runtime

    compiled = compile_case(CompileRequest.from_case("iso2d", "rtm", nt=8))
    times = compiled.bind(_build_runtime(GPUOptions(), CRAY_K40)).run()
    return _sha(
        compiled.program_sha, [a.to_json() for a in compiled.applied],
        compiled.launches_per_step(), compiled.verified, _times(times),
    )


@pytest.mark.parametrize(
    "workload", [_served_survey, _executed_shot, _compiled_case],
    ids=["serve-survey", "rtm-execute", "compile-verify"],
)
def test_wall_workload_digest_under_compensated_sum(workload, monkeypatch):
    builtin = workload()
    monkeypatch.setattr(builtins, "sum", sum_312)
    assert workload() == builtin


def _scale_point() -> str:
    """One BENCH_scaling.json point: iso2d RTM on one rank, nt 16."""
    from repro.observe.scaling import run_scale_point

    point, reduction = run_scale_point("iso2d", 1, mode="rtm", nt=16)
    return _sha(point.metrics(), point.per_rank, reduction.to_json())


def _tuning_plan() -> str:
    """One BENCH_autotune.json row's plan: acoustic-2d RTM, two probes."""
    from repro.optim.autotune import request_for_case, tune_case

    plan = tune_case(request_for_case("acoustic-2d", mode="rtm"), budget=2)
    return _sha(plan.to_json())


#: BENCH_step.json fields that time the host rather than model the device
HOST_TIMINGS = (
    "interpreted_s", "compiled_s", "interpreted_step_s", "compiled_step_s",
    "speedup",
)


def _step_bench_case() -> str:
    """The modelled fields of one BENCH_step.json case: iso2d RTM, nt 24."""
    from repro.compile import CompileRequest, compile_case, measure_case
    from repro.core import GPUOptions
    from repro.core.platform import CRAY_K40

    request = CompileRequest.from_case("iso2d", "rtm", nt=24)
    options = GPUOptions()
    compiled = compile_case(request, options=options)
    row = measure_case(request, compiled, options, CRAY_K40, repeats=1)
    return _sha({k: v for k, v in row.items() if k not in HOST_TIMINGS})


@pytest.mark.parametrize(
    "document", [_scale_point, _tuning_plan, _step_bench_case],
    ids=["BENCH_scaling", "BENCH_autotune", "BENCH_step"],
)
def test_bench_document_under_compensated_sum(document, monkeypatch):
    builtin = document()
    monkeypatch.setattr(builtins, "sum", sum_312)
    assert document() == builtin
