"""The four wall-clock workloads: inputs, the timed call, and its checks.

Each workload names one public entry point of the library and is built so
that one layer dominates it while another is nearly idle:

* ``paper-estimate`` — the paper regeneration (Tables 3 and 4, Figures
  10-15) in estimate mode, on a shortened time axis: the ``gpusim`` cost
  model and the ``acc`` runtime, no NumPy physics.
* ``rtm-execute`` — ``run_rtm`` with the offload pipeline attached, one
  shot per physics: real NumPy stencils next to the interpreted pipeline.
* ``serve-survey`` — ``SurveyScheduler.run`` over small 2-D surveys with a
  dead worker and a duplicate resubmission: per-call overhead, the
  resilience ladder, the requeue path and the result cache.
* ``compile-verify`` — ``compile_case`` plus ``bind(...).run()`` for the 12
  seed cases: the dataflow engine, the sanitizer replay and the compiler.

A workload is ``setup(seed, size) -> inputs`` (untimed), ``run(inputs) ->
outputs`` (the timed call), ``digests(outputs)`` (one sha256 per checked
item) and ``check(outputs)`` (problems the output reports about itself),
plus an optional ``oracle(inputs)``: expected digests recomputed by an
independent path, used for seeds that have no committed golden.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: the sizes a workload can be built at; ``smoke`` keeps the test fast
SIZES = ("full", "smoke")


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def canonical_json(obj: Any) -> str:
    """JSON with sorted keys and exact float reprs (equal data, equal text)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=dataclasses.asdict
    )


def sha_json(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def sha_array(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def gpu_times_json(g) -> dict | None:
    """Every field of a :class:`~repro.core.config.GpuTimes`."""
    if g is None:
        return None
    return {
        "total": g.total,
        "kernel": g.kernel,
        "h2d": g.h2d,
        "d2h": g.d2h,
        "alloc": g.alloc,
        "launches": g.launches,
        "success": g.success,
        "failure": g.failure,
        "categories": dict(sorted(g.categories.items())),
        "profile": None if g.profile is None else g.profile.to_json(),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: whether ``--seed`` changes the inputs (else goldens are keyed 'fixed')
    seeded: bool
    setup: Callable[[int, str], Any]
    run: Callable[[Any], Any]
    digests: Callable[[Any], dict[str, str]]
    check: Callable[[Any], list[str]]
    #: expected digests from an independent path (``None``: golden only)
    oracle: Callable[[Any], dict[str, str]] | None
    #: what the oracle is, for the report
    oracle_name: str
    #: the weight of the object probe in the machine slowdown of the timed
    #: call (the loop probe gets the rest; see run.slowdown): how much the
    #: call is interpreted layers rather than NumPy inner loops
    interpreted: float = 0.0
    #: (name, unit, work per run) of the workload's throughput, if any
    rate: tuple[str, str, Callable[[Any], float]] | None = None


# ----------------------------------------------------------------------
# paper-estimate
# ----------------------------------------------------------------------
#: time steps per table case and figure-14 run (the paper uses 1000/200;
#: every estimate scales linearly in nt, so the layer mix is preserved)
_PAPER_NT = {"full": 60, "smoke": 2}


def _paper_setup(seed: int, size: str):
    from repro.bench.workloads import ALL_CASES

    nt = _PAPER_NT[size]
    return nt, tuple(dataclasses.replace(c, nt=nt) for c in ALL_CASES)


def _paper_run(inputs) -> dict:
    """``results_json()``'s sections, from the same public calls."""
    from repro.bench import figures
    from repro.bench.table3 import table3_rows
    from repro.bench.table4 import table4_rows

    nt, cases = inputs
    return {
        "table3_modeling": table3_rows(cases),
        "table4_rtm": table4_rows(cases),
        "fig10_register_sweep": figures.fig10_register_sweep(),
        "fig11_async_improvement": figures.fig11_async(),
        "fig12_fission": figures.fig12_fission(),
        "fig13_coalescing": figures.fig13_coalescing(),
        "fig14_fig15_profiles": {
            label: rep.to_json()
            for label, rep in figures.fig14_fig15_profiles(nt=nt).items()
        },
    }


def _paper_digests(out: dict) -> dict[str, str]:
    return {key: sha_json(value) for key, value in out.items()}


# ----------------------------------------------------------------------
# rtm-execute
# ----------------------------------------------------------------------
#: (tag, physics, shape, nt, space_order, boundary_width) per shot
_RTM_SHOTS = {
    "full": (
        ("iso2d", "isotropic", (256, 256), 100, 8, 16),
        ("ac2d", "acoustic", (256, 256), 100, 8, 16),
        ("el2d", "elastic", (256, 256), 100, 8, 16),
        ("ac3d", "acoustic", (48, 48, 48), 40, 4, 8),
    ),
    "smoke": (
        ("iso2d", "isotropic", (48, 48), 8, 8, 16),
        ("ac3d", "acoustic", (24, 24, 24), 4, 4, 8),
    ),
}
#: fixed for every seed so the work per run does not depend on the seed:
#: dt is stable for the fastest drawn velocity (2700 m/s at 10 m spacing)
_RTM_DT = 1.3e-3
_RTM_SNAP = 4
_V_TOP = 1500.0


def _rtm_setup(seed: int, size: str):
    """One RTMConfig per shot; the seed draws the interface depth, the
    velocity contrast and the source x of each shot."""
    from repro.core import RTMConfig
    from repro.model import layered_model

    rng = random.Random(seed)
    configs = []
    for tag, physics, shape, nt, order, width in _RTM_SHOTS[size]:
        depth_cells = width + 4 + rng.randint(6, 14)
        v_below = _V_TOP * rng.uniform(1.2, 1.8)
        model = layered_model(
            shape, spacing=10.0, interfaces=[10.0 * depth_cells],
            velocities=[_V_TOP, v_below],
            vs_ratio=0.5 if physics == "elastic" else None,
        )
        cfg = RTMConfig(
            physics=physics, model=model, nt=nt, dt=_RTM_DT, peak_freq=12.0,
            space_order=order, boundary_width=width, snap_period=_RTM_SNAP,
        )
        cfg.source_x_index = int(shape[1] * rng.uniform(0.3, 0.7))
        configs.append((tag, cfg))
    return configs


def _rtm_run(configs) -> list:
    from repro.core import GPUOptions, run_rtm

    return [
        (tag, run_rtm(cfg, gpu_options=GPUOptions())) for tag, cfg in configs
    ]


def _rtm_physics_digests(tag: str, result) -> dict[str, str]:
    return {
        f"{tag}.raw_image": sha_array(result.raw_image),
        f"{tag}.seismogram": sha_array(result.seismogram),
    }


def _rtm_digests(out) -> dict[str, str]:
    d: dict[str, str] = {}
    for tag, result in out:
        d.update(_rtm_physics_digests(tag, result))
        d[f"{tag}.gpu_times"] = sha_json(gpu_times_json(result.gpu))
    return d


def _rtm_check(out) -> list[str]:
    problems = []
    for tag, result in out:
        if result.gpu is None or not result.gpu.success:
            problems.append(f"{tag}: no successful modelled GPU timing")
        if not np.isfinite(result.raw_image).all():
            problems.append(f"{tag}: non-finite image")
    return problems


def _rtm_oracle(configs) -> dict[str, str]:
    """The offload pipeline carries metadata only, so the physics of a
    pipeline-free run must be bitwise the same."""
    from repro.core import run_rtm

    d: dict[str, str] = {}
    for tag, cfg in configs:
        d.update(_rtm_physics_digests(tag, run_rtm(cfg)))
    return d


def _rtm_mcell_steps(configs) -> float:
    """Grid cells x time steps over both RTM phases, in millions."""
    return sum(
        2 * cfg.nt * math.prod(cfg.model.grid.shape) for _, cfg in configs
    ) / 1e6


# ----------------------------------------------------------------------
# serve-survey
# ----------------------------------------------------------------------
#: (cases, shots per survey, nt)
_SERVE = {
    "full": (("iso2d", "ac2d", "el2d"), 8, 96),
    "smoke": (("iso2d",), 2, 8),
}
#: worker 0 dies on its first launch; its shot is requeued to worker 1
_SERVE_FAULTS = "mpi-rank-dead@x1"


@dataclass(frozen=True)
class _SurveyInput:
    case: str
    config: Any
    shot_x: tuple[int, ...]
    seed: int


def _serve_setup(seed: int, size: str):
    """One survey per case; the seed draws the shot arrival order and the
    fault-plan seed."""
    from repro.core import shot_line
    from repro.serve import serve_case_config

    cases, shots, nt = _SERVE[size]
    rng = random.Random(seed)
    surveys = []
    for case in cases:
        config = serve_case_config(case, nt=nt)
        xs = shot_line(config.model, shots)
        rng.shuffle(xs)
        surveys.append(_SurveyInput(case, config, tuple(xs), seed))
    return surveys


def _serve_run(surveys) -> list:
    from repro.resilience.faults import FaultPlan, parse_faults
    from repro.serve import SurveyScheduler

    out = []
    for s in surveys:
        plan = FaultPlan(seed=s.seed, specs=parse_faults(_SERVE_FAULTS))
        scheduler = SurveyScheduler(workers=2, plan=plan, seed=s.seed)
        scheduler.submit_survey("primary", s.config, list(s.shot_x), case=s.case)
        scheduler.submit_survey(
            "resubmit", s.config, list(s.shot_x), case=s.case, primary=False,
        )
        out.append((s, scheduler.run()))
    return out


def _serve_digests(out) -> dict[str, str]:
    d: dict[str, str] = {}
    for s, result in out:
        stack = result.stacks.get("primary")
        image = result.images.get("primary")
        d[f"{s.case}.stack"] = "missing" if stack is None else sha_array(stack)
        d[f"{s.case}.image"] = "missing" if image is None else sha_array(image)
        d[f"{s.case}.metrics"] = sha_json(result.metrics())
    return d


def _serve_check(out) -> list[str]:
    problems = []
    for s, result in out:
        done = result.completed_shots("primary")
        if len(done) != len(s.shot_x):
            problems.append(
                f"{s.case}: {len(done)}/{len(s.shot_x)} primary shots completed"
            )
        m = result.metrics()
        if m["requeued"] < 1:
            problems.append(f"{s.case}: the dead worker's shot was not requeued")
    return problems


def _serve_oracle(surveys) -> dict[str, str]:
    """The fault-free serial stack, summed in the same canonical order."""
    from repro.core import run_survey

    d: dict[str, str] = {}
    for s in surveys:
        ref = run_survey(s.config, shot_x_indices=list(s.shot_x))
        stack = np.zeros(s.config.model.grid.shape, dtype=np.float32)
        for img in ref.shot_images:
            stack += img
        d[f"{s.case}.stack"] = sha_array(stack)
        d[f"{s.case}.image"] = sha_array(ref.image)
    return d


def _serve_shots(surveys) -> float:
    return float(sum(len(s.shot_x) for s in surveys))


# ----------------------------------------------------------------------
# compile-verify
# ----------------------------------------------------------------------
#: time steps of each recorded schedule (``repro compile`` uses 24; the
#: compile cost grows with nt, the phase structure does not)
_COMPILE = {"full": (None, 8), "smoke": (("iso2d",), 8)}


def _compile_setup(seed: int, size: str):
    from repro.analyze.cli import _INVENTORY
    from repro.compile import CompileRequest

    only, nt = _COMPILE[size]
    cases = only or tuple(f"{p}{n}d" for p, n in _INVENTORY)
    return [
        CompileRequest.from_case(case, mode, nt=nt)
        for case in cases
        for mode in ("modeling", "rtm")
    ]


def _compile_run(requests) -> list:
    from repro.compile import compile_case
    from repro.core import GPUOptions
    from repro.core.modeling import _build_runtime
    from repro.core.platform import CRAY_K40

    out = []
    for request in requests:
        compiled = compile_case(request)
        times = compiled.bind(_build_runtime(GPUOptions(), CRAY_K40)).run()
        out.append((compiled, times))
    return out


def _compile_digests(out) -> dict[str, str]:
    return {
        compiled.request.name: sha_json({
            "program_sha": compiled.program_sha,
            "applied": [a.to_json() for a in compiled.applied],
            "launches_per_step": compiled.launches_per_step(),
            "verified": compiled.verified,
            "gpu_times": gpu_times_json(times),
        })
        for compiled, times in out
    }


def _compile_check(out) -> list[str]:
    problems = []
    for compiled, times in out:
        name = compiled.request.name
        if not compiled.verified:
            problems.append(f"{name}: compiled schedule not verified")
        if not times.success:
            problems.append(f"{name}: bound run failed ({times.failure})")
    return problems


# ----------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-estimate",
            why="paper regeneration in estimate mode: the gpusim cost model "
                "and acc runtime dominate, no NumPy physics",
            seeded=False,
            setup=_paper_setup, run=_paper_run, digests=_paper_digests,
            check=lambda out: [], oracle=None, oracle_name="golden only",
            interpreted=0.75,
        ),
        Workload(
            name="rtm-execute",
            why="run_rtm with the pipeline attached, one shot per physics: "
                "NumPy stencils dominate, the analyze/compile layers idle",
            seeded=True,
            setup=_rtm_setup, run=_rtm_run, digests=_rtm_digests,
            check=_rtm_check, oracle=_rtm_oracle,
            oracle_name="pipeline-free run_rtm (physics bitwise)",
            interpreted=0.0,
            rate=("mcell_steps_per_s", "Mcell/s", _rtm_mcell_steps),
        ),
        Workload(
            name="serve-survey",
            why="2-worker survey service with a dead worker and a duplicate "
                "resubmission: small arrays, per-call overhead, cache, requeue",
            seeded=True,
            setup=_serve_setup, run=_serve_run, digests=_serve_digests,
            check=_serve_check, oracle=_serve_oracle,
            oracle_name="serial run_survey stack (bitwise)",
            interpreted=0.5,
            rate=("shots_per_s", "1/s", _serve_shots),
        ),
        Workload(
            name="compile-verify",
            why="compile_case and a bound run for the 12 seed cases: the "
                "analyze, sanitize and compile layers, physics idle",
            seeded=False,
            setup=_compile_setup, run=_compile_run, digests=_compile_digests,
            check=_compile_check, oracle=None,
            oracle_name="the compiler's own bitwise verification",
            interpreted=0.75,
        ),
    )
}
