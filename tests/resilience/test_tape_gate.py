"""A fault injector gates the step tape without changing any outcome.

With an injector attached, a repeated step replays its tape only when no
armed fault can fire on the tape's launches and transfers; the injector
then counts them in one step. Otherwise the step runs per-op, so every
fault fires at its own op. An attached :class:`Tracer` keeps every step on
the per-op path, so the same fault plan traced is the reference: the
answer, the modelled device time, the recovery, the fault events and the
injector's op counter must all come out identical.
"""

from dataclasses import fields
from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.acc.runtime import Runtime
from repro.core.config import GpuTimes, GPUOptions, ModelingConfig, RTMConfig
from repro.resilience.chaos import CHAOS_SHAPES, _chaos_config, _min_rank_envelope
from repro.resilience.faults import CATEGORY, DEVICE_KINDS, FaultPlan, FaultSpec, is_permanent
from repro.resilience.recovery import BackoffPolicy, ResilientMultiGpu, ResilientPipeline
from repro.trace import Tracer
from repro.utils.errors import ReproError

CASES = ("iso2d", "ac2d", "el2d")


def _build(case, mode, nt, ranks, plan, traced):
    physics, ndim, kw = _chaos_config(case, nt)
    if ranks == 1:
        cls = RTMConfig if mode == "rtm" else ModelingConfig
        return ResilientPipeline(
            cls(**kw), gpu_options=GPUOptions(), plan=plan,
            backoff=BackoffPolicy(seed=7), tracer=Tracer() if traced else None,
        )
    run = ResilientMultiGpu(
        physics, CHAOS_SHAPES[ndim], ranks, plan=plan,
        backoff=BackoffPolicy(seed=7), boundary_width=8, space_order=8, seed=7,
    )
    if traced:
        # the ranks' runtimes are built inside; a tracer on each keeps
        # every step on the per-op path
        for rc in run.mgp.ranks:
            rc.pipe.rt.tracer = Tracer()
    return run


def _execute(run, mode, nt):
    """Run to completion; returns (answer arrays, modelled time) or the
    error a run that could not recover raised."""
    if isinstance(run, ResilientMultiGpu):
        return (run.run(nt, 4, mode=mode),), run.device_seconds()
    result = run.run_rtm() if mode == "rtm" else run.run_modeling()
    if mode == "rtm":
        return (result.image, result.raw_image, result.seismogram), result.gpu
    return (result.final_wavefield, result.seismogram), result.gpu


def _outcome(case, mode, nt, ranks, specs, traced):
    run = _build(case, mode, nt, ranks, FaultPlan(seed=7, specs=specs), traced)
    # the runtime drops its tapes when the present table changes, so count
    # the tapes recorded over the run rather than those left at its end
    with mock.patch.object(
        Runtime, "record", autospec=True, side_effect=Runtime.record,
    ) as record:
        try:
            answer, times = _execute(run, mode, nt)
            error = None
        except ReproError as exc:
            answer, times, error = None, None, (type(exc).__name__, str(exc))
    stats = run.stats
    return {
        "tapes": record.call_count,
        "answer": answer,
        "times": times,
        "error": error,
        "recovery": (stats.detected, stats.counts(), stats.degraded, stats.actions),
        "events": run.injector.events,
        "counter": list(run.injector._counts.items()),
    }


@lru_cache(maxsize=None)
def _envelope(case, mode, nt, ranks):
    """Per-category op counts of the fault-free run (per rank at two
    ranks), the range the drawn op indices come from."""
    run = _build(case, mode, nt, ranks, None, traced=False)
    _execute(run, mode, nt)
    return _min_rank_envelope(run.injector, ranks)


@st.composite
def fault_cases(draw):
    case = draw(st.sampled_from(CASES))
    mode = draw(st.sampled_from(("modeling", "rtm")))
    nt = draw(st.integers(4, 16))
    ranks = draw(st.sampled_from((1, 2)))
    envelope = _envelope(case, mode, nt, ranks)
    specs = []
    for kind in draw(st.lists(st.sampled_from(DEVICE_KINDS), min_size=1, max_size=3)):
        ops = envelope[CATEGORY[kind]]
        specs.append(FaultSpec(
            kind,
            op_index=draw(st.integers(1, ops)),
            count=1 if is_permanent(kind) else draw(st.integers(1, 3)),
            rank=draw(st.sampled_from((None, 0, 1))) if ranks > 1 else None,
        ))
    return case, mode, nt, ranks, tuple(specs)


def _assert_same_times(taped, traced, ranks):
    if ranks > 1 or taped is None:
        assert taped == traced
        return
    for f in fields(GpuTimes):
        if f.name == "profile":
            assert taped.profile.to_json() == traced.profile.to_json()
        else:
            assert getattr(taped, f.name) == getattr(traced, f.name), f.name


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fault_cases())
def test_gated_replay_equals_per_op_path(fault_case):
    taped = _outcome(*fault_case, traced=False)
    traced = _outcome(*fault_case, traced=True)

    assert traced["tapes"] == 0  # tracing keeps every step per-op
    assert taped["error"] == traced["error"]
    if taped["answer"] is None:
        assert traced["answer"] is None
    else:
        assert len(taped["answer"]) == len(traced["answer"])
        for a, b in zip(taped["answer"], traced["answer"]):
            assert np.array_equal(a, b)
    _assert_same_times(taped["times"], traced["times"], fault_case[3])
    assert taped["recovery"] == traced["recovery"]
    assert taped["events"] == traced["events"]
    assert taped["counter"] == traced["counter"]


def test_replays_around_a_reachable_fault(monkeypatch):
    """The steps before and after a transient launch fault replay; the
    step it falls in runs per-op and the fault fires at its own op."""
    replays = []
    replay = Runtime.replay

    def counting_replay(self, tape):
        replays.append(replay(self, tape))
        return replays[-1]

    monkeypatch.setattr(Runtime, "replay", counting_replay)
    spec = FaultSpec("kernel-launch", op_index=9)
    outcome = _outcome("iso2d", "modeling", 16, 1, (spec,), traced=False)
    assert outcome["error"] is None
    assert [ev.op_index for ev in outcome["events"]] == [9]
    assert outcome["recovery"][1]["recovery_retries"] == 1.0
    refused = replays.index(False)
    assert 0 < refused < len(replays) - 1 and replays.count(False) == 1
