"""A bound compiled run models exactly what its per-op path models.

Every compiled op binds through the runtime's directive methods, and each
bound step is one step of the runtime's tape policy, the policy the
interpreter's repeated actions use too. An enabled :class:`Tracer` keeps
every step per-op, so the same run traced is the reference: the modelled
times, the stream timeline, the auto-async cursor, the fault events, the
injector's op counters and the error must all come out identical.

Each run is a compiled shot of one seed request followed by the same
request interpreted, on one runtime: the two owners share the runtime's
tapes, and under the CRAY persona the interpreted shot takes its queues
from the auto-async rotation.
"""

from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.acc.compiler import CRAY_8_2_6, PGI_14_6
from repro.cases import CASES, MODES
from repro.compile import CompileRequest, compile_case
from repro.core.config import GpuTimes, GPUOptions
from repro.core.modeling import _build_runtime
from repro.core.pipeline import OffloadPipeline, device_times, run_schedule
from repro.core.platform import CRAY_K40
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector
from repro.trace import Tracer
from repro.utils.errors import ReproError

REQUESTS = tuple((case, mode) for case in CASES for mode in MODES["both"])
PERSONAS = {"pgi": PGI_14_6, "cray": CRAY_8_2_6}


@pytest.fixture(scope="module")
def compiled():
    """Each of the 12 seed requests, compiled once."""
    return {
        key: compile_case(CompileRequest.from_case(*key, nt=8))
        for key in REQUESTS
    }


def _run(compiled, persona, fault, traced):
    """The compiled shot, then the interpreted one, on one runtime; an
    armed kernel-launch fault at launch ``fault`` (None: no fault)."""
    request = compiled.request
    options = GPUOptions(compiler=PERSONAS[persona])
    rt = _build_runtime(options, CRAY_K40, Tracer() if traced else None)
    specs = () if fault is None else (FaultSpec("kernel-launch", op_index=fault),)
    injector = FaultInjector(FaultPlan(seed=7, specs=specs))
    rt.attach_injector(injector)
    replays = []
    replay = rt.replay

    def counting_replay(tape):
        replays.append(replay(tape))
        return replays[-1]

    rt.replay = counting_replay
    pipe = OffloadPipeline(
        rt, request.physics, request.shape, nreceivers=request.nreceivers,
        space_order=request.space_order,
        boundary_width=request.boundary_width, options=options,
        pml_variant=request.pml_variant,
    )
    try:
        compiled.bind(rt).run()
        run_schedule(pipe, request.schedule)
        error = None
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    streams = rt.device.streams
    return {
        "times": device_times(rt.device),
        "timeline": (
            rt.device.clock.now, streams.compute_free, streams.copy_free,
            sorted(streams._queue_end.items()), rt._next_queue,
        ),
        "events": injector.events,
        "counter": sorted(injector._counts.items()),
        "error": error,
        "replays": replays,
    }


def _assert_same(taped, traced):
    assert traced["replays"] == []  # tracing keeps every step per-op
    for f in fields(GpuTimes):
        a, b = getattr(taped["times"], f.name), getattr(traced["times"], f.name)
        if f.name == "profile":
            assert a.to_json() == b.to_json()
        elif f.name == "categories":
            assert list(a.items()) == list(b.items())
        else:
            assert a == b, f.name
    assert taped["timeline"] == traced["timeline"]
    assert taped["events"] == traced["events"]
    assert taped["counter"] == traced["counter"]
    assert taped["error"] == traced["error"]


@pytest.mark.parametrize("persona", PERSONAS)
@pytest.mark.parametrize("key", REQUESTS, ids=["-".join(k) for k in REQUESTS])
def test_taped_run_equals_per_op_path(compiled, key, persona):
    taped = _run(compiled[key], persona, None, traced=False)
    traced = _run(compiled[key], persona, None, traced=True)
    _assert_same(taped, traced)
    assert taped["error"] is None and taped["times"].success
    assert any(taped["replays"])  # the untraced run did replay


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(REQUESTS), st.sampled_from(tuple(PERSONAS)), st.data())
def test_launch_fault_fires_at_its_own_launch(compiled, key, persona, data):
    clean = _run(compiled[key], persona, None, traced=False)
    fault = data.draw(st.integers(1, clean["times"].launches), label="fault")
    taped = _run(compiled[key], persona, fault, traced=False)
    traced = _run(compiled[key], persona, fault, traced=True)
    _assert_same(taped, traced)
    assert taped["error"][0] == "KernelLaunchError"
    assert [ev.op_index for ev in taped["events"]] == [fault]
