"""A replayed step tape models exactly what the per-op path models.

While nothing watches the runtime, a repeated schedule action replays the
priced ops its first run recorded; inside the physics-free schedule loop
(``run_actions``) each replay waits on the device as pending ops, folded in
bulk before the next directive. An attached :class:`Tracer` bypasses the
tape, so the same run traced is the per-op reference: every modelled
number, the stream timeline, the auto-async rotation and the run-log
counters must come out identical.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.acc.compiler import CRAY_8_2_6, PGI_13_7, PGI_14_3, PGI_14_6
from repro.core.config import GPUOptions
from repro.core.pipeline import run_actions
from repro.core.platform import CRAY_K40
from repro.core.schedule import REPEATED_PHASES, Schedule
from repro.core.shot import build_pipeline
from repro.observe.ledger import observed_run
from repro.trace import Tracer

PERSONAS = (PGI_13_7, PGI_14_3, PGI_14_6, CRAY_8_2_6)
SHAPES = {2: (24, 20), 3: (10, 8, 12)}


def _run(case, tracer):
    """Interpret the case's schedule through the schedule loop, dropping
    and restoring residency before step ``cut`` (directives between
    deferred replays); returns the pipeline, its GpuTimes, the run log,
    the step indices at which a tape was recorded, and the replays and
    the ones the device kept pending."""
    physics, ndim, mode, persona, async_kernels, image_on_gpu, nt, snap, cut = case
    options = GPUOptions(
        compiler=persona, async_kernels=async_kernels, image_on_gpu=image_on_gpu,
    )
    pipe = build_pipeline(
        options, CRAY_K40, physics, SHAPES[ndim],
        nreceivers=6, space_order=4, boundary_width=4, tracer=tracer,
    )
    rt = pipe.rt
    recorded, replays, deferred = [], [], []
    record, replay, defer = rt.record, rt.replay, rt.device.defer

    def counting_record(run):
        recorded.append(index)
        return record(run)

    def counting_replay(tape):
        replays.append(replay(tape))
        return replays[-1]

    def counting_defer(ops, plan):
        deferred.append(len(ops))
        defer(ops, plan)

    rt.record, rt.replay, rt.device.defer = (
        counting_record, counting_replay, counting_defer
    )
    index, last = -1, None

    def perform(action, step):
        nonlocal index, last
        if step is not last:
            index, last = index + 1, step
            if index == cut and pipe.phase != "idle":
                phase = pipe.phase
                pipe.drop_residency()
                pipe.restore_residency(phase)
        pipe.perform(action, step)

    with observed_run(None, "step-tape") as log:
        times = run_actions(rt.device, Schedule(mode, nt, snap), perform)
    return pipe, times, log, recorded, (replays, deferred)


def _timeline(pipe):
    rt = pipe.rt
    streams = rt.device.streams
    return (
        rt.device.clock.now, streams.compute_free, streams.copy_free,
        sorted(streams._queue_end.items()), rt._next_queue,
    )


cases = st.tuples(
    st.sampled_from(("isotropic", "acoustic", "elastic", "vti")),
    st.sampled_from((2, 3)),
    st.sampled_from(("modeling", "rtm")),
    st.sampled_from(PERSONAS),
    st.sampled_from((None, True, False)),
    st.booleans(),
    st.integers(1, 30),
    st.integers(1, 8),
    st.integers(0, 70),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_tape_replay_equals_per_op_path(case):
    physics, ndim, mode, persona = case[:4]
    nt, snap = case[6:8]
    assume(not Schedule(mode, nt, snap).known_failure(persona, physics, ndim))
    taped, times, log, recorded, (replays, deferred) = _run(case, None)
    traced, ref_times, ref_log, ref_recorded, ref_replays = _run(case, Tracer())

    assert ref_recorded == [] and not traced.rt._tapes  # tracing bypasses the tape
    assert ref_replays == ([], [])
    # every replay of the untraced run waited on the device as pending ops
    assert all(replays) and len(deferred) == len(replays)
    assert times == ref_times
    assert times.profile.to_json() == ref_times.profile.to_json()
    assert list(times.categories.items()) == list(ref_times.categories.items())
    assert _timeline(taped) == _timeline(traced)
    assert log.counters == ref_log.counters

    steps = list(Schedule(mode, nt, snap))
    repeated = {
        i for i, step in enumerate(steps)
        if any(action in REPEATED_PHASES for action in step.actions)
    }
    # the untraced run taped its repeated steps, and only those ...
    assert set(recorded) <= repeated and (recorded or not repeated)
    # ... and a residency rebuild re-records the next repeated step
    cut = case[8]
    after = sorted(i for i in repeated if i >= cut)
    if 0 < cut < len(steps) and after:
        assert after[0] in recorded
