"""The Figure-4 schedule: its step sequence against an explicit reference,
and the compiler's segmented recording as an interpreter of it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acc.compiler import CRAY_8_2_6, PGI_14_6
from repro.analyze.drivers import record_pipeline_program
from repro.compile.compiler import CompileRequest, record_segments
from repro.core.config import GPUOptions
from repro.core.platform import CRAY_K40
from repro.core.schedule import PHASE_ORDER, Schedule
from repro.utils.errors import ConfigurationError

schedules = st.builds(
    Schedule,
    mode=st.sampled_from(("modeling", "rtm")),
    nt=st.integers(1, 40),
    snap_period=st.integers(1, 12),
    snapshot_decimate=st.integers(1, 4),
)


def _reference(mode: str, nt: int, p: int) -> list[tuple[str, int | None]]:
    """The paper's Figure 4, written out longhand."""
    out = [("allocate", None)]
    for n in range(nt):
        out.append(("forward", n))
        if (n + 1) % p == 0:
            out.append(("snapshot", n))
    if mode == "rtm":
        out.append(("swap", None))
        for n in reversed(range(nt)):
            if (n + 1) % p == 0:
                out += [("load_snapshot", n), ("imaging", n)]
            out.append(("backward", n))
    out.append(("finalize", None))
    return out


def _flat(schedule: Schedule) -> list[tuple[str, int | None]]:
    return [(a, step.n) for step in schedule for a in step.actions]


@settings(max_examples=200, deadline=None)
@given(schedules)
def test_steps_match_the_reference(schedule):
    assert _flat(schedule) == _reference(
        schedule.mode, schedule.nt, schedule.snap_period
    )
    steps = list(schedule)
    snaps = [s for s in steps if s.kind == "forward" and s.snap]
    assert [s.n for s in snaps] == [
        n for n in range(schedule.nt) if (n + 1) % schedule.snap_period == 0
    ]
    want = 1 if schedule.mode == "rtm" else schedule.snapshot_decimate
    assert all(s.decimate == want for s in snaps)
    assert steps[-1].image == (schedule.mode == "rtm")
    kinds = [kind for kind, _ in schedule.phases()]
    assert kinds == (
        ["allocate", "forward", "swap", "backward", "finalize"]
        if schedule.mode == "rtm" else ["allocate", "forward", "finalize"]
    )
    assert {a for a, _ in _flat(schedule)} <= set(PHASE_ORDER)


@settings(max_examples=25, deadline=None)
@given(schedules)
def test_recording_interprets_the_schedule(schedule):
    request = CompileRequest(
        physics="acoustic", shape=(32, 32), mode=schedule.mode,
        nt=schedule.nt, snap_period=schedule.snap_period,
        snapshot_decimate=schedule.snapshot_decimate,
    )
    recording = record_segments(request, GPUOptions(), CRAY_K40)
    assert [s.phase for s in recording.segments] == [a for a, _ in _flat(schedule)]
    program = record_pipeline_program(
        "acoustic", (32, 32), schedule.mode, nt=schedule.nt,
        snap_period=schedule.snap_period,
        snapshot_decimate=schedule.snapshot_decimate,
    )
    assert recording.program.sha() == program.sha()


def test_known_failure_is_mode_specific():
    rtm, modeling = Schedule("rtm", 4, 2), Schedule("modeling", 4, 2)
    assert rtm.known_failure(CRAY_8_2_6, "elastic", 3)
    assert not modeling.known_failure(CRAY_8_2_6, "elastic", 3)
    assert not rtm.known_failure(PGI_14_6, "elastic", 3)


def test_unknown_mode_is_refused():
    with pytest.raises(ConfigurationError):
        Schedule("both", 4, 2)
