"""``SanitizeSession.fork``: an independent copy of the replay state.

Batch verification forks one baseline session at each candidate's first
changed event and replays the candidate's changed events on the fork; a
fork that shared any replay state with its parent would leak one
candidate into the next candidate's prefix. At the rejoin point the fork
is compared with the original by ``same_state``, which must read every
attribute the fork copies.
"""

import copy
import functools

import pytest

from repro.analyze.dataflow.opportunities import (
    _fingerprint,
    replay_fingerprint,
)
from repro.analyze.drivers import record_pipeline_program
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.sanitize.session import SanitizeSession


def every_state_program() -> DirectiveProgram:
    """A schedule that writes every piece of replay state: shadows, async
    pending ops and queue clocks, message channels, partial updates, and
    repeated hazards (diagnostics and their dedup set)."""
    p = DirectiveProgram()
    for e in (
        AccEvent(kind="enter", copyin=("u", "v")),
        AccEvent(kind="compute", kernel="k", reads=("u",),
                 writes=("u", "v"), writes_known=True),
        AccEvent(kind="update", direction="host", var="u", queue=1,
                 nbytes=32),
        AccEvent(kind="send", var="u", peer=0, label="line 4"),
        AccEvent(kind="host_write", writes=("v",), nbytes=8),
        AccEvent(kind="update", direction="device", var="v", nbytes=4),
        AccEvent(kind="compute", kernel="g", reads=("v",), halo=1,
                 loop_dims=(8, 2)),
        AccEvent(kind="update", direction="host", var="u", queue=2,
                 offset=32, nbytes=32),
        AccEvent(kind="host_read", reads=("u",), label="line 9"),
        AccEvent(kind="recv", var="u", peer=0, nbytes=8),
        AccEvent(kind="wait", wait_on=(1,)),
        AccEvent(kind="send", var="u", peer=0, label="line 12"),
        AccEvent(kind="update", direction="host", var="u", queue=1),
        AccEvent(kind="send", var="u", peer=0, label="line 4"),
        AccEvent(kind="wait"),
        AccEvent(kind="exit", copyout=("v",), delete=("u",)),
    ):
        p.add(e)
    p.extents.update({"u": 64, "v": 64})
    return p


@functools.cache
def seed_program() -> DirectiveProgram:
    return record_pipeline_program("isotropic", (64, 64), "rtm", nt=8)


def state(session: SanitizeSession) -> dict:
    """Everything a session holds, comparable with ``==``."""
    out = dict(vars(session))
    out["programs"] = [
        (p.meta, p.extents, p.events) for p in session.programs
    ]
    return out


def test_every_state_program_reaches_every_state():
    """The hand-written schedule exercises what the fork must copy."""
    session = SanitizeSession()
    program = every_state_program()
    session.replay(program, events=program.events[:9])
    assert session.pending and session._last_partial
    assert session.clocks.channels[(0, 0, 0)]
    assert session.clocks.queue_tick and session._seen
    assert {d.rule for d in session.diagnostics} >= {
        "halo-send-before-sync", "stale-host-read", "short-ghost-transfer",
    }


@pytest.mark.parametrize("make", [seed_program, every_state_program])
def test_fork_leaves_its_parent_unchanged(make):
    program = make()
    n = len(program.events)
    expected = replay_fingerprint(program)
    for at in sorted({0, 1, n // 3, n // 2, n - 1, n}):
        session = SanitizeSession(name=program.meta.name)
        session.replay(program, events=program.events[:at])
        before = copy.deepcopy(session)
        fork = session.fork()
        fork.replay(program, events=program.events[at:])
        assert state(session) == state(before), at
        assert _fingerprint(fork) == expected, at
        # and the other way round: the parent's replay leaves the fork
        after = copy.deepcopy(fork)
        session.replay(program, events=program.events[at:])
        assert state(fork) == state(after), at
        assert _fingerprint(session) == expected, at


def test_fork_copies_or_shares_every_attribute():
    """A new session attribute must be copied by ``fork`` or listed in
    ``_FORK_SHARED`` (configuration and live wiring replay never
    writes): the fork then has every attribute, and shares exactly the
    listed ones."""
    session = SanitizeSession()
    session.replay(every_state_program())
    fork = session.fork()
    assert vars(fork).keys() == vars(session).keys()
    for name, value in vars(session).items():
        shared = vars(fork)[name] is value
        assert shared == (name in SanitizeSession._FORK_SHARED), name


def test_every_attribute_is_shared_or_replay_state():
    """The two tables partition the session: an attribute the fork
    copies is one ``same_state`` compares."""
    shared = set(SanitizeSession._FORK_SHARED)
    replayed = set(SanitizeSession._REPLAY_STATE)
    assert not shared & replayed
    assert shared | replayed == vars(SanitizeSession()).keys()


def test_same_state_reads_every_replay_attribute():
    session = SanitizeSession()
    program = every_state_program()
    session.replay(program, events=program.events[:9])
    for name, value in vars(session).items():
        assert value or name in SanitizeSession._FORK_SHARED, name
    for name in SanitizeSession._REPLAY_STATE:
        fork = session.fork()
        assert fork.same_state(session) and session.same_state(fork)
        setattr(fork, name, type(getattr(fork, name))())
        assert not fork.same_state(session), name
