"""Batch replay verification against the one-candidate reference.

:func:`verify_opportunities` replays the original once, forks the
sanitizer session at each candidate's first changed event and stops the
fork at its rejoin point when its replay state is the original's there.
The reference below is the definition it replaced: apply the candidate,
replay the transformed program in a fresh session, compare
fingerprints.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cases import INVENTORY, RECORD_SHAPES
from repro.analyze.dataflow import (
    ReplayVerifier,
    apply_opportunity,
    find_opportunities,
    verify_opportunities,
    verify_opportunity,
)
from repro.analyze.dataflow.opportunities import (
    OptimizationOpportunity,
    _changed_span,
    _merged_compute,
    _transformed_events,
)
from repro.analyze.drivers import record_pipeline_program
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.sanitize.session import SanitizeSession
from repro.sanitize.shadow import normalize

ARRAYS = ("u", "v")
EXTENT = 64
#: (offset, nbytes): whole arrays, ghost faces, and a range past the end
RANGES = ((0, None), (0, 4), (0, 8), (4, 4), (56, 8), (60, 8))


def fingerprint(session: SanitizeSession) -> tuple:
    shadows = tuple(sorted(
        (name, tuple(normalize(sh.host_dirty)), tuple(normalize(sh.dev_dirty)))
        for name, sh in session.shadows[0].items()
    ))
    diags = tuple(sorted(
        (d.rule, d.var or "", d.kernel or "") for d in session.diagnostics
    ))
    return shadows, diags


def replayed(program: DirectiveProgram, events=None) -> tuple:
    session = SanitizeSession(nranks=1, name=program.meta.name)
    session.replay(program, events=events)
    return fingerprint(session)


def old_apply(program: DirectiveProgram, opp) -> DirectiveProgram:
    """The transformation as one loop that re-indexes as it goes."""
    out = DirectiveProgram(program.meta)
    out.extents = dict(program.extents)
    removed = set(opp.remove_events)
    for e in program.events:
        if opp.kind == "hoist-update" and e.index == opp.insert_at:
            out.add(program.events[opp.events[0]])
        if opp.kind == "fuse-computes" and e.index == opp.events[0]:
            out.add(_merged_compute(e, program.events[opp.events[1]]))
            continue
        if e.index in removed:
            continue
        out.add(e)
    return out


def reference(program: DirectiveProgram, opp, baseline: tuple) -> bool:
    """Refuse anchors outside the program, then apply, replay afresh and
    compare with the original's fingerprint."""
    n = len(program.events)
    anchors = [*opp.events, *opp.remove_events]
    if opp.insert_at is not None:
        anchors.append(opp.insert_at)
    if not all(0 <= i < n for i in anchors):
        return False
    try:
        transformed = apply_opportunity(program, opp)
    except (IndexError, KeyError, ValueError):
        return False
    return replayed(transformed) == baseline


# ----------------------------------------------------------------------
# generated programs
# ----------------------------------------------------------------------
labels = st.sampled_from((None, "line 1", "line 2", "line 3", "line 4"))
arrays = st.sampled_from(ARRAYS)
queues = st.sampled_from((None, 1, 2))


@st.composite
def body_event(draw) -> AccEvent:
    # dense in async host updates and host-side readers, sparse in
    # waits: the pending ops and queue clocks then live long enough for
    # one candidate's tail to meet the next candidate's prefix
    kind = draw(st.sampled_from((
        "update", "update", "update", "host_read", "send", "compute",
        "compute", "host_write", "recv", "wait",
    )))
    offset, nbytes = draw(st.sampled_from(RANGES))
    label = draw(labels)
    if kind == "compute":
        ghost = draw(st.booleans())
        return AccEvent(
            kind="compute", kernel=draw(st.sampled_from(("k0", "k1"))),
            reads=tuple(draw(st.lists(arrays, max_size=2, unique=True))),
            writes=tuple(draw(st.lists(arrays, max_size=2, unique=True))),
            writes_known=draw(st.booleans()), queue=draw(queues),
            wait_on=draw(st.sampled_from(((), (), (), (1,), (2,)))),
            wait_all=draw(st.sampled_from((False,) * 5 + (True,))),
            halo=1 if ghost else None, loop_dims=(8, 2) if ghost else (),
            label=label,
        )
    if kind == "update":
        return AccEvent(
            kind="update",
            direction=draw(st.sampled_from(("host", "host", "device"))),
            var=draw(arrays), offset=offset, nbytes=nbytes,
            queue=draw(st.sampled_from((1, 2, None))), label=label,
        )
    if kind == "wait":
        return AccEvent(
            kind="wait", wait_on=draw(st.sampled_from(((), (1,), (2,)))),
        )
    if kind == "host_write":
        return AccEvent(kind="host_write", writes=(draw(arrays),),
                        offset=offset, nbytes=nbytes, label=label)
    if kind == "host_read":
        return AccEvent(kind="host_read", reads=(draw(arrays),),
                        offset=offset, nbytes=nbytes, label=label)
    return AccEvent(kind=kind, var=draw(arrays), offset=offset,
                    nbytes=nbytes, peer=draw(st.sampled_from((None, 0))),
                    label=label)


#: in-flight host updates of both arrays and a host read racing one of
#: them, so the pending lists and the host clock exist from the start
PROLOGUE = (
    AccEvent(kind="enter", copyin=ARRAYS),
    AccEvent(kind="update", direction="host", var="u", queue=1, nbytes=8),
    AccEvent(kind="update", direction="host", var="v", queue=2,
             offset=56, nbytes=8),
    AccEvent(kind="host_read", reads=("u",), nbytes=8),
)


@st.composite
def programs(draw) -> DirectiveProgram:
    p = DirectiveProgram()
    for e in PROLOGUE + tuple(
        draw(st.lists(body_event(), min_size=8, max_size=36))
    ):
        p.add(e)
    if draw(st.booleans()):
        p.add(AccEvent(kind="exit", copyout=ARRAYS))
    p.extents.update({name: EXTENT for name in ARRAYS})
    return p


@st.composite
def candidates(draw, program: DirectiveProgram) -> list:
    """The engine's own candidates plus forged ones: fusions across a
    dependence, hoists of a touched array, cancels of a live update,
    out-of-range anchors and unappliable records. An identity at every
    position (a hoist of an event to where it already is) must verify,
    so any replay state one fork leaks into the shared session shows."""
    n = len(program.events)
    positions = st.integers(0, n - 1)
    computes = [e.index for e in program.events if e.kind == "compute"]
    updates = [e.index for e in program.events if e.kind == "update"]
    waits = [e.index for e in program.events if e.kind == "wait"]
    out = list(find_opportunities(program, verify=False).opportunities)
    out += [
        OptimizationOpportunity(
            kind="hoist-update", events=(i,), remove_events=(i,),
            insert_at=i)
        for i in range(n)
    ]
    for a, b in zip(computes, computes[1:]):
        out.append(OptimizationOpportunity(
            kind="fuse-computes", events=(a, b), remove_events=(b,)))
    for j in updates:
        out.append(OptimizationOpportunity(
            kind="hoist-update", events=(j,), remove_events=(j,),
            insert_at=draw(st.integers(0, j))))
        out.append(OptimizationOpportunity(
            kind="cancel-update-pair", events=(j,), remove_events=(j,)))
    for j in waits:
        out.append(OptimizationOpportunity(
            kind="cancel-update-pair", events=(j,), remove_events=(j,)))
    if updates:
        pair = tuple(sorted(draw(st.lists(
            st.sampled_from(updates), min_size=2, max_size=2, unique=True,
        )))) if len(updates) > 1 else (updates[0],)
        out.append(OptimizationOpportunity(
            kind="cancel-update-pair", events=pair, remove_events=pair))
    outside = st.sampled_from((-2, -1, n, n + 1))
    out += [
        OptimizationOpportunity(
            kind="fuse-computes", events=(draw(outside), draw(positions)),
            remove_events=(draw(positions),)),
        OptimizationOpportunity(
            kind="cancel-update-pair", events=(draw(positions),),
            remove_events=(draw(outside),)),
        OptimizationOpportunity(
            kind="hoist-update", events=(draw(positions),),
            remove_events=(draw(positions),), insert_at=draw(outside)),
        # one anchor: the merge cannot find its second compute
        OptimizationOpportunity(
            kind="fuse-computes", events=(draw(positions),)),
    ]
    return out


class TestBatchAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_verdicts_equal_the_reference_in_any_order(self, data):
        program = data.draw(programs())
        cands = data.draw(candidates(program))
        baseline = replayed(program)
        want = [reference(program, opp, baseline) for opp in cands]
        assert verify_opportunities(program, cands) == want
        assert [
            verify_opportunity(program, opp, baseline) for opp in cands
        ] == want
        order = data.draw(st.permutations(range(len(cands))))
        shuffled = verify_opportunities(program, [cands[i] for i in order])
        assert shuffled == [want[i] for i in order]
        # one verifier asked out of order starts its shared replay over
        verifier = ReplayVerifier(program)
        assert [verifier.verify(cands[i]) for i in order] == shuffled

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_apply_equals_the_old_loop(self, data):
        program = data.draw(programs())
        for opp in data.draw(candidates(program)):
            try:
                want = old_apply(program, opp)
            except (IndexError, KeyError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    apply_opportunity(program, opp)
                continue
            got = apply_opportunity(program, opp)
            assert [vars(e) for e in got.events] == [
                vars(e) for e in want.events
            ]
            assert got.extents == want.extents and got.meta == want.meta


@functools.cache
def seed_program(physics, ndim, mode):
    return record_pipeline_program(physics, RECORD_SHAPES[ndim], mode, nt=8)


@pytest.mark.parametrize("mode", ["modeling", "rtm"])
@pytest.mark.parametrize("physics,ndim", INVENTORY)
def test_seed_stream_replays_like_the_applied_program(physics, ndim, mode):
    """The transformed stream, which keeps the original event indices,
    fingerprints like the re-indexed program ``apply_opportunity``
    builds, and the batch verdicts are the reference's."""
    program = seed_program(physics, ndim, mode)
    cands = find_opportunities(program, verify=False).opportunities
    assert cands
    baseline = replayed(program)
    want = []
    for opp in cands:
        applied = replayed(apply_opportunity(program, opp))
        assert replayed(program, _transformed_events(program, opp)) == applied
        want.append(applied == baseline)
    assert verify_opportunities(program, cands) == want


# ----------------------------------------------------------------------
# the rejoin point
# ----------------------------------------------------------------------
def rejoin_program(wait_before_read: bool) -> DirectiveProgram:
    """Fusing computes 1 and 3 hoists b's ``wait_on=(1,)`` above the
    async ``update host(v)`` it used to wait for. At the rejoin point
    the fork's shadows and diagnostics are the original's, but the
    update is still in flight on the fork: the host read then races it,
    unless a ``wait(1)`` comes first."""
    p = DirectiveProgram()
    for e in (
        AccEvent(kind="enter", copyin=("u", "v")),
        AccEvent(kind="compute", kernel="a", reads=("u",), writes=("u",),
                 writes_known=True),
        AccEvent(kind="update", direction="host", var="v", queue=1),
        AccEvent(kind="compute", kernel="b", reads=("u",), writes=("u",),
                 writes_known=True, wait_on=(1,)),
        *((AccEvent(kind="wait", wait_on=(1,)),) if wait_before_read else ()),
        AccEvent(kind="host_read", reads=("v",)),
        AccEvent(kind="exit", delete=("u", "v")),
    ):
        p.add(e)
    p.extents.update({"u": 64, "v": 64})
    return p


@pytest.mark.parametrize("wait_before_read", [False, True])
def test_a_fork_that_differs_at_the_rejoin_point_replays_its_tail(
    wait_before_read,
):
    program = rejoin_program(wait_before_read)
    fusion = OptimizationOpportunity(
        kind="fuse-computes", events=(1, 3), remove_events=(3,))
    assert _changed_span(fusion, len(program.events)) == (1, 4)
    session = SanitizeSession()
    session.replay(program, events=program.events[:1])
    fork, original = session.fork(), session.fork()
    fork.replay(program, events=_transformed_events(program, fusion, 1, 4))
    original.replay(program, events=program.events[1:4])
    assert fingerprint(fork) == fingerprint(original)
    assert fork.pending != original.pending
    assert fork.clocks.host != original.clocks.host
    assert not fork.same_state(original)
    # only the wait before the read lets the fork converge again
    want = reference(program, fusion, replayed(program))
    assert want is wait_before_read
    assert verify_opportunities(program, [fusion]) == [want]
    assert verify_opportunity(program, fusion) is want
