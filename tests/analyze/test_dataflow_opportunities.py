"""The opportunity pass: legality facts with replay verification."""

import functools
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.cases import INVENTORY, RECORD_SHAPES
from repro.analyze.dataflow import (
    OpportunityReport,
    apply_opportunity,
    find_opportunities,
    reports_to_json,
    validate_opportunities,
)
from repro.analyze.dataflow.opportunities import OptimizationOpportunity
from repro.analyze.drivers import record_pipeline_program
from repro.analyze.program import AccEvent, DirectiveProgram


def prog(events, extents=None):
    p = DirectiveProgram()
    for e in events:
        p.add(e)
    p.extents.update(extents or {})
    return p


def kinds(report):
    return sorted({o.kind for o in report.opportunities})


class TestFusion:
    def test_independent_adjacent_computes_fuse(self):
        p = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a", writes=("u",),
                     writes_known=True),
            AccEvent(kind="compute", kernel="b", writes=("v",),
                     writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ], extents={"u": 1024, "v": 1024})
        (opp,) = find_opportunities(p).opportunities
        assert opp.kind == "fuse-computes"
        assert opp.events == (1, 2)
        assert opp.kernels == ("a", "b")
        assert opp.verified

    def test_war_blocked_pair_does_not_fuse(self):
        """An update host between the computes reads what the first wrote
        and is overwritten by the second — fusing would reorder it."""
        p = prog([
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="compute", kernel="a", writes=("u",),
                     writes_known=True),
            AccEvent(kind="update", direction="host", var="u"),
            AccEvent(kind="compute", kernel="b", writes=("u",),
                     writes_known=True),
            AccEvent(kind="exit", delete=("u",)),
        ], extents={"u": 1024})
        assert "fuse-computes" not in kinds(find_opportunities(p))

    def test_wait_between_blocks_fusion(self):
        """A wait is a cross-queue barrier the replay cannot see through."""
        p = prog([
            AccEvent(kind="compute", kernel="a", queue=1, writes=("u",),
                     writes_known=True),
            AccEvent(kind="wait"),
            AccEvent(kind="compute", kernel="b", queue=1, writes=("v",),
                     writes_known=True),
        ], extents={"u": 64, "v": 64})
        assert "fuse-computes" not in kinds(find_opportunities(p))

    def test_cross_queue_pair_does_not_fuse(self):
        p = prog([
            AccEvent(kind="compute", kernel="a", queue=1, writes=("u",),
                     writes_known=True),
            AccEvent(kind="compute", kernel="b", queue=2, writes=("v",),
                     writes_known=True),
        ])
        assert "fuse-computes" not in kinds(find_opportunities(p))

    def test_apply_merges_the_launches(self):
        p = prog([
            AccEvent(kind="compute", kernel="a", reads=("w",),
                     writes=("u",), writes_known=True),
            AccEvent(kind="compute", kernel="b", writes=("v",),
                     writes_known=True),
        ])
        (opp,) = find_opportunities(p, verify=False).opportunities
        out = apply_opportunity(p, opp)
        assert len(out.events) == len(p.events) - 1
        merged = out.events[0]
        assert merged.kernel == "a+b"
        assert set(merged.writes) == {"u", "v"}


class TestHoisting:
    def test_loop_invariant_update_hoists(self):
        body = [
            AccEvent(kind="compute", kernel="step", reads=("u",),
                     writes=("u",), writes_known=True),
            AccEvent(kind="update", direction="device", var="vel",
                     nbytes=512),
        ]
        p = prog(
            [AccEvent(kind="enter", copyin=("u", "vel"))] + body * 4,
            extents={"u": 1024, "vel": 512},
        )
        hoists = [
            o for o in find_opportunities(p).opportunities
            if o.kind == "hoist-update"
        ]
        (opp,) = hoists
        assert opp.var == "vel"
        assert opp.insert_at == 1                 # above the loop
        assert len(opp.remove_events) == 4        # all periodic copies
        assert opp.savings["transfers"] == 3.0    # reps - 1
        assert opp.verified

    def test_touched_array_does_not_hoist(self):
        body = [
            AccEvent(kind="compute", kernel="step", reads=("u",),
                     writes=("u",), writes_known=True),
            AccEvent(kind="update", direction="host", var="u"),
        ]
        p = prog(
            [AccEvent(kind="enter", copyin=("u",))] + body * 4,
            extents={"u": 1024},
        )
        assert "hoist-update" not in kinds(find_opportunities(p))


class TestCancellation:
    def test_dead_update_pair_cancels(self):
        p = prog([
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="update", direction="host", var="u"),
            AccEvent(kind="update", direction="device", var="u"),
            AccEvent(kind="exit", delete=("u",)),
        ], extents={"u": 1024})
        cancels = [
            o for o in find_opportunities(p).opportunities
            if o.kind == "cancel-update-pair"
        ]
        (opp,) = cancels
        assert opp.events == (1, 2)
        assert opp.savings["bytes"] == 2048.0
        assert opp.verified

    def test_live_pair_does_not_cancel(self):
        p = prog([
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="compute", kernel="k", writes=("u",),
                     writes_known=True),
            AccEvent(kind="update", direction="host", var="u"),
            AccEvent(kind="update", direction="device", var="u"),
            AccEvent(kind="exit", delete=("u",)),
        ], extents={"u": 1024})
        assert "cancel-update-pair" not in kinds(find_opportunities(p))


class TestVerification:
    def test_illegal_transform_fails_replay(self):
        """Force an opportunity whose transform changes the outcome: the
        verification gate must reject it."""
        p = prog([
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="compute", kernel="k", writes=("u",),
                     writes_known=True),
            AccEvent(kind="update", direction="host", var="u"),
            AccEvent(kind="host_read", reads=("u",)),
            AccEvent(kind="exit", delete=("u",)),
        ], extents={"u": 1024})
        from repro.analyze.dataflow import verify_opportunity

        bogus = OptimizationOpportunity(
            kind="cancel-update-pair", events=(2,), var="u",
            remove_events=(2,),
        )
        assert not verify_opportunity(p, bogus)

    @pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
    @pytest.mark.parametrize("events,remove", [
        ((-2, -1), (-1,)),
        ((257, 258), (258,)),
    ], ids=["negative", "past-the-end"])
    def test_anchors_outside_the_program_are_refused(
        self, events, remove, batch
    ):
        """Negative indexing and ``e.index in removed`` used to turn these
        forged records into no-ops, and a no-op replays equal."""
        from repro.analyze import dataflow

        p = forged_target()
        assert len(p.events) == 257
        forged = OptimizationOpportunity(
            kind="fuse-computes", events=events, remove_events=remove,
        )
        if batch:
            legal = find_opportunities(p, verify=False).opportunities[0]
            verdicts = dataflow.verify_opportunities(p, [forged, legal, forged])
            assert verdicts == [False, True, False]
        else:
            assert not dataflow.verify_opportunity(p, forged)

    def test_no_verify_skips_the_replay(self):
        p = prog([
            AccEvent(kind="compute", kernel="a", writes=("u",),
                     writes_known=True),
            AccEvent(kind="compute", kernel="b", writes=("v",),
                     writes_known=True),
        ])
        r = find_opportunities(p, verify=False)
        assert r.opportunities and not r.verified()


class TestArtifact:
    def test_reports_round_trip_and_validate(self):
        p = prog([
            AccEvent(kind="compute", kernel="a", writes=("u",),
                     writes_known=True),
            AccEvent(kind="compute", kernel="b", writes=("v",),
                     writes_known=True),
        ])
        report = find_opportunities(p)
        report.case = "iso2d"
        report.mode = "rtm"
        doc = reports_to_json([report])
        validate_opportunities(doc)  # must not raise
        assert doc["schema"] == 1
        assert doc["programs"][0]["case"] == "iso2d"

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(ValueError, match="schema"):
            validate_opportunities({"programs": []})
        with pytest.raises(ValueError, match="kind"):
            validate_opportunities({
                "schema": 1,
                "programs": [{
                    "name": "x",
                    "opportunities": [{
                        "kind": "defrag", "events": [], "proof": "",
                        "savings": {}, "verified": True,
                    }],
                }],
            })
        with pytest.raises(ValueError, match="verified"):
            validate_opportunities({
                "schema": 1,
                "programs": [{
                    "name": "x",
                    "opportunities": [{
                        "kind": "fuse-computes", "events": [1],
                        "proof": "", "savings": {}, "verified": 1,
                    }],
                }],
            })

    def test_empty_report_validates(self):
        validate_opportunities(reports_to_json(
            [OpportunityReport(name="empty")]
        ))


@functools.cache
def forged_target():
    """The iso2d RTM recording at 64x64, nt 8: 257 events."""
    return record_pipeline_program("isotropic", (64, 64), "rtm", nt=8)


@functools.cache
def seed_recording(physics, ndim):
    """The seed case's rtm recording, shared by the sweep's tests (which
    must leave it unchanged)."""
    return record_pipeline_program(
        physics, RECORD_SHAPES[ndim], "rtm", nt=16, snap_period=4,
        space_order=4 if ndim == 3 else 8, boundary_width=8,
    )


class TestSeedSweep:
    @pytest.mark.parametrize("physics,ndim", INVENTORY)
    def test_seed_case_has_verified_opportunities(self, physics, ndim):
        """The acceptance gate: each seed case's recorded schedule yields
        at least one replay-verified opportunity (>= 6 cases required)."""
        report = find_opportunities(seed_recording(physics, ndim))
        assert report.verified(), f"{physics}{ndim}d has none"

    @pytest.mark.parametrize("physics,ndim", INVENTORY)
    def test_apply_reindexes_like_replace(self, physics, ndim, monkeypatch):
        """``DirectiveProgram.add`` re-indexes without re-constructing: every
        applied opportunity must give the events a ``dataclasses.replace``
        re-index gives, field by field, and change neither the events
        handed to ``add`` nor the source program."""
        p = seed_recording(physics, ndim)
        sha, indices = p.sha(), [e.index for e in p.events]
        opportunities = find_opportunities(p, verify=False).opportunities
        assert opportunities
        added = []
        add = DirectiveProgram.add

        def recording_add(self, event, sizes=None):
            added.append((event, event.index))
            return add(self, event, sizes)

        monkeypatch.setattr(DirectiveProgram, "add", recording_add)
        for opp in opportunities:
            added.clear()
            out = apply_opportunity(p, opp).events
            reference = [replace(e, index=i) for i, (e, _) in enumerate(added)]
            assert len(out) == len(reference)
            assert [e.index for e in out] == list(range(len(out)))
            for got, want in zip(out, reference):
                assert type(got) is AccEvent
                assert vars(got) == vars(want)
                assert got == want and hash(got) == hash(want)
            assert all(e.index == index for e, index in added)
        assert p.sha() == sha
        assert [e.index for e in p.events] == indices
        with pytest.raises(FrozenInstanceError):
            out[-1].index = 0
        with pytest.raises(ValueError, match="bogus"):
            AccEvent(kind="bogus")
