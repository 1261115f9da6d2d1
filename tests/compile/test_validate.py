"""The translation validator: per-opportunity proofs, the whole-pipeline
simulation relation and the validator-vs-replay cross-check."""

import pytest

from repro.analyze.dataflow import verify_opportunity
from repro.analyze.dataflow.opportunities import OptimizationOpportunity
from repro.analyze.framework import Severity
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.compile import CompileRequest, compile_case
from repro.compile.validate import validate_opportunity


def prog(events, extents=None):
    p = DirectiveProgram()
    for e in events:
        p.add(e)
    p.extents.update(extents or {"u": 1024, "v": 1024})
    return p


def errors(diags):
    return [d for d in diags if d.severity >= Severity.ERROR]


class TestValidateOpportunity:
    def test_clean_adjacent_fusion_admitted(self):
        p = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a", reads=("u",),
                     writes=("u",), writes_known=True),
            AccEvent(kind="compute", kernel="b", reads=("v",),
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])
        opp = OptimizationOpportunity(
            kind="fuse-computes", events=(1, 2), kernels=("a", "b"),
            remove_events=(2,), verified=True,
        )
        assert validate_opportunity(p, opp) == []

    def test_df201_on_queue_mismatch(self):
        p = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a", queue=1,
                     writes=("u",), writes_known=True),
            AccEvent(kind="compute", kernel="b", queue=2,
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])
        opp = OptimizationOpportunity(
            kind="fuse-computes", events=(1, 2), kernels=("a", "b"),
            remove_events=(2,), verified=True,
        )
        diags = validate_opportunity(p, opp)
        assert errors(diags)
        assert all(d.rule.startswith("DF201") for d in diags)

    def test_df201_on_intervening_wait(self):
        p = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a",
                     writes=("u",), writes_known=True),
            AccEvent(kind="wait", wait_on=(1,)),
            AccEvent(kind="compute", kernel="b",
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])
        opp = OptimizationOpportunity(
            kind="fuse-computes", events=(1, 3), kernels=("a", "b"),
            remove_events=(3,), verified=True,
        )
        assert any(
            d.rule.startswith("DF201") for d in validate_opportunity(p, opp)
        )

    def test_df203_on_intervening_conflicting_access(self):
        # the moved kernel b reads 'u'; an update of 'u' sits between the
        # anchors, so moving b above it reorders a RAW pair
        p = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a",
                     writes=("v",), writes_known=True),
            AccEvent(kind="update", direction="device", var="u"),
            AccEvent(kind="compute", kernel="b", reads=("u",),
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])
        opp = OptimizationOpportunity(
            kind="fuse-computes", events=(1, 3), kernels=("a", "b"),
            remove_events=(3,), verified=True,
        )
        diags = validate_opportunity(p, opp)
        assert any(d.rule.startswith("DF203") for d in diags)

    def test_df202_on_hoist_past_a_writer(self):
        # hoisting the update at 3 to position 1 crosses the kernel at 2
        # that writes 'u' — the prologue copy would be stale
        p = prog([
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="compute", kernel="w0",
                     writes=("u",), writes_known=True),
            AccEvent(kind="compute", kernel="w1",
                     writes=("u",), writes_known=True),
            AccEvent(kind="update", direction="host", var="u"),
            AccEvent(kind="exit", delete=("u",)),
        ])
        opp = OptimizationOpportunity(
            kind="hoist-update", events=(3,), var="u",
            remove_events=(3,), insert_at=1, verified=True,
        )
        diags = validate_opportunity(p, opp)
        assert any(d.rule.startswith("DF202") for d in diags)

    def test_unknown_kind_refused(self):
        p = prog([AccEvent(kind="enter", copyin=("u",)),
                  AccEvent(kind="exit", delete=("u",))])
        opp = OptimizationOpportunity(
            kind="teleport", events=(0,), verified=True
        )
        assert errors(validate_opportunity(p, opp))

    def test_out_of_range_anchor_refused(self):
        p = prog([AccEvent(kind="enter", copyin=("u",)),
                  AccEvent(kind="exit", delete=("u",))])
        opp = OptimizationOpportunity(
            kind="fuse-computes", events=(1, 99), kernels=("a", "b"),
            remove_events=(99,), verified=True,
        )
        assert errors(validate_opportunity(p, opp))


class TestValidatorNeverOutrunsReplay:
    """The soundness direction: the validator must never admit what the
    bitwise shadow replay rejects. (The converse — replay admitting what
    the validator refuses — is allowed: the validator is conservative.)"""

    def _fixtures(self):
        fixtures = []
        base = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a", reads=("u",),
                     writes=("u",), writes_known=True),
            AccEvent(kind="compute", kernel="b", reads=("v",),
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])
        fixtures.append((base, OptimizationOpportunity(
            kind="fuse-computes", events=(1, 2), kernels=("a", "b"),
            remove_events=(2,), verified=True)))
        wait_between = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a",
                     writes=("u",), writes_known=True),
            AccEvent(kind="wait", wait_on=(1,)),
            AccEvent(kind="compute", kernel="b",
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])
        fixtures.append((wait_between, OptimizationOpportunity(
            kind="fuse-computes", events=(1, 3), kernels=("a", "b"),
            remove_events=(3,), verified=True)))
        update_between = prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a",
                     writes=("v",), writes_known=True),
            AccEvent(kind="host_write", writes=("u",)),
            AccEvent(kind="update", direction="device", var="u"),
            AccEvent(kind="compute", kernel="b", reads=("u",),
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])
        fixtures.append((update_between, OptimizationOpportunity(
            kind="fuse-computes", events=(1, 4), kernels=("a", "b"),
            remove_events=(4,), verified=True)))
        hoist_bad = prog([
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="compute", kernel="w0",
                     writes=("u",), writes_known=True),
            AccEvent(kind="compute", kernel="w1",
                     writes=("u",), writes_known=True),
            AccEvent(kind="update", direction="host", var="u"),
            AccEvent(kind="host_read", reads=("u",)),
            AccEvent(kind="exit", delete=("u",)),
        ])
        fixtures.append((hoist_bad, OptimizationOpportunity(
            kind="hoist-update", events=(3,), var="u",
            remove_events=(3,), insert_at=1, verified=True)))
        return fixtures

    def test_cross_check(self):
        for program, opp in self._fixtures():
            admitted = not errors(validate_opportunity(program, opp))
            replay_ok = verify_opportunity(program, opp)
            # never: validator admits AND replay rejects
            assert not (admitted and not replay_ok), (
                opp.kind, opp.events, admitted, replay_ok
            )

    def test_known_forgeries_rejected_statically(self):
        # every fixture after the first is a forgery the validator must
        # refuse on its own, without running the replay
        for program, opp in self._fixtures()[1:]:
            assert errors(validate_opportunity(program, opp)), opp.events


class TestWholePipelineValidation:
    @pytest.mark.parametrize("case,mode", [
        ("iso2d", "rtm"),
        ("iso2d", "modeling"),
        ("acoustic2d", "rtm"),
    ])
    def test_seed_cases_validate_clean(self, case, mode):
        compiled = compile_case(CompileRequest.from_case(case, mode, nt=8))
        assert compiled.verified
        assert compiled.validation is not None
        assert compiled.validation.ok
        assert compiled.validation.obligations > 0
        assert not errors(compiled.validation.diagnostics)

    def test_cross_phase_fusion_admitted(self):
        # the previously-skipped imaging->backward fusion is now admitted
        # under the static proof (and still passes the bitwise replay)
        compiled = compile_case(CompileRequest.from_case("iso2d", "rtm", nt=8))
        cross = [a for a in compiled.applied if "->" in a.phase]
        assert cross, [a.phase for a in compiled.applied]
        assert compiled.cross_variants
        launches = compiled.launches_per_step()
        assert launches["compiled"] < launches["interpreted"]

    def test_validation_report_serialises(self):
        compiled = compile_case(CompileRequest.from_case("iso2d", "rtm", nt=8))
        doc = compiled.validation.to_dict()
        assert doc["ok"] is True
        assert doc["obligations"] == compiled.validation.obligations
        assert doc["program_sha"] == compiled.program_sha

