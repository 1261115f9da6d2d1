"""The hard refusal cases: cross-queue waits, degenerate hoists, stale
artifacts. The compiler must fail closed on every one."""

import json

import pytest

from repro.analyze.dataflow import find_opportunities, verify_opportunity
from repro.analyze.dataflow.opportunities import OptimizationOpportunity
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.compile import CompileRequest, apply_to_template, compile_case
from repro.compile.compiler import (
    SelectedOpportunity,
    _structural_reason,
)
from repro.utils.errors import StaleArtifactError


def prog(events, extents=None):
    p = DirectiveProgram()
    for e in events:
        p.add(e)
    p.extents.update(extents or {"u": 1024, "v": 1024})
    return p


class TestFuseAcrossWait:
    """Fusing two computes across a ``wait`` another queue depends on
    would reorder that queue's synchronisation point: always rejected."""

    def cross_queue_program(self):
        return prog([
            AccEvent(kind="enter", copyin=("u", "v")),
            AccEvent(kind="compute", kernel="a", queue=None,
                     writes=("u",), writes_known=True),
            # queue 1's producer must drain before anything later runs
            AccEvent(kind="wait", wait_on=(1,)),
            AccEvent(kind="compute", kernel="b", queue=None,
                     writes=("v",), writes_known=True),
            AccEvent(kind="exit", delete=("u", "v")),
        ])

    def test_finder_never_offers_the_pair(self):
        report = find_opportunities(self.cross_queue_program())
        assert not any(
            o.kind == "fuse-computes" and o.events == (1, 3)
            for o in report.opportunities
        )

    def test_structural_check_rejects_a_forged_record(self):
        # even a verified-flagged artifact record is refused structurally
        opp = OptimizationOpportunity(
            kind="fuse-computes", events=(1, 3), kernels=("a", "b"),
            remove_events=(3,), verified=True,
        )
        reason = _structural_reason(self.cross_queue_program(), opp)
        assert reason is not None and "wait" in reason

    def test_different_queues_rejected(self):
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
        assert "queue" in _structural_reason(p, opp)


class TestTripCountOneHoist:
    """Hoisting an ``update`` out of a loop that runs exactly once is the
    degenerate case: legal, and must leave the schedule byte-identical."""

    def one_trip_program(self):
        return prog([
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="update", direction="device", var="u"),
            AccEvent(kind="compute", kernel="k", reads=("u",)),
            AccEvent(kind="exit", delete=("u",)),
        ], extents={"u": 1024})

    def test_replay_proves_the_degenerate_hoist(self):
        p = self.one_trip_program()
        opp = OptimizationOpportunity(
            kind="hoist-update", events=(1,), var="u",
            remove_events=(1,), insert_at=1,
        )
        assert verify_opportunity(p, opp)

    def test_template_application_moves_it_to_the_prologue(self):
        p = self.one_trip_program()
        template = list(p.events[1:3])  # the "loop body": update + compute
        opp = OptimizationOpportunity(
            kind="hoist-update", events=(1,), var="u",
            remove_events=(1,), insert_at=1, verified=True,
        )
        sel = SelectedOpportunity(
            opportunity=opp, phase="forward", offsets=(0,)
        )
        transformed, hoisted = apply_to_template(template, [sel], p)
        assert [e.kind for e in transformed] == ["compute"]
        assert len(hoisted) == 1
        assert (hoisted[0].kind, hoisted[0].var) == ("update", "u")


STALE_ARTIFACT = {
    "schema": 1,
    "programs": [{
        "name": "isotropic-2d-rtm",
        "case": "iso2d", "mode": "rtm",
        "program_sha": "0" * 64,
        "opportunities": [],
    }],
}


class TestStaleArtifact:
    """A hash-mismatched opportunities artifact must fail closed with an
    actionable error — never silently compile without proofs."""

    def test_mismatched_nt_is_stale(self):
        req8 = CompileRequest.from_case("iso2d", "rtm", nt=8)
        from repro.analyze.dataflow import reports_to_json
        from repro.compile import record_segments
        from repro.core.config import GPUOptions
        from repro.core.platform import CRAY_K40

        rec = record_segments(req8, GPUOptions(), CRAY_K40)
        report = find_opportunities(rec.program, verify=False)
        report.program_sha = rec.program.sha()
        artifact = reports_to_json([report])
        # same case, different nt -> different schedule -> different sha
        req12 = CompileRequest.from_case("iso2d", "rtm", nt=12)
        with pytest.raises(StaleArtifactError) as err:
            compile_case(req12, artifact=artifact)
        message = str(err.value)
        assert "stale" in message
        assert "deps" in message  # tells the user how to re-record

    @pytest.mark.parametrize("command", ["compile", "validate"])
    @pytest.mark.parametrize("text,reason", [
        (json.dumps(STALE_ARTIFACT), None),
        (json.dumps(STALE_ARTIFACT)[:60], "Unterminated string"),
        (
            json.dumps({"schema": 1, "programs": [{"name": 3}]}),
            "$.programs[0]: missing required key 'opportunities'",
        ),
    ], ids=["stale", "truncated", "schema-invalid"])
    def test_cli_exit_code_two(self, tmp_path, capsys, command, text, reason):
        """Stale, truncated and schema-invalid artifacts are all refused
        with exit status 2; a malformed one (``reason`` given) in one line
        naming the file, before any target is recorded."""
        from repro.__main__ import build_parser
        from repro.analyze.validate_cli import run_validate_command
        from repro.compile.cli import run_compile_command

        run = {
            "compile": run_compile_command,
            "validate": run_validate_command,
        }[command]
        path = tmp_path / "opportunities.json"
        path.write_text(text)
        args = build_parser().parse_args([
            command, "iso2d", "--mode", "rtm", "--nt", "4",
            "--opportunities", str(path), "--no-ledger",
        ])
        assert run(args) == 2
        out = capsys.readouterr().out
        if reason is None:
            assert "STALE ARTIFACT" in out
        else:
            (line,) = out.splitlines()
            assert line.startswith(
                f"{command}: unusable opportunities artifact {path}: "
            )
            assert reason in line
