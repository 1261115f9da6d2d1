"""The compile pipeline: segmentation, selection, verification gate."""

from dataclasses import replace

import pytest

from repro.analyze.dataflow import find_opportunities, reports_to_json
from repro.compile import (
    CompileRequest,
    compile_case,
    opportunities_from_artifact,
    record_segments,
)
from repro.compile.compiler import REPEATED_PHASES
from repro.core.config import GPUOptions
from repro.core.platform import CRAY_K40
from repro.utils.errors import CompileError, StaleArtifactError


def recording(case="iso2d", mode="rtm", nt=8):
    request = CompileRequest.from_case(case, mode, nt=nt)
    options = GPUOptions()
    return request, options, record_segments(request, options, CRAY_K40)


class TestRequest:
    def test_from_case_matches_deps_recording_params(self):
        req = CompileRequest.from_case("iso2d", "rtm", nt=8)
        assert (req.physics, req.shape) == ("isotropic", (96, 96))
        assert (req.space_order, req.boundary_width) == (8, 8)
        req3 = CompileRequest.from_case("el3d", "modeling")
        assert (req3.ndim, req3.space_order, req3.nt) == (3, 4, 24)

    def test_name(self):
        assert CompileRequest.from_case("ac2d", "rtm").name == "acoustic-2d-rtm"


class TestSegments:
    def test_segments_tile_the_program_exactly(self):
        _, _, rec = recording()
        covered = []
        for seg in rec.segments:
            covered.extend(range(seg.start, seg.stop))
        assert covered == list(range(len(rec.program.events)))

    def test_rtm_phase_counts(self):
        req, _, rec = recording(nt=8)
        assert len(rec.slices("forward")) == req.nt
        assert len(rec.slices("backward")) == req.nt
        assert len(rec.slices("snapshot")) == req.nt // req.snap_period
        assert len(rec.slices("allocate")) == 1
        assert len(rec.slices("swap")) == 1
        assert len(rec.slices("finalize")) == 1

    def test_repeated_phases_are_steady_state(self):
        _, _, rec = recording()
        for phase in REPEATED_PHASES:
            rec.template(phase)  # must not raise

    def test_template_ignores_position_and_label_only(self):
        _, _, rec = recording()
        first, second = rec.slices("forward")[:2]
        events = rec.program.events
        template = rec.template("forward")
        i = second.start + 1
        events[i] = replace(events[i], index=10_000, label="moved")
        assert rec.template("forward") == template
        events[i] = replace(events[i], queue=7)
        with pytest.raises(CompileError) as err:
            rec.template("forward")
        assert str(err.value) == (
            f"phase 'forward' is not steady-state: slice at event "
            f"{second.start} differs from the template at event "
            f"{first.start} (input-dependent schedules cannot be compiled)"
        )

    def test_hash_matches_the_deps_recording(self):
        # compile re-records with the exact parameters deps uses, so the
        # artifact's program_sha gates cleanly
        from repro.analyze.drivers import record_pipeline_program

        req, _, rec = recording(nt=8)
        deps_program = record_pipeline_program(
            "isotropic", (96, 96), "rtm", nt=8, snap_period=4,
            space_order=8, boundary_width=8,
        )
        assert rec.program.sha() == deps_program.sha()


class TestCompileCase:
    def test_compiles_verifies_and_fuses(self):
        compiled = compile_case(CompileRequest.from_case("iso2d", "rtm", nt=8))
        assert compiled.verified
        assert len(compiled.applied) >= 1
        per_step = compiled.launches_per_step()
        assert per_step["compiled"] < per_step["interpreted"]

    def test_modeling_mode(self):
        compiled = compile_case(
            CompileRequest.from_case("ac2d", "modeling", nt=8)
        )
        assert compiled.verified
        assert set(compiled.steps) >= {"allocate", "forward", "finalize"}
        assert "swap" not in compiled.steps

    def test_every_applied_fusion_is_priced(self):
        compiled = compile_case(CompileRequest.from_case("iso2d", "rtm", nt=8))
        fusions = [a for a in compiled.applied if a.kind == "fuse-computes"]
        assert fusions
        for a in fusions:
            assert "saved_seconds" in a.modelled
            assert "effective_maxregcount" in a.modelled

    def test_known_failure_persona_refused(self):
        from repro.acc.compiler import CRAY_8_2_6

        with pytest.raises(CompileError, match="known compiler failure"):
            compile_case(
                CompileRequest.from_case("el3d", "rtm", nt=4),
                options=GPUOptions(compiler=CRAY_8_2_6),
            )


class TestArtifactGate:
    def make_artifact(self, program):
        report = find_opportunities(program, verify=True)
        report.program_sha = program.sha()
        return reports_to_json([report])

    def test_artifact_roundtrip(self):
        _, _, rec = recording(nt=8)
        artifact = self.make_artifact(rec.program)
        opps = opportunities_from_artifact(artifact, rec.program)
        assert opps and all(o.verified for o in opps)

    def test_compile_with_artifact(self):
        req, _, rec = recording(nt=8)
        artifact = self.make_artifact(rec.program)
        compiled = compile_case(req, artifact=artifact)
        assert compiled.verified and compiled.applied

    def test_unverified_opportunities_are_skipped_not_applied(self):
        req, _, rec = recording(nt=8)
        report = find_opportunities(rec.program, verify=False)
        report.program_sha = rec.program.sha()
        compiled = compile_case(req, artifact=reports_to_json([report]))
        assert compiled.verified  # bitwise gate still passes...
        assert not compiled.applied  # ...because nothing was applied
        assert any(
            "not verified" in reason for _, _, reason in compiled.skipped
        )

    def test_malformed_artifact_refused(self):
        req, _, rec = recording(nt=8)
        with pytest.raises(ValueError):
            opportunities_from_artifact({"schema": 1}, rec.program)
        with pytest.raises(StaleArtifactError):
            compile_case(req, artifact={"schema": 1, "programs": []})
