"""The capacity prover: static high-water marks vs the allocator's
observed peaks, the would-OOM refusal, and the register-bound pruning."""

import dataclasses

import pytest

from repro.analyze.capacity import (
    admissible_maxregcounts,
    checkpoint_spike,
    prove_capacity,
    register_bound,
)
from repro.analyze.framework import Severity
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.compile.compiler import CompileRequest, record_segments
from repro.core.config import GPUOptions
from repro.core.platform import CRAY_K40
from repro.gpusim.memory import _aligned
from repro.gpusim.specs import K40
from repro.utils.errors import AnalysisError


def _record(case: str, mode: str, nt: int = 8):
    request = CompileRequest.from_case(case, mode, nt=nt)
    return record_segments(request, GPUOptions(), CRAY_K40)


def _phase_of(recording):
    def phase_of(idx):
        seg = recording.segment_of(idx)
        return seg.phase if seg is not None else "program"

    return phase_of


class TestStaticVsObserved:
    """The proof must match what DeviceMemory actually observed — the
    same events, the same 256-byte alignment, so bit for bit."""

    @pytest.mark.parametrize("case,mode", [
        ("iso2d", "rtm"),
        ("iso2d", "modeling"),
        ("acoustic2d", "rtm"),
        ("el2d", "modeling"),
    ])
    def test_peak_matches_device_memory(self, case, mode):
        recording = _record(case, mode)
        memory = recording.pipeline.rt.device.memory
        proof = prove_capacity(
            recording.program,
            usable_bytes=memory.usable_bytes,
            phase_of=_phase_of(recording),
        )
        assert proof.peak_bytes == memory.peak_bytes
        assert proof.fits
        assert not proof.diagnostics

    def test_3d_peak_matches_device_memory(self):
        recording = _record("iso3d", "rtm")
        memory = recording.pipeline.rt.device.memory
        proof = prove_capacity(recording.program)
        assert proof.peak_bytes == memory.peak_bytes

    def test_phase_marks_cover_the_schedule(self):
        recording = _record("iso2d", "rtm")
        proof = prove_capacity(
            recording.program, phase_of=_phase_of(recording)
        )
        phases = {p.phase for p in proof.phases}
        assert "allocate" in phases
        # the residency witness is the enter chain live at the peak
        assert proof.witness
        kinds = {recording.program.events[i].kind for i in proof.witness}
        assert kinds == {"enter"}


class TestWouldOom:
    def test_df210_refuses_before_any_allocation(self):
        recording = _record("iso2d", "rtm")
        peak = prove_capacity(recording.program).peak_bytes
        proof = prove_capacity(
            recording.program, usable_bytes=peak - 1, device="shrunken"
        )
        assert not proof.fits
        assert [d.rule for d in proof.diagnostics] == \
            ["DF210-device-over-capacity"]
        d = proof.diagnostics[0]
        assert d.severity is Severity.ERROR
        assert "OOM" in d.message
        assert d.witness == proof.witness

    def test_strict_validate_gate_refuses_statically(self):
        from repro.analyze.validate_cli import check_validate

        tiny_gpu = dataclasses.replace(
            K40, name="tiny-K40", memory_bytes=64 * 1024
        )
        platform = dataclasses.replace(CRAY_K40, gpu=tiny_gpu)
        with pytest.raises(AnalysisError, match="DF210"):
            check_validate(
                "isotropic", (64, 64), "rtm", GPUOptions(), platform,
                nt=8, snap_period=4,
            )

    def test_strict_validate_gate_passes_the_real_card(self):
        from repro.analyze.validate_cli import check_validate

        proof = check_validate(
            "isotropic", (64, 64), "rtm", GPUOptions(), CRAY_K40,
            nt=8, snap_period=4,
        )
        assert proof.fits


class TestCheckpointSpike:
    def _program(self, field_bytes):
        p = DirectiveProgram()
        p.add(AccEvent(kind="enter", copyin=("u",), label="allocate"))
        p.add(AccEvent(kind="compute", kernel="bwd", reads=("u",),
                       writes=("u",), writes_known=True, label="backward"))
        p.add(AccEvent(kind="exit", delete=("u",), label="finalize"))
        p.extents.update({"u": field_bytes})
        return p

    def test_df211_fires_in_the_window(self):
        field_bytes = 1 << 20
        program = self._program(field_bytes)
        # backward fits, backward + one restored state does not
        usable = _aligned(field_bytes) + 512
        proof = prove_capacity(program, usable_bytes=usable)
        assert proof.fits
        diag = checkpoint_spike(proof, field_bytes, nt=16, snap_period=4)
        assert diag is not None
        assert diag.rule == "DF211-checkpoint-spike"
        assert diag.severity is Severity.WARNING
        assert diag in proof.diagnostics

    def test_df211_silent_when_the_spike_fits(self):
        field_bytes = 1 << 20
        program = self._program(field_bytes)
        proof = prove_capacity(
            program, usable_bytes=4 * _aligned(field_bytes)
        )
        assert checkpoint_spike(proof, field_bytes, 16, 4) is None


class TestRegisterBounds:
    def _workloads(self, case="iso2d"):
        recording = _record(case, "rtm")
        return list(recording.pipeline.forward_workloads)[:2]

    def test_register_bound_prices_a_fusion(self):
        workloads = self._workloads()
        bound = register_bound(K40, workloads, maxregcount=64)
        assert bound.parts == tuple(w.name for w in workloads)
        assert 0.0 < bound.occupancy <= 1.0
        assert bound.seconds > 0.0

    def test_admissible_always_keeps_a_candidate(self):
        workloads = self._workloads()
        kept = admissible_maxregcounts(K40, workloads, (16, 64, None))
        assert kept
        assert set(kept) <= {16, 64, None}

    def test_admissible_prunes_only_proven_losers(self):
        from repro.optim.tuning import register_sweep

        workloads = self._workloads()
        candidates = (16, 32, 64, None)
        kept = admissible_maxregcounts(K40, workloads, candidates)
        points = {
            p.maxregcount: p
            for p in register_sweep(K40, workloads, (16, 32, 64))
        }
        best_clean = min(
            (p.seconds for p in points.values() if p.spilled_regs == 0),
            default=None,
        )
        for cand in candidates:
            if cand in kept or cand is None:
                continue
            p = points[cand]
            assert best_clean is not None
            assert p.spilled_regs > 0 and p.seconds >= best_clean
