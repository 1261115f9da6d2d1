"""The Runtime recording hook and the recorded seed-case programs.

The key property: every one of the repo's 12 seed offload schedules
(3 physics x 2 dims x modeling/rtm) lints clean of error-level findings —
the pipeline's directive sequences are the paper's *fixed* versions, so the
analyzer must not cry wolf on them.
"""

import pytest

from repro.acc import Runtime
from repro.acc.compiler import CRAY_8_2_6, PGI_14_6
from repro.analyze import (
    ProgramRecorder,
    Severity,
    lint_program,
    record_pipeline_program,
)
from repro.analyze.drivers import check_schedule
from repro.core.config import GPUOptions
from repro.core.platform import CRAY_K40
from repro.gpusim import Device, K40
from repro.propagators.base import KernelWorkload
from repro.utils.errors import AnalysisError
from repro.utils.units import MB

CASES = [
    (physics, ndim, mode)
    for physics in ("isotropic", "acoustic", "elastic")
    for ndim in (2, 3)
    for mode in ("modeling", "rtm")
]

SHAPES = {2: (96, 96), 3: (48, 48, 48)}


def small_shape(ndim):
    return SHAPES[ndim]


class TestRecorder:
    def rt(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        rec = ProgramRecorder(name="unit")
        r.attach_recorder(rec)
        return r, rec

    def test_meta_bound_from_runtime(self):
        _, rec = self.rt()
        meta = rec.program.meta
        assert meta.source == "recorded"
        assert meta.device == K40.name
        assert meta.compiler == PGI_14_6.name
        assert meta.vendor == "pgi"
        assert meta.warp_size == K40.warp_size

    def test_data_directives_recorded_with_sizes(self):
        r, rec = self.rt()
        r.enter_data(copyin={"u": 4 * MB}, create={"tmp": MB})
        r.update_host("u")
        r.exit_data(delete=["u", "tmp"])
        kinds = [e.kind for e in rec.program.events]
        assert kinds == ["enter", "update", "exit"]
        assert rec.program.extents["u"] == 4 * MB
        assert rec.program.events[1].direction == "host"
        assert rec.program.events[1].nbytes is None  # full extent

    def test_partial_update_records_extent(self):
        r, rec = self.rt()
        r.enter_data(copyin={"u": 4 * MB})
        r.update_device("u", nbytes=MB, chunks=8)
        e = rec.program.events[-1]
        assert e.nbytes == MB and e.chunks == 8
        assert not rec.program.full_extent(e)

    def test_structured_data_region_recorded(self):
        r, rec = self.rt()
        with r.data(copy={"u": MB}):
            pass
        enter, exit_ = rec.program.events
        assert enter.structured and enter.copyin == ("u",)
        assert exit_.structured and exit_.copyout == ("u",)

    def test_compute_recorded_conservatively(self):
        """Recorded kernels only know the present clause: reads=present,
        writes unknown — the passes must treat them conservatively."""
        r, rec = self.rt()
        r.enter_data(copyin={"u": MB})
        w = KernelWorkload("k", 10**4, 10.0, 4, 2, (100, 100))
        r.kernels(w, present=["u"])
        e = rec.program.computes()[0]
        assert e.kernel == "k"
        assert e.reads == ("u",)
        assert not e.writes_known
        assert e.loop_dims == (100, 100)
        assert e.regs_demand is not None

    def test_wait_and_wait_clause_recorded(self):
        r, rec = self.rt()
        w = KernelWorkload("k", 10**4, 10.0, 4, 2, (100, 100))
        r.kernels(w, async_=1)
        r.kernels(w, async_=2, wait_on=(1,))
        r.wait()
        events = rec.program.events
        assert events[1].wait_on == (1,)
        assert events[2].kind == "wait" and events[2].wait_on == ()

    def test_note_host_write(self):
        r, rec = self.rt()
        r.note_host_write("u", "v")
        e = rec.program.events[0]
        assert e.kind == "host_write" and e.writes == ("u", "v")

    def test_no_recorder_is_free(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        r.note_host_write("u")  # no-op without a recorder
        r.enter_data(copyin={"u": MB})
        r.exit_data(delete=["u"])
        r.shutdown_check()


class TestRecordedPrograms:
    @pytest.mark.parametrize("physics,ndim,mode", CASES)
    def test_seed_cases_lint_clean_of_errors(self, physics, ndim, mode):
        program = record_pipeline_program(
            physics, small_shape(ndim), mode,
            nt=12, snap_period=4,
            space_order=4 if ndim == 3 else 8, boundary_width=8,
        )
        result = lint_program(program)
        errors = [d for d in result.diagnostics if d.severity >= Severity.ERROR]
        assert errors == [], [d.message for d in errors]

    def test_cray_auto_async_also_clean(self):
        """CRAY auto-queues every kernel; the step-end waits must keep the
        recorded schedule race-free."""
        program = record_pipeline_program(
            "acoustic", (96, 96), "rtm", nt=8, snap_period=4,
            options=GPUOptions(compiler=CRAY_8_2_6), boundary_width=8,
        )
        result = lint_program(program)
        assert not result.fails(Severity.ERROR)

    def test_program_shape_matches_pipeline(self):
        program = record_pipeline_program(
            "acoustic", (96, 96), "rtm", nt=8, snap_period=4, boundary_width=8,
        )
        counts = program.summary()
        assert counts["enter"] == 2  # forward inventory + backward swap
        assert counts["exit"] == 2
        assert counts["compute"] > 0
        assert counts.get("host_write", 0) > 0  # snapshot reloads marked


class TestStrictMode:
    def test_clean_schedule_passes(self):
        result = check_schedule(
            "acoustic", (96, 96), "rtm",
            GPUOptions(), CRAY_K40, boundary_width=8,
        )
        assert not result.fails(Severity.ERROR)

    def test_error_gate_raises(self):
        with pytest.raises(AnalysisError, match="refused"):
            check_schedule(
                "acoustic", (96, 96), "rtm",
                GPUOptions(), CRAY_K40, boundary_width=8,
                fail_on=Severity.INFO,  # seed cases do carry info findings
            )

    def test_refusal_names_three_findings_and_counts_the_rest(self):
        from repro.analyze.framework import Diagnostic, refuse

        found = [
            Diagnostic("p", f"DF{i}", severity, f"m{i}")
            for i, severity in enumerate(
                (Severity.ERROR, Severity.INFO, Severity.ERROR,
                 Severity.WARNING, Severity.ERROR)
            )
        ]
        refuse(found[1:2], Severity.WARNING, "who", "what", "finding(s)")
        with pytest.raises(AnalysisError) as refused:
            refuse(found, Severity.WARNING, "strict lint",
                   "acoustic-2d rtm schedule", "finding(s)")
        assert str(refused.value) == (
            "strict lint refused the acoustic-2d rtm schedule: 4 finding(s) "
            "at or above warning — DF0: m0; DF2: m2; DF3: m3 (+1 more)"
        )
