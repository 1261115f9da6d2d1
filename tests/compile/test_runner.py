"""The ``GPUOptions.compiled`` fast path: drivers, cache, multi-GPU."""

import pytest

from repro.compile import runner
from repro.core.config import GPUOptions
from repro.core.modeling import _build_runtime
from repro.core.multigpu import MultiGpuPipeline
from repro.core.pipeline import (
    OffloadPipeline,
    run_pipeline_modeling,
    run_pipeline_rtm,
)
from repro.core.platform import CRAY_K40


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


def pipeline(compiled=False, physics="isotropic", **opts):
    options = GPUOptions(compiled=compiled, **opts)
    rt = _build_runtime(options, CRAY_K40)
    return OffloadPipeline(
        rt, physics, (96, 96), nreceivers=16, space_order=8,
        boundary_width=8, options=options, pml_variant="restructured",
    )


class TestSinglePipeline:
    def test_rtm_compiled_launches_fewer_kernels(self):
        interp = run_pipeline_rtm(pipeline(False), 8, 4)
        compiled = run_pipeline_rtm(pipeline(True), 8, 4)
        assert interp.success and compiled.success
        assert compiled.launches < interp.launches
        assert compiled.total <= interp.total

    def test_modeling_compiled(self):
        interp = run_pipeline_modeling(pipeline(False), 8, 4)
        compiled = run_pipeline_modeling(pipeline(True), 8, 4)
        assert compiled.success and compiled.launches < interp.launches

    def test_pipeline_bookkeeping_reset_after_compiled_run(self):
        p = pipeline(True)
        run_pipeline_rtm(p, 8, 4)
        assert p.phase == "idle"
        assert p.rt.present_names() == ()

    def test_known_failure_still_reports_compiler_x(self):
        from repro.acc.compiler import CRAY_8_2_6

        options = GPUOptions(compiled=True, compiler=CRAY_8_2_6)
        rt = _build_runtime(options, CRAY_K40)
        p = OffloadPipeline(
            rt, "elastic", (24, 24, 24), nreceivers=16, space_order=4,
            boundary_width=8, options=options, pml_variant="restructured",
        )
        times = run_pipeline_rtm(p, 4, 4)
        assert not times.success and times.failure == "compiler"


class TestCache:
    def test_same_shape_compiles_once(self):
        a, b = pipeline(True), pipeline(True)
        ca = runner.compiled_for_pipeline(a, "rtm", 8, 4)
        cb = runner.compiled_for_pipeline(b, "rtm", 8, 4)
        assert ca is cb

    def test_different_nt_recompiles(self):
        p = pipeline(True)
        assert runner.compiled_for_pipeline(p, "rtm", 8, 4) is not (
            runner.compiled_for_pipeline(p, "rtm", 12, 4)
        )


class TestMultiGpu:
    def test_ranks_match_interpreted_launch_savings(self):
        interp = MultiGpuPipeline(
            "isotropic", (96, 96), 2, options=GPUOptions(), boundary_width=8
        ).run(8, 4, "rtm")
        compiled = MultiGpuPipeline(
            "isotropic", (96, 96), 2, options=GPUOptions(compiled=True),
            boundary_width=8,
        ).run(8, 4, "rtm")
        assert len(compiled) == 2
        for ti, tc in zip(interp, compiled):
            assert tc.success and tc.launches < ti.launches

    def test_modeling_ranks(self):
        times = MultiGpuPipeline(
            "acoustic", (96, 96), 2, options=GPUOptions(compiled=True),
            boundary_width=8,
        ).run(8, 4)
        assert all(t.success for t in times)

    def test_sanitized_ranks_stay_clean_under_compiled_steps(self):
        # compiled steps call the ranks' directives; the sanitizer must
        # see the same coherent schedule it sees interpreted
        from repro.sanitize.session import SanitizeSession

        def diag_rules(compiled):
            session = SanitizeSession(nranks=2, name="compiled-multigpu")
            MultiGpuPipeline(
                "isotropic", (96, 96), 2,
                options=GPUOptions(compiled=compiled),
                boundary_width=8, session=session,
            ).run(8, 4)
            return sorted(
                (d.rule, d.var or "") for d in session.diagnostics
            )

        assert diag_rules(compiled=True) == diag_rules(compiled=False)
