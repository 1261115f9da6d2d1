"""The 12 seed-case schedules sanitize clean — at one rank and at four.

This is the sanitizer's false-positive gate: the executed offload
schedules of every physics x dimension x mode combination must produce
zero findings, with and without a halo decomposition in play.
"""

import pytest

from repro.core import GPUOptions
from repro.sanitize.cli import sanitize_case

CASES = [
    (physics, ndim, mode)
    for physics, ndim in (
        ("isotropic", 2), ("acoustic", 2), ("elastic", 2),
        ("isotropic", 3), ("acoustic", 3), ("elastic", 3),
    )
    for mode in ("modeling", "rtm")
]


@pytest.mark.parametrize("physics,ndim,mode", CASES)
def test_single_rank_clean(physics, ndim, mode):
    r = sanitize_case(physics, ndim, mode, ranks=1)
    assert r.clean(), [d.rule for d in r.diagnostics]


@pytest.mark.parametrize("physics,ndim,mode", CASES)
def test_four_ranks_clean(physics, ndim, mode):
    r = sanitize_case(physics, ndim, mode, ranks=4)
    assert r.nranks == 4
    assert r.clean(), [(d.rule, d.message) for d in r.diagnostics]


class TestStrictModeGate:
    def test_check_sanitize_passes_clean_config(self):
        from repro.core.platform import CRAY_K40
        from repro.sanitize.drivers import check_sanitize

        result = check_sanitize(
            "isotropic", (96, 96), "rtm", GPUOptions(), CRAY_K40,
            space_order=8, boundary_width=8,
        )
        assert result.clean()

    def test_check_sanitize_raises_on_hazards(self, monkeypatch):
        from repro.core import multigpu
        from repro.core.platform import CRAY_K40
        from repro.sanitize.drivers import check_sanitize
        from repro.utils.errors import AnalysisError

        broken = multigpu.ExchangeProtocol(update_ghost_device=False)
        orig = multigpu.MultiGpuPipeline.__init__

        def faulty(self, *args, **kwargs):
            kwargs["protocol"] = broken
            orig(self, *args, **kwargs)

        monkeypatch.setattr(multigpu.MultiGpuPipeline, "__init__", faulty)
        with pytest.raises(AnalysisError, match="stale-device-read"):
            check_sanitize(
                "isotropic", (96, 96), "rtm", GPUOptions(), CRAY_K40,
                ranks=2, space_order=8, boundary_width=8,
            )
