"""Golden fault-free op-count envelopes of the chaos harness.

:meth:`FaultPlan.seeded` draws every injection point from these counts,
so a directive added to or dropped from the executed (single-card) or the
resilient multi-rank path would silently move every seeded fault. The
golden pins them: regenerate it only for a deliberate schedule change,
with ``PYTHONPATH=src python tests/resilience/test_op_envelopes.py``
redirected into the golden file.
"""

import json
import sys
from pathlib import Path

from repro.cases import CASES
from repro.core.config import GPUOptions, ModelingConfig, RTMConfig
from repro.resilience.chaos import (
    CHAOS_SHAPES,
    _chaos_config,
    _min_rank_envelope,
)
from repro.resilience.recovery import ResilientMultiGpu, ResilientPipeline

GOLDEN = Path(__file__).with_name("op_envelopes.json")
MODES = ("modeling", "rtm")


def envelopes() -> dict:
    """Single-card ``op_counts()`` at nt=16 and the 2-rank minimum
    envelope at nt=12, per case and mode (the chaos CLI defaults)."""
    out: dict = {"ranks1": {}, "ranks2": {}}
    for case in CASES:
        for mode in MODES:
            physics, ndim, kw = _chaos_config(case, 16)
            cls = RTMConfig if mode == "rtm" else ModelingConfig
            ref = ResilientPipeline(cls(**kw), gpu_options=GPUOptions())
            ref.run_rtm() if mode == "rtm" else ref.run_modeling()
            out["ranks1"][f"{case}-{mode}"] = ref.injector.op_counts()
            multi = ResilientMultiGpu(
                physics, CHAOS_SHAPES[ndim], 2, boundary_width=8,
                space_order=4 if ndim == 3 else 8,
            )
            multi.run(12, 4, mode=mode)
            out["ranks2"][f"{case}-{mode}"] = _min_rank_envelope(
                multi.injector, 2
            )
    return out


def test_fault_free_envelopes_match_golden():
    assert envelopes() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(envelopes(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
