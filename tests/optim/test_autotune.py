"""The closed-loop tuner: probe extraction, search, plan artifact, apply."""

import dataclasses
import json

import pytest

from repro.acc.clauses import LoopSchedule
from repro.core.config import GPUOptions
from repro.core.rtm import estimate_rtm
from repro.observe.reduce import reduce_trace
from repro.optim.autotune import (
    BASELINE,
    KernelPlan,
    ScheduleCandidate,
    TuneRequest,
    TuningPlan,
    lint_gate,
    load_plan,
    observed_step_seconds,
    options_with_plan,
    request_for_case,
    run_probe,
    tune_case,
)
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError

GPU = "gpu:Tesla K40"


def _kernel(tracer, name, start, end, queue=None, occupancy=0.5, spill=0):
    """Emit one device-style kernel span on the tracer."""
    track = "stream:0" if queue is None else f"queue:{queue}"
    args = {}
    if occupancy is not None:
        args["occupancy"] = occupancy
    if spill is not None:
        args["spilled_regs"] = spill
    tracer.emit(name, start, end, process=GPU, track=track, cat="kernel", **args)


class TestExtractObservations:
    """A probe's per-kernel observations are the trace reduction's kernel
    aggregates (what :func:`run_probe` reads)."""

    def test_golden_trace(self):
        """A hand-built trace reduces to the expected per-kernel stats."""
        tr = Tracer()
        _kernel(tr, "update_p", 0.0, 2.0, occupancy=0.4, spill=0)
        _kernel(tr, "update_p", 2.0, 4.0, occupancy=0.8, spill=4)
        _kernel(tr, "inject", 4.0, 4.5, occupancy=1.0, spill=0)
        obs = reduce_trace(tr).kernels
        assert set(obs) == {"update_p", "inject"}
        p = obs["update_p"]
        assert p.count == 2
        assert p.total_s == pytest.approx(4.0)
        assert p.mean_s == pytest.approx(2.0)
        # duration-weighted mean of equal-length launches
        assert p.occupancy == pytest.approx(0.6)
        assert p.spilled_regs == 4
        assert obs["inject"].mean_s == pytest.approx(0.5)

    def test_overlapping_async_spans(self):
        """Concurrent spans on different queues are charged independently
        and the queue census records where each launch ran."""
        tr = Tracer()
        _kernel(tr, "k", 0.0, 1.0, queue=1)
        _kernel(tr, "k", 0.2, 1.2, queue=2)   # overlaps the queue-1 launch
        _kernel(tr, "k", 1.2, 2.0, queue=2)
        obs = reduce_trace(tr).kernels["k"]
        assert obs.count == 3
        assert obs.total_s == pytest.approx(2.8)
        assert obs.queues == {1: 1, 2: 2}
        assert obs.preferred_queue() == 2

    def test_partial_occupancy_is_conservative(self):
        """If even one launch lacks the annotation, the kernel reports no
        occupancy rather than a mean over the annotated launches."""
        tr = Tracer()
        _kernel(tr, "k", 0.0, 1.0, occupancy=0.5)
        _kernel(tr, "k", 1.0, 2.0, occupancy=None, spill=None)
        obs = reduce_trace(tr).kernels
        assert obs["k"].occupancy is None
        assert obs["k"].spilled_regs == 0

    def test_ignores_non_kernel_events(self):
        tr = Tracer()
        tr.emit("copyin:model", 0.0, 1.0, process=GPU, track="stream:0",
                cat="h2d", bytes=100)
        assert reduce_trace(tr).kernels == {}


class TestTransferOverlap:
    """A probe's transfer overlap is its card's (rank 0's) reduction."""

    def test_interval_intersection(self):
        tr = Tracer()
        _kernel(tr, "k", 0.0, 2.0, queue=1)
        tr.emit("up", 1.0, 3.0, process=GPU, track="stream:0", cat="h2d")
        tr.emit("down", 5.0, 6.0, process=GPU, track="stream:0", cat="d2h")
        card = reduce_trace(tr).ranks[0]
        assert card.transfer_s == pytest.approx(3.0)
        assert card.transfer_overlap_s == pytest.approx(1.0)  # 1.0..2.0

    def test_no_transfers(self):
        tr = Tracer()
        _kernel(tr, "k", 0.0, 1.0)
        card = reduce_trace(tr).ranks[0]
        assert (card.transfer_overlap_s, card.transfer_s) == (0.0, 0.0)


class TestObservedStepSeconds:
    def test_combines_forward_and_backward(self):
        tr = Tracer()
        tr.emit("forward_step", 0.0, 1.0, track="pipeline", cat="phase")
        tr.emit("forward_step", 1.0, 2.0, track="pipeline", cat="phase")
        tr.emit("backward_step", 2.0, 5.0, track="pipeline", cat="phase")
        tr.emit("backward_step", 5.0, 8.0, track="pipeline", cat="phase")
        mean, steps = observed_step_seconds(tr)
        assert steps == 2
        assert mean == pytest.approx(4.0)  # (2 + 6) / 2

    def test_empty(self):
        assert observed_step_seconds(Tracer()) == (0.0, 0)


class TestProbe:
    def test_probe_measures_real_pipeline(self):
        request = request_for_case("acoustic-2d", mode="rtm")
        result = run_probe(request, request.base_options)
        assert result.success
        assert result.steps == request.nt
        assert result.step_seconds > 0
        assert "acoustic_update_p" in result.kernels
        obs = result.kernels["acoustic_update_p"]
        assert obs.occupancy is not None and 0 < obs.occupancy <= 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            TuneRequest(physics="acoustic", shape=(64, 64), mode="sideways")


class TestLintGate:
    def test_passes_clean_candidate(self):
        request = request_for_case("acoustic-2d")
        cand = ScheduleCandidate("kernels", 128, 64, None)
        ok, errors = lint_gate(request, cand.options(request.base_options))
        assert ok and errors == []

    def test_prunes_false_independent(self):
        """An explicit independent schedule over the loop-carried original
        backward kernels is exactly what schedule lint must refuse."""
        request = request_for_case("acoustic-2d")
        base = dataclasses.replace(
            request.base_options, reuse_forward_kernel=False
        )
        request = dataclasses.replace(request, base_options=base)
        cand = ScheduleCandidate("parallel", 128, 64, None)
        ok, errors = lint_gate(request, cand.options(base))
        assert not ok
        assert "false-independent" in errors


class TestPlanArtifact:
    def _tiny_plan(self):
        return TuningPlan(
            case="acoustic-2d",
            mode="rtm",
            platform="CRAY",
            compiler="PGI 14.6",
            maxregcount=64,
            async_kernels=True,
            kernels={
                "acoustic_update_p": KernelPlan(
                    kernel="acoustic_update_p",
                    construct="kernels",
                    vector_length=128,
                    queue=1,
                    predicted_seconds=1.0e-3,
                    observed_seconds=1.1e-3,
                    model_error=-0.0909,
                ),
            },
            baseline_step_seconds=2.0e-3,
            tuned_step_seconds=1.8e-3,
            probes=3,
            budget=3,
        )

    def test_json_roundtrip(self, tmp_path):
        plan = self._tiny_plan()
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = load_plan(str(path))
        assert loaded.kernels["acoustic_update_p"].queue == 1
        assert loaded.improvement == pytest.approx(plan.improvement)
        assert loaded.to_json() == plan.to_json()

    def test_version_gate(self, tmp_path):
        data = self._tiny_plan().to_json()
        data["version"] = 99
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError):
            load_plan(str(path))

    def test_entry_for_and_schedule(self):
        plan = self._tiny_plan()
        entry = plan.entry_for("acoustic_update_p")
        assert entry is not None
        sched = entry.loop_schedule()
        assert isinstance(sched, LoopSchedule)
        assert sched.vector_length == 128
        assert plan.entry_for("unknown_kernel") is None

    def test_model_error_reported(self):
        plan = self._tiny_plan()
        assert plan.mean_abs_model_error == pytest.approx(0.0909)

    def test_options_with_plan(self):
        plan = self._tiny_plan()
        opts = options_with_plan(GPUOptions(), plan)
        assert opts.plan is plan
        assert opts.flags.maxregcount == 64
        assert opts.async_kernels is True
        assert opts.construct is None  # entries, not a global force


class TestTuneCase:
    @pytest.fixture(scope="class")
    def plan(self):
        return tune_case(request_for_case("acoustic-2d"), budget=3)

    def test_never_slower_than_default(self, plan):
        assert plan.tuned_step_seconds <= plan.baseline_step_seconds

    def test_records_model_error(self, plan):
        errs = [
            k.model_error
            for k in plan.kernels.values()
            if k.model_error is not None
        ]
        assert errs, "plan must record predicted-vs-observed per kernel"

    def test_plan_applies_to_estimate(self, plan):
        """Applying the plan to a real estimate run of the tuned case (same
        shape the tuner probed) must not be slower than the default static
        schedule."""
        shape, case_nt, snap = (1024, 1024), 12, 4
        default = estimate_rtm(
            "acoustic", shape, case_nt, snap,
            options=GPUOptions(), nreceivers=16,
        )
        tuned = estimate_rtm(
            "acoustic", shape, case_nt, snap,
            options=options_with_plan(GPUOptions(), plan), nreceivers=16,
        )
        assert tuned.success and default.success
        assert tuned.total <= default.total * 1.01

    def test_budget_respected(self, plan):
        assert plan.probes <= plan.budget

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            tune_case(request_for_case("acoustic-2d"), budget=0)
