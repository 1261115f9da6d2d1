"""Run-scoped structured logging: ambient scope, counters, caps."""

from repro.observe import runlog
from repro.observe.ledger import MAX_EVENTS, RunLedger, observed_run


class TestAmbientScope:
    def test_noop_outside_scope(self):
        assert runlog.ambient.get() is None
        runlog.emit("phase", phase="forward")  # must not raise
        runlog.count("pipeline.forward_steps")

    def test_activate_installs_and_restores(self):
        with observed_run(None, "trace", "iso2d", "rtm", 2) as log:
            assert runlog.ambient.get() is log
            runlog.emit("phase", phase="forward")
            runlog.count("steps", 3)
        assert runlog.ambient.get() is None
        assert log.group == ("trace", "iso2d", "rtm", 2)
        assert log.events == [{"kind": "phase", "phase": "forward"}]
        assert log.counters == {"steps": 3.0}

    def test_nested_scopes_restore_outer(self):
        with observed_run(None, "a") as outer:
            with observed_run(None, "b") as inner:
                runlog.count("x")
            runlog.count("y")
        assert inner.counters == {"x": 1.0}
        assert outer.counters == {"y": 1.0}


class TestAccumulation:
    def test_event_cap_counts_overflow(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with observed_run(path, "trace"):
            for i in range(MAX_EVENTS + 25):
                runlog.emit("tick", i=i)
        (rec,) = RunLedger(path).records()
        assert [e["i"] for e in rec.events] == list(range(MAX_EVENTS))
        assert rec.counters == {"ledger.dropped_events": 25.0}


class TestPipelineThreading:
    def test_pipeline_phases_land_in_runlog(self):
        from repro.core import GPUOptions, ModelingConfig
        from repro.core.modeling import run_modeling
        from repro.model import layered_model

        model = layered_model((48, 48), spacing=10.0, interfaces=[240.0],
                              velocities=[1500.0, 2600.0])
        cfg = ModelingConfig(physics="acoustic", model=model, nt=4,
                             peak_freq=12.0, space_order=8,
                             boundary_width=8, snap_period=2)
        with observed_run(None, "trace", "ac2d", "modeling") as log:
            run_modeling(cfg, gpu_options=GPUOptions())
        phases = [e["phase"] for e in log.events if e["kind"] == "phase"]
        assert phases[0] == "forward"
        assert phases[-1] == "idle"
        assert log.counters["pipeline.forward_steps"] == 4.0

    def test_multigpu_exchanges_counted(self):
        from repro.core import GPUOptions
        from repro.core.multigpu import MultiGpuPipeline

        with observed_run(None, "scale", "ac2d", ranks=2) as log:
            mgp = MultiGpuPipeline("acoustic", (96, 96), 2,
                                   options=GPUOptions(), boundary_width=8)
            mgp.run(4, 2)
        assert log.counters["multigpu.exchanges"] == 4.0
        ops = [e for e in log.events if e["kind"] == "run"]
        assert ops and ops[0]["op"] == "modeling" and ops[0]["ranks"] == 2
