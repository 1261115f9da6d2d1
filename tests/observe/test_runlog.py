"""Run-scoped structured logging: ambient scope, counters, caps."""

from repro.observe import runlog
from repro.observe.runlog import MAX_EVENTS, RunLog, current_runlog


class TestAmbientScope:
    def test_noop_outside_scope(self):
        assert current_runlog() is None
        runlog.emit("phase", phase="forward")  # must not raise
        runlog.count("pipeline.forward_steps")

    def test_activate_installs_and_restores(self):
        log = RunLog(command="trace", case="iso2d", mode="rtm", ranks=2)
        with log.activate():
            assert current_runlog() is log
            runlog.emit("phase", phase="forward")
            runlog.count("steps", 3)
        assert current_runlog() is None
        assert log.events == [{"kind": "phase", "phase": "forward"}]
        assert log.counters == {"steps": 3.0}

    def test_nested_scopes_restore_outer(self):
        outer, inner = RunLog(command="a"), RunLog(command="b")
        with outer.activate():
            with inner.activate():
                runlog.count("x")
            runlog.count("y")
        assert inner.counters == {"x": 1.0}
        assert outer.counters == {"y": 1.0}


class TestAccumulation:
    def test_event_cap_counts_overflow(self):
        log = RunLog(command="trace")
        for _ in range(MAX_EVENTS + 25):
            log.log("tick")
        assert len(log.events) == MAX_EVENTS
        assert log.dropped_events == 25
        assert log.to_json()["dropped_events"] == 25

    def test_identity_and_json(self):
        log = RunLog(command="scale", case="ac3d", mode="rtm", ranks=4, nt=16)
        assert log.identity() == {
            "command": "scale", "case": "ac3d", "mode": "rtm", "ranks": 4,
        }
        doc = log.to_json()
        assert doc["context"] == {"nt": 16}
        assert doc["events"] == []


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
        log = RunLog(command="trace", case="ac2d", mode="modeling")
        with log.activate():
            run_modeling(cfg, gpu_options=GPUOptions())
        phases = [e["phase"] for e in log.events if e["kind"] == "phase"]
        assert phases[0] == "forward"
        assert phases[-1] == "idle"
        assert log.counters["pipeline.forward_steps"] == 4.0

    def test_multigpu_exchanges_counted(self):
        from repro.core import GPUOptions
        from repro.core.multigpu import MultiGpuPipeline

        log = RunLog(command="scale", case="ac2d", ranks=2)
        with log.activate():
            mgp = MultiGpuPipeline("acoustic", (96, 96), 2,
                                   options=GPUOptions(), boundary_width=8)
            mgp.run(4, 2)
        assert log.counters["multigpu.exchanges"] == 4.0
        ops = [e for e in log.events if e["kind"] == "run"]
        assert ops and ops[0]["op"] == "modeling" and ops[0]["ranks"] == 2
