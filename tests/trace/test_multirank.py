"""Multi-rank trace CLI: per-rank tracers merged into one timeline."""

import json

from repro.trace.cli import MultiGpuTraceResult, trace_case
from repro.trace.export import write_perfetto
from repro.trace.tracer import Tracer


class TestAbsorb:
    def test_prefixes_processes_and_counts(self):
        a, b = Tracer(clock=lambda: 0.0), Tracer(clock=lambda: 0.0)
        with b.span("step", process="gpu", track="q0"):
            pass
        b.instant("mark", process="host")
        n = a.absorb(b, process_prefix="rank1:")
        assert n == 2
        assert {e.process for e in a.events} == {"rank1:gpu", "rank1:host"}

    def test_no_prefix_copies_verbatim(self):
        a, b = Tracer(clock=lambda: 0.0), Tracer(clock=lambda: 0.0)
        b.instant("mark", process="mpi")
        a.absorb(b)
        assert a.events[0].process == "mpi"

    def test_metrics_merge_under_prefix(self):
        a, b = Tracer(clock=lambda: 0.0), Tracer(clock=lambda: 0.0)
        a.metrics.counter("halo.bytes").add(10)
        b.metrics.counter("halo.bytes").add(32)
        b.metrics.gauge("queue.depth").set(4)
        b.metrics.gauge("queue.depth").set(2)
        b.metrics.histogram("gpu.kernel_seconds").observe(1.0)
        b.metrics.histogram("gpu.kernel_seconds").observe(3.0)
        a.absorb(b, process_prefix="rank1:")
        assert a.metrics.counter("halo.bytes").value == 10
        assert a.metrics.counter("rank1:halo.bytes").value == 32
        gauge = a.metrics.gauge("rank1:queue.depth")
        assert gauge.value == 2 and gauge.max == 4
        hist = a.metrics.histogram("rank1:gpu.kernel_seconds")
        assert hist.count == 2 and hist.total == 4.0
        assert hist.min == 1.0 and hist.max == 3.0

    def test_metrics_merge_without_prefix_adds_counters(self):
        a, b = Tracer(clock=lambda: 0.0), Tracer(clock=lambda: 0.0)
        a.metrics.counter("halo.messages").add(2)
        b.metrics.counter("halo.messages").add(3)
        a.absorb(b)
        assert a.metrics.counter("halo.messages").value == 5

    def test_merged_summary_surfaces_rank_metrics(self):
        from repro.trace.export import summary_text

        merged, rank = Tracer(clock=lambda: 0.0), Tracer(clock=lambda: 0.0)
        rank.metrics.counter("gpu.kernel_launches").add(7)
        merged.absorb(rank, process_prefix="rank0:")
        assert "rank0:gpu.kernel_launches" in summary_text(merged)


class TestTraceRanks:
    def test_two_rank_modeling_merges_rank_timelines(self, tmp_path):
        tracer, result = trace_case("ac2d", mode="modeling", nt=8, ranks=2)
        assert isinstance(result, MultiGpuTraceResult)
        assert len(result.rank_times) == 2
        assert result.gpu is None

        processes = {e.process for e in tracer.events}
        assert any(p.startswith("rank0:") for p in processes)
        assert any(p.startswith("rank1:") for p in processes)
        # halo-exchange spans stay on the unprefixed shared timeline
        assert any(e.cat == "halo" for e in tracer.events)

        umbrella = tracer.find("trace.modeling")
        assert len(umbrella) == 1 and umbrella[0].args["ranks"] == 2

        out = tmp_path / "trace.json"
        doc = write_perfetto(tracer, str(out))
        assert json.loads(out.read_text())["traceEvents"]
        assert doc["traceEvents"]

    def test_two_rank_trace_is_deterministic_on_the_simulated_clock(self):
        from repro.trace.export import to_jsonl

        runs = [
            to_jsonl(trace_case("el2d", mode="rtm", nt=8, ranks=2)[0])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        lines = [json.loads(line) for line in runs[0].splitlines()]
        events = [e for e in lines if "process" in e]  # not the metrics
        rank_end = max(
            e["start_s"] + e["dur_s"]
            for e in events if e["process"].startswith("rank")
        )
        mpi = [e for e in events if e["process"] == "mpi"]
        assert any(e["name"].startswith("isend:") for e in mpi)
        for e in mpi:
            assert 0.0 <= e["start_s"] <= e["start_s"] + e["dur_s"] <= rank_end
