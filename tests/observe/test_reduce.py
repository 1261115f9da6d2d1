"""Reduction engine: synthetic span sets, a golden 2-rank trace, and the
device profiler as the oracle of the per-kernel fold."""

import json
import os

import pytest

from repro.bench.workloads import modeling_case
from repro.cases import parse_case
from repro.core.config import GPUOptions
from repro.core.modeling import estimate_modeling
from repro.core.rtm import estimate_rtm
from repro.observe.reduce import (
    interval_measure,
    intersect_intervals,
    merge_intervals,
    rank_of_event,
    reduce_trace,
)
from repro.trace.tracer import SPAN, TraceEvent, Tracer
from repro.utils.fold import left_sum, nearest_rank


def span(name, cat, start, end, process="gpu:sim", track="queue:0", **args):
    return TraceEvent(name, cat, process, track, start, end, SPAN, args)


class TestIntervalAlgebra:
    def test_merge_unions_overlaps(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(2, 2), (3, 1)]) == []

    def test_measure(self):
        assert interval_measure([(0, 2), (5, 6)]) == pytest.approx(3.0)

    def test_intersect(self):
        a = [(0.0, 4.0), (6.0, 8.0)]
        b = [(2.0, 7.0)]
        assert intersect_intervals(a, b) == [(2.0, 4.0), (6.0, 7.0)]


class TestRankOfEvent:
    def test_prefixed_process(self):
        assert rank_of_event(span("k", "kernel", 0, 1,
                                  process="rank3:gpu:sim")) == 3

    def test_halo_track(self):
        assert rank_of_event(span("halo.recv", "halo", 0, 1,
                                  process="mpi", track="rank:2")) == 2

    def test_unranked(self):
        assert rank_of_event(span("k", "kernel", 0, 1)) is None


class TestOverlapFractions:
    def test_fully_overlapped(self):
        # comm entirely under a compute span: 100% hidden
        events = [
            span("k", "kernel", 0.0, 10.0),
            span("halo.recv", "halo", 2.0, 4.0, process="mpi", track="rank:0"),
        ]
        red = reduce_trace(events)
        rank = red.ranks[0]
        assert rank.comm_overlap_fraction == pytest.approx(1.0)
        assert red.comm_overlap_fraction == pytest.approx(1.0)

    def test_disjoint(self):
        events = [
            span("k", "kernel", 0.0, 5.0),
            span("up", "h2d", 5.0, 8.0),
        ]
        red = reduce_trace(events)
        rank = red.ranks[0]
        assert rank.transfer_overlap_fraction == pytest.approx(0.0)
        assert rank.compute_s == pytest.approx(5.0)
        assert rank.transfer_s == pytest.approx(3.0)
        assert red.makespan_s == pytest.approx(8.0)

    def test_partial_overlap(self):
        # transfer [4, 10], compute [0, 7]: 3 of 6 transfer seconds hidden
        events = [
            span("k", "kernel", 0.0, 7.0),
            span("up", "h2d", 4.0, 10.0),
        ]
        red = reduce_trace(events)
        rank = red.ranks[0]
        assert rank.transfer_overlap_s == pytest.approx(3.0)
        assert rank.transfer_overlap_fraction == pytest.approx(0.5)

    def test_union_not_double_counted(self):
        # two overlapping kernels count their union, not their sum
        events = [
            span("a", "kernel", 0.0, 4.0),
            span("b", "kernel", 2.0, 6.0, track="queue:1"),
        ]
        red = reduce_trace(events)
        assert red.ranks[0].compute_s == pytest.approx(6.0)

    def test_ranks_kept_separate(self):
        events = [
            span("k", "kernel", 0.0, 4.0, process="rank0:gpu:sim"),
            span("k", "kernel", 0.0, 8.0, process="rank1:gpu:sim"),
            span("halo.recv", "halo", 1.0, 2.0, process="mpi", track="rank:1"),
        ]
        red = reduce_trace(events)
        assert red.nranks == 2
        assert red.ranks[0].comm_s == 0.0
        assert red.ranks[1].comm_s == pytest.approx(1.0)
        assert red.ranks[1].comm_overlap_fraction == pytest.approx(1.0)
        # aggregate compute is the slowest rank's (lockstep semantics)
        assert red.compute_s == pytest.approx(8.0)


class TestQueuesAndKernels:
    def test_multi_queue_utilization(self):
        events = [
            span("a", "kernel", 0.0, 5.0, track="queue:1"),
            span("b", "kernel", 0.0, 10.0, track="queue:2"),
            span("up", "h2d", 5.0, 10.0, track="queue:1"),
        ]
        red = reduce_trace(events)
        util = {(q.process, q.track): q.utilization for q in red.queues}
        assert util[("gpu:sim", "queue:1")] == pytest.approx(1.0)
        assert util[("gpu:sim", "queue:2")] == pytest.approx(1.0)
        busy = {(q.process, q.track): q.busy_s for q in red.queues}
        assert busy[("gpu:sim", "queue:1")] == pytest.approx(10.0)

    def test_kernel_aggregates(self):
        events = [span("stencil", "kernel", float(i), float(i) + 1.0)
                  for i in range(10)]
        events.append(span("stencil", "kernel", 20.0, 25.0))
        red = reduce_trace(events)
        agg = red.kernels["stencil"]
        assert agg.count == 11
        assert agg.total_s == pytest.approx(15.0)
        assert agg.max_s == pytest.approx(5.0)
        assert agg.p95_s == pytest.approx(5.0)
        assert agg.mean_s == pytest.approx(15.0 / 11)

    def test_kernel_p95_is_nearest_rank(self):
        # 20 spans of 1..20 s: the p95 is the 19th (ceil(0.95 * 20)), not
        # the maximum
        events = [span("stencil", "kernel", 100.0 * d, 100.0 * d + d)
                  for d in range(1, 21)]
        assert reduce_trace(events).kernels["stencil"].p95_s == 19.0

    @pytest.mark.parametrize("n,q,rank", [
        (20, 0.95, 19), (2, 0.5, 1), (11, 0.95, 11), (3, 0.5, 2), (5, 0.0, 1),
    ])
    def test_nearest_rank(self, n, q, rank):
        assert nearest_rank([float(i) for i in range(1, n + 1)], q) == rank
        assert nearest_rank([], q) == 0.0

    def test_phase_spans_excluded_from_work(self):
        # the umbrella phase span must not dominate the critical chain
        events = [
            span("run", "phase", 0.0, 100.0, process="host", track="run"),
            span("k", "kernel", 0.0, 3.0),
        ]
        red = reduce_trace(events)
        assert red.makespan_s == pytest.approx(3.0)
        assert red.critical_path.chain_s == pytest.approx(3.0)


class TestKernelFold:
    def test_total_adds_in_event_order(self):
        # 1.0 + 1e-16 + 1e-16 is 1.0 left to right, one ULP more sorted
        events = [
            span("k", "kernel", 0.0, 1.0),
            span("k", "kernel", 0.0, 1e-16),
            span("k", "kernel", 0.0, 1e-16),
        ]
        agg = reduce_trace(events).kernels["k"]
        assert agg.total_s == 1.0
        assert agg.mean_s == 1.0 / 3
        assert left_sum(sorted(e.duration for e in events)) != 1.0

    def test_occupancy_is_a_running_duration_weighted_mean(self):
        spans = [(0.0, 0.3, 0.25), (0.3, 0.4, 0.5), (0.4, 0.4, 0.75), (1.0, 2.7, 0.3)]
        events = [
            span("k", "kernel", a, b, occupancy=occ, spilled_regs=i)
            for i, (a, b, occ) in enumerate(spans)
        ]
        mean, weight = 0.0, 0.0
        for a, b, occ in spans:
            w = max(b - a, 1e-12)  # a zero-length launch still counts
            prev = mean * weight
            weight += w
            mean = (prev + occ * w) / weight
        agg = reduce_trace(events).kernels["k"]
        assert agg.occupancy == mean
        assert agg.spilled_regs == 3

    def test_unannotated_default_stream_kernel(self):
        events = [span("k", "kernel", 0.0, 1.0, track="stream:0")] * 2
        agg = reduce_trace(events).kernels["k"]
        assert (agg.occupancy, agg.spilled_regs) == (None, None)
        assert agg.queues == {None: 2}
        assert agg.preferred_queue() is None


class TestProfilerOracle:
    """The trace reduction and the device profiler are the two folds of a
    traced run's kernels; on one card they agree bit for bit."""

    @pytest.mark.parametrize("async_kernels", [False, True], ids=["sync", "async"])
    @pytest.mark.parametrize("mode", ["modeling", "rtm"])
    @pytest.mark.parametrize(
        "case", ["iso2d", "iso3d", "ac2d", "ac3d", "el2d", "el3d"]
    )
    def test_kernel_totals_equal_the_profiler(self, case, mode, async_kernels):
        physics, ndim = parse_case(case)
        spec = modeling_case(physics, ndim)
        tracer = Tracer()
        kwargs = dict(
            options=GPUOptions(async_kernels=async_kernels),
            nreceivers=min(16, spec.nreceivers),
            pml_variant=spec.pml_variant,
            tracer=tracer,
        )
        if mode == "modeling":
            times = estimate_modeling(
                physics, spec.shape, 6, 3, snapshot_decimate=4, **kwargs
            )
        else:
            times = estimate_rtm(physics, spec.shape, 6, 3, **kwargs)
        assert times.success
        kernels = reduce_trace(tracer).kernels
        assert sorted(kernels) == sorted(k.name for k in times.profile.kernels)
        for line in times.profile.kernels:
            agg = kernels[line.name]
            assert (agg.count, agg.total_s) == (line.count, line.total_seconds)
        spans = [e for e in tracer.events if e.kind == SPAN and e.cat == "kernel"]
        assert times.launches == len(spans)


class TestCriticalPath:
    def test_chain_picks_heaviest_sequence(self):
        # chain a(0-4) -> c(5-11) = 10 beats b(0-9) = 9
        events = [
            span("a", "kernel", 0.0, 4.0),
            span("b", "kernel", 0.0, 9.0, track="queue:1"),
            span("c", "kernel", 5.0, 11.0, track="queue:2"),
        ]
        red = reduce_trace(events)
        assert red.critical_path.chain_s == pytest.approx(10.0)

    def test_composition_priority_and_idle(self):
        # compute [0,4], comm [2,6] (2s exclusive), idle [6,8] before [8,9]
        events = [
            span("k", "kernel", 0.0, 4.0),
            span("halo.recv", "halo", 2.0, 6.0, process="mpi", track="rank:0"),
            span("up", "h2d", 8.0, 9.0),
        ]
        red = reduce_trace(events)
        comp = red.critical_path.composition
        assert comp["compute"] == pytest.approx(4.0)
        assert comp["comm"] == pytest.approx(2.0)
        assert comp["transfer"] == pytest.approx(1.0)
        assert comp["idle"] == pytest.approx(2.0)
        total = sum(comp.values())
        assert total == pytest.approx(red.makespan_s)

    def test_empty_trace(self):
        red = reduce_trace([])
        assert red.makespan_s == 0.0
        assert red.summary_metrics()["kernel_launches"] == 0


class TestGoldenTwoRank:
    def test_recorded_2rank_trace_matches_golden(self):
        from repro.trace.cli import trace_case

        path = os.path.join(os.path.dirname(__file__), "golden",
                            "iso2d_rtm_2rank.json")
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
        tracer, _ = trace_case("iso2d", mode="rtm", nt=8, ranks=2)
        doc = reduce_trace(tracer).to_json()
        for key, want in golden["summary"].items():
            assert doc["summary"][key] == pytest.approx(want, rel=1e-9), key
        assert len(doc["ranks"]) == len(golden["ranks"])
        for got, want in zip(doc["ranks"], golden["ranks"]):
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-9), key
        cp = golden["critical_path"]
        assert doc["critical_path"]["chain_s"] == pytest.approx(
            cp["chain_s"], rel=1e-9
        )
        for cls, value in cp["composition"].items():
            assert doc["critical_path"]["composition"][cls] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            ), cls
