import pytest

from repro.gpusim import K40, Device, Profiler, StreamPool
from repro.gpusim.streams import ASYNC_ENQUEUE_COST as ENQUEUE
from repro.gpusim.streams import H2D, KERNEL, WAIT, PricedOp
from repro.utils.errors import ConfigurationError
from repro.utils.timer import SimClock


def kernel(seconds, host=0.0, queue=None):
    return PricedOp(KERNEL, "k", seconds, host, queue)


def copy(seconds, host=0.0, queue=None):
    return PricedOp(H2D, "c", seconds, host, queue)


def folded(ops) -> Device:
    """A fresh device that ran ``ops`` as one deferred replay, folded."""
    device = Device(K40)
    with device.deferral():
        device.defer(ops, device.fold_plan(ops))
    return device


class TestStreamPool:
    def test_sync_kernel_blocks_host(self):
        clock = SimClock()
        pool = StreamPool(clock)
        start, end = pool.run_ops((kernel(1e-3, 1e-5),))
        assert clock.now == pytest.approx(end)
        assert end - start == pytest.approx(1e-3)
        device = folded((kernel(1e-3, 1e-5),))
        assert device.clock.now == device.streams.compute_free == end

    def test_sync_kernels_serialize(self):
        clock = SimClock()
        pool = StreamPool(clock)
        pool.run_ops((kernel(1e-3, 1e-5),))
        start2, end2 = pool.run_ops((kernel(1e-3, 1e-5),))
        assert start2 >= 1e-3
        device = folded((kernel(1e-3, 1e-5),) * 2)
        assert device.clock.now == end2
        assert device.profiler.kernels["k"][0] == 2

    def test_async_kernel_frees_host(self):
        clock = SimClock()
        pool = StreamPool(clock)
        _, end = pool.run_ops((kernel(1e-3, ENQUEUE, 1),))
        assert clock.now < end  # host moved only by the enqueue cost

    def test_async_kernels_pack_without_gaps(self):
        """The Figure 11 mechanism: queued kernels run back-to-back on the
        compute engine while sync launches insert host gaps."""
        overhead, dur, n = 5e-5, 1e-4, 10
        clock_s = SimClock()
        pool_s = StreamPool(clock_s)
        pool_s.run_ops([kernel(dur, overhead)] * n)
        clock_a = SimClock()
        pool_a = StreamPool(clock_a)
        pool_a.run_ops([kernel(dur, ENQUEUE, 1 + i % 3) for i in range(n)])
        pool_a.run_ops((PricedOp(WAIT),))
        assert clock_a.now < clock_s.now
        assert clock_s.now == pytest.approx(n * (dur + overhead))
        assert folded([kernel(dur, overhead)] * n).clock.now == clock_s.now

    def test_kernels_do_not_overlap_on_compute(self):
        """No SM sharing: two async kernels on different queues still
        serialize their bodies."""
        clock = SimClock()
        pool = StreamPool(clock)
        _, end1 = pool.run_ops((kernel(1e-3, ENQUEUE, 1),))
        start2, _ = pool.run_ops((kernel(1e-3, ENQUEUE, 2),))
        assert start2 >= end1

    def test_copy_engine_independent_of_compute(self):
        clock = SimClock()
        pool = StreamPool(clock)
        _, kend = pool.run_ops((kernel(1e-3, ENQUEUE, 1),))
        cstart, _ = pool.run_ops((copy(1e-4, ENQUEUE, 2),))
        assert cstart < kend  # copy overlaps the kernel

    def test_same_queue_ordering(self):
        clock = SimClock()
        pool = StreamPool(clock)
        _, end1 = pool.run_ops((copy(1e-4, ENQUEUE, 1),))
        start2, _ = pool.run_ops((copy(1e-4, ENQUEUE, 1),))
        assert start2 >= end1

    def test_wait_specific_queue(self):
        clock = SimClock()
        pool = StreamPool(clock)
        _, end1 = pool.run_ops((kernel(1e-3, ENQUEUE, 1),))
        pool.run_ops((PricedOp(WAIT, queue=1),))
        assert clock.now == pytest.approx(end1)

    def test_wait_all(self):
        clock = SimClock()
        pool = StreamPool(clock)
        pool.run_ops((kernel(1e-3, ENQUEUE, 1), copy(5e-3, ENQUEUE, 2)))
        pool.run_ops((PricedOp(WAIT),))
        assert pool.idle()

    def test_invalid_queue(self):
        pool = StreamPool(SimClock(), max_queues=4)
        with pytest.raises(ConfigurationError):
            pool.run_ops((kernel(1e-3, ENQUEUE, 9),))

    def test_failing_op_keeps_the_ops_before_it(self):
        device = Device(K40)
        pool = device.streams
        bad_queue = pool.max_queues
        ops = [
            PricedOp(KERNEL, "a", 1e-3, 1e-5),
            PricedOp(KERNEL, "b", 1e-3, 0.0, bad_queue),
        ]
        with pytest.raises(ConfigurationError):
            pool.run_ops(ops, device)
        assert device.clock.now == pool.compute_free == 1e-5 + 1e-3
        assert device.clock.categories["kernel"] == 1e-3
        assert device.profiler.kernels == {"a": [1, 1e-3]}


class TestProfiler:
    def _fill(self, prof):
        prof.fold("kernel", "main", 0.0, 3.0, 0)
        prof.fold("kernel", "main", 3.0, 6.0, 0)
        prof.fold("kernel", "inject", 6.0, 7.0, 0)
        prof.fold("h2d", "copyin", 7.0, 8.0, 1000)
        prof.fold("d2h", "copyout", 8.0, 8.5, 500)

    def test_shares(self):
        prof = Profiler()
        self._fill(prof)
        rep = prof.report()
        assert rep.kernel_share("main") == pytest.approx(6 / 7)
        assert rep.kernel_share("inject") == pytest.approx(1 / 7)

    def test_kernels_sorted_by_time(self):
        prof = Profiler()
        self._fill(prof)
        rep = prof.report()
        assert rep.kernels[0].name == "main"
        assert rep.kernels[0].count == 2

    def test_memcpy_accounting(self):
        prof = Profiler()
        self._fill(prof)
        rep = prof.report()
        assert rep.memcpy_h2d_bytes == 1000
        assert rep.memcpy_d2h_bytes == 500
        assert rep.memcpy_h2d_seconds == pytest.approx(1.0)

    def test_span(self):
        prof = Profiler()
        self._fill(prof)
        assert prof.report().span_seconds == pytest.approx(8.5)

    def test_to_text_contains_shares(self):
        prof = Profiler()
        self._fill(prof)
        text = prof.report().to_text()
        assert "main" in text
        assert "%" in text

    def test_empty_report(self):
        rep = Profiler().report()
        assert rep.kernels == []
        assert rep.span_seconds == 0.0

    def test_clear(self):
        prof = Profiler()
        self._fill(prof)
        prof.clear()
        assert prof.report().compute_seconds == 0.0
