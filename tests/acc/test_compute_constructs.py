"""Compute constructs: execution + timing + interaction with data clauses."""

from dataclasses import replace

import numpy as np
import pytest

from repro.acc import CRAY_8_2_6, PGI_14_6, LoopSchedule, Runtime
from repro.gpusim import Device, K40
from repro.propagators.base import KernelWorkload
from repro.utils.errors import PresentTableError
from repro.utils.units import MB


def wl(points=10**6):
    return KernelWorkload(
        name="k",
        points=points,
        flops_per_point=30.0,
        reads_per_point=12.0,
        writes_per_point=2.0,
        loop_dims=(1024, points // 1024 if points >= 1024 else 1),
        address_streams=6,
    )


class TestExecution:
    def test_fn_executes_real_work(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        a = np.zeros(8)

        def body():
            a[:] = 42.0

        r.kernels(wl(), fn=body)
        np.testing.assert_array_equal(a, 42.0)

    def test_kernels_charges_device_time(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        est = r.kernels(wl())
        assert est.seconds > 0
        assert r.device.clock.categories["kernel"] == pytest.approx(est.seconds)

    def test_present_check_enforced(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        with pytest.raises(PresentTableError):
            r.kernels(wl(), present=["u"])
        r.enter_data(copyin={"u": MB})
        r.kernels(wl(), present=["u"])  # now fine

    def test_compute_uses_preferred_path(self):
        """rt.compute under PGI == kernels+independent, under CRAY ==
        parallel+gwv; both must gridify (the tuned builds)."""
        for persona in (PGI_14_6, CRAY_8_2_6):
            r = Runtime(Device(K40), compiler=persona)
            est = r.compute(wl())
            assert est.seconds > 0

    def test_cray_auto_async_uses_queues(self):
        r = Runtime(Device(K40), compiler=CRAY_8_2_6)
        events = []
        r.device.add_sink(events.append)
        r.compute(wl())
        ev = events[-1]
        assert ev.queue is not None

    def test_pgi_default_synchronous(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        events = []
        r.device.add_sink(events.append)
        r.compute(wl())
        ev = events[-1]
        assert ev.queue is None

    def test_explicit_async_queue(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        events = []
        r.device.add_sink(events.append)
        r.kernels(wl(), async_=3)
        assert events[-1].queue == 3

    def test_wait_blocks_until_done(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        est = r.kernels(wl(), async_=1)
        before = r.device.elapsed
        r.wait()
        assert r.device.elapsed >= before
        assert r.device.elapsed >= est.seconds


class CountingPersona:
    """A compiler persona that records every launch config it lowers."""

    def __init__(self, persona):
        self.persona = persona
        self.lowered = []

    def lower(self, *args, **kwargs):
        config = self.persona.lower(*args, **kwargs)
        self.lowered.append(config)
        return config

    def __getattr__(self, name):
        return getattr(self.persona, name)


class TestLoweringMemo:
    def test_one_workload_on_two_queues_lowers_twice(self):
        persona = CountingPersona(PGI_14_6)
        r = Runtime(Device(K40), compiler=persona)
        events = []
        r.device.add_sink(events.append)
        for q in (1, 2, 1, 2):
            r.kernels(wl(), async_=q)  # a new, value-equal workload each time
        assert [ev.queue for ev in events] == [1, 2, 1, 2]
        one, two = persona.lowered
        assert (one.async_queue, two.async_queue) == (1, 2)
        assert replace(one, async_queue=None) == replace(two, async_queue=None)

    def test_each_runtime_lowers_for_itself(self):
        persona = CountingPersona(CRAY_8_2_6)
        device = Device(K40)
        first = Runtime(device, compiler=persona)
        for _ in range(3):
            first.compute(wl(), async_=False)
        Runtime(device, compiler=persona).compute(wl(), async_=False)
        expected = CRAY_8_2_6.lower(
            "parallel", wl(), CRAY_8_2_6.preferred_schedule(), first.flags
        )
        assert persona.lowered == [expected, expected]


class TestConstructPerformanceShape:
    def test_cray_parallel_beats_kernels(self):
        """Figures 8-9 at construct level."""
        r = Runtime(Device(K40), compiler=CRAY_8_2_6)
        k = r.kernels(wl(), schedule=LoopSchedule.auto(), async_=False)
        p = r.parallel(wl(), schedule=LoopSchedule.gwv(), async_=False)
        assert p.seconds < k.seconds

    def test_pgi_kernels_beats_bare_parallel(self):
        r = Runtime(Device(K40), compiler=PGI_14_6)
        k = r.kernels(wl(), schedule=LoopSchedule(independent=True))
        p = r.parallel(wl(), schedule=LoopSchedule.auto())
        assert k.seconds < p.seconds
