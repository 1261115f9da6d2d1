from dataclasses import FrozenInstanceError, replace

import pytest

from repro.acc import PGI_14_6, CompileFlags, Runtime
from repro.core import GPUOptions, OffloadPipeline
from repro.core.pipeline import run_pipeline_rtm
from repro.gpusim import Device, K40, M2090, LaunchConfig, Profiler
from repro.gpusim.kernelmodel import estimate_kernel_time
from repro.gpusim.pcie import PCIE_GEN3_X16
from repro.gpusim.specs import CUDA_5_0, CUDA_5_5
from repro.propagators.base import KernelWorkload
from repro.resilience import FaultInjector, FaultPlan, parse_faults
from repro.utils.errors import (
    DeviceError,
    DeviceOutOfMemoryError,
    KernelLaunchError,
)
from repro.utils.units import GiB, MB


def wl(points=10**6, streams=6):
    return KernelWorkload(
        name="k",
        points=points,
        flops_per_point=30.0,
        reads_per_point=12.0,
        writes_per_point=2.0,
        loop_dims=(points,),
        address_streams=streams,
    )


class TestMemoryOps:
    def test_allocate_charges_time(self):
        d = Device(K40)
        d.allocate("a", 100 * MB)
        assert d.elapsed > 0
        assert d.memory.holds("a")

    def test_oom_propagates(self):
        d = Device(M2090)
        with pytest.raises(DeviceOutOfMemoryError):
            d.allocate("big", 7 * GiB)

    def test_release(self):
        d = Device(K40)
        d.allocate("a", MB)
        d.release("a")
        assert not d.memory.holds("a")


class TestTransfers:
    def test_h2d_time_accounted(self):
        d = Device(K40, pcie=PCIE_GEN3_X16, pinned_host=True)
        t = d.h2d(110 * MB)
        assert t == pytest.approx(110 * MB / PCIE_GEN3_X16.pinned_bandwidth, rel=0.1)
        assert d.clock.categories["h2d"] == pytest.approx(t)

    def test_pinned_vs_pageable(self):
        slow = Device(K40, pinned_host=False).h2d(100 * MB)
        fast = Device(K40, pinned_host=True).h2d(100 * MB)
        assert fast < slow

    def test_profiler_records_transfers(self):
        d = Device(K40)
        d.h2d(MB, name="copyin:u")
        d.d2h(MB, name="copyout:u")
        rep = d.profiler.report()
        assert rep.memcpy_h2d_bytes == MB
        assert rep.memcpy_d2h_bytes == MB


class TestKernelLaunch:
    def test_launch_advances_clock(self):
        d = Device(K40)
        est = d.launch(wl())
        assert d.elapsed >= est.seconds
        assert d.profiler.launches == 1

    def test_sync_launch_includes_host_admin(self):
        """The present-table lookup cost scales with kernel arguments."""
        few = Device(K40)
        few.launch(wl(points=1, streams=2))
        many = Device(K40)
        many.launch(wl(points=1, streams=14))
        assert many.elapsed > few.elapsed

    def test_async_launch_defers(self):
        d = Device(K40)
        est = d.launch(wl(), LaunchConfig(async_queue=1))
        assert d.elapsed < est.seconds  # host not blocked
        d.wait()
        assert d.elapsed >= est.seconds

    def test_expensive_async_enqueue(self):
        """PGI's async path: a large enqueue factor makes queued launches
        cost more host time than the kernels they hide."""
        tiny = wl(points=64)
        cheap = Device(K40)
        costly = Device(K40)
        for _ in range(50):
            cheap.launch(tiny, LaunchConfig(async_queue=1), enqueue_cost_factor=1.0)
            costly.launch(tiny, LaunchConfig(async_queue=1), enqueue_cost_factor=8.0)
        cheap.wait()
        costly.wait()
        assert costly.elapsed > cheap.elapsed

    def test_profile_kernel_names(self):
        d = Device(K40)
        d.launch(wl())
        rep = d.profiler.report()
        assert rep.kernels[0].name == "k"


def rtm_times(device):
    """A short estimate-mode acoustic RTM (PGI: one launch per receiver)
    on ``device``, through a fresh runtime."""
    options = GPUOptions(compiler=PGI_14_6, flags=CompileFlags(maxregcount=64))
    rt = Runtime(device, compiler=PGI_14_6, flags=options.flags)
    p = OffloadPipeline(rt, "acoustic", (64, 64), nreceivers=8, options=options)
    return run_pipeline_rtm(p, nt=6, snap_period=3)


class TestLaunchPricingMemo:
    def test_workload_is_frozen(self):
        w = wl()
        with pytest.raises(FrozenInstanceError):
            w.points = 7

    def test_value_equal_launches_price_as_on_fresh_devices(self):
        d = Device(K40)
        for cfg in (None, LaunchConfig(async_queue=1)) * 2:
            # a new, value-equal workload object every launch
            assert d.launch(wl(), cfg) == Device(K40).launch(wl(), cfg)

    def test_warm_device_gives_bitwise_equal_gpu_times(self):
        cold = rtm_times(Device(K40))
        warm_device = Device(K40)
        rtm_times(warm_device)
        warm_device.reset()
        assert rtm_times(warm_device) == cold
        assert cold.launches > 0

    def test_toolkit_change_reprices(self):
        branchy = replace(wl(), has_branches=True)
        d = Device(K40, toolkit=CUDA_5_0)
        old = d.launch(branchy)
        d.toolkit = CUDA_5_5
        new = d.launch(branchy)
        assert new.seconds != old.seconds
        assert old == estimate_kernel_time(K40, branchy, None, CUDA_5_0)
        assert new == estimate_kernel_time(K40, branchy, None, CUDA_5_5)

    def test_fault_fires_on_warm_memo(self):
        d = Device(K40)
        events = []
        d.add_sink(events.append)
        for _ in range(3):
            d.launch(wl())  # the memo is warm before the injector arms
        FaultInjector(FaultPlan(specs=parse_faults("kernel-launch@3"))).attach_device(d)
        d.launch(wl())
        d.launch(wl())
        before = (d.elapsed, d.profiler.launches, len(events))
        with pytest.raises(KernelLaunchError):
            d.launch(wl())
        # the fault fires before anything is charged
        assert (d.elapsed, d.profiler.launches, len(events)) == before
        d.launch(wl())
        assert d.profiler.launches == 6


class TestReset:
    def test_reset_clears_everything(self):
        d = Device(K40)
        d.allocate("a", MB)
        d.launch(wl())
        d.reset()
        assert d.elapsed == 0.0
        assert d.profiler.launches == 0
        assert not d.memory.holds("a")
        assert d.profiler.report() == Profiler().report()
