"""Lowering: events -> LoweredOps -> steps bound to runtime directives."""

import pytest

from repro.acc.runtime import Runtime
from repro.analyze.program import AccEvent
from repro.analyze.recorder import ProgramRecorder
from repro.compile.lower import (
    LoweredOp,
    WorkloadRegistry,
    bind_ops,
    lower_events,
)
from repro.core.modeling import _build_runtime
from repro.core.config import GPUOptions
from repro.core.platform import CRAY_K40
from repro.propagators.workloads import workloads_for
from repro.utils.errors import CompileError, PresentTableError

EXTENTS = {"u": 4096, "v": 2048}


def fresh_rt() -> Runtime:
    return _build_runtime(GPUOptions(), CRAY_K40)


def workloads():
    return workloads_for("acoustic", (64, 64), 8)


class TestLowerEvents:
    def test_enter_resolves_sizes(self):
        (op,) = lower_events(
            [AccEvent(kind="enter", copyin=("u",), create=("v",))], EXTENTS
        )
        assert op.kind == "enter"
        assert dict(op.sizes) == {"u": 4096, "v": 2048}

    def test_full_update_resolves_extent(self):
        (op,) = lower_events(
            [AccEvent(kind="update", direction="host", var="u")], EXTENTS
        )
        assert op.nbytes == 4096 and op.full

    def test_partial_update_keeps_bytes(self):
        (op,) = lower_events(
            [AccEvent(kind="update", direction="device", var="u",
                      nbytes=128, offset=64, chunks=2)],
            EXTENTS,
        )
        assert (op.nbytes, op.offset, op.chunks, op.full) == (128, 64, 2, False)

    def test_full_update_without_extent_refused(self):
        with pytest.raises(CompileError, match="no recorded extent"):
            lower_events(
                [AccEvent(kind="update", direction="host", var="w")], EXTENTS
            )

    def test_bare_wait_means_all_queues(self):
        (op,) = lower_events([AccEvent(kind="wait", wait_on=())], EXTENTS)
        assert op.queue is None
        (op,) = lower_events([AccEvent(kind="wait", wait_on=(3,))], EXTENTS)
        assert op.queue == 3

    def test_send_recv_not_lowerable(self):
        with pytest.raises(CompileError, match="not lowerable"):
            lower_events([AccEvent(kind="send", var="u", peer=1)], EXTENTS)


class TestWorkloadRegistry:
    def test_resolves_plain_and_fused_names(self):
        pool = workloads()
        reg = WorkloadRegistry(pool)
        name = f"{pool[0].name}+{pool[0].name}"
        fused = reg.resolve(name)
        assert fused.name == name
        assert fused.address_streams == 2 * pool[0].address_streams
        # memoised
        assert reg.resolve(name) is fused

    def test_unknown_kernel_refused(self):
        reg = WorkloadRegistry(workloads())
        with pytest.raises(CompileError, match="unknown kernel"):
            reg.resolve("nope")
        with pytest.raises(CompileError, match="not in the registry"):
            reg.resolve("nope+nada")


class TestBinding:
    def events(self, kernel):
        return [
            AccEvent(kind="enter", copyin=("u",)),
            AccEvent(kind="compute", construct="kernels", kernel=kernel,
                     reads=("u",)),
            AccEvent(kind="update", direction="host", var="u"),
            AccEvent(kind="wait"),
            AccEvent(kind="exit", delete=("u",)),
        ]

    def test_faithful_mode_records_the_same_schedule(self):
        pool = workloads()
        ops = lower_events(self.events(pool[0].name), {"u": 4096})
        rt = fresh_rt()
        rec = ProgramRecorder(name="bound")
        rt.attach_recorder(rec)
        step = bind_ops("test", ops, rt, WorkloadRegistry(pool))
        step()
        assert [e.kind for e in rec.program.events] == [
            "enter", "compute", "update", "wait", "exit",
        ]
        assert rec.program.events[1].queue is None  # async_=False, not None

    @pytest.mark.parametrize("index", [1, 2], ids=["compute", "update"])
    def test_absent_array_is_refused(self, index):
        pool = workloads()
        ops = lower_events([self.events(pool[0].name)[index]], {"u": 4096})
        rt = fresh_rt()
        step = bind_ops("test", ops, rt, WorkloadRegistry(pool))
        with pytest.raises(PresentTableError, match="'u' is not present"):
            step()
        # a tape kept while 'u' was present is not replayed once it left
        rt.enter_data(copyin={"u": 4096})
        step()
        step()
        rt.exit_data(delete=("u",))
        with pytest.raises(PresentTableError, match="'u' is not present"):
            step()

    def test_recorder_attached_after_binding_sees_the_step(self):
        pool = workloads()
        ops = lower_events(self.events(pool[0].name)[1:3], {"u": 4096})
        rt = fresh_rt()
        rt.enter_data(copyin={"u": 4096})
        step = bind_ops("test", ops, rt, WorkloadRegistry(pool))
        step()  # taped while nothing watches
        rec = ProgramRecorder(name="late")
        rt.attach_recorder(rec)
        step()
        assert [e.kind for e in rec.program.events] == ["compute", "update"]

    def test_launch_count_property(self):
        pool = workloads()
        ops = lower_events(self.events(pool[0].name), {"u": 4096})
        step = bind_ops("test", ops, fresh_rt(), WorkloadRegistry(pool))
        assert step.launches == 1
