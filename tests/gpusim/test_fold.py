"""The bulk fold of deferred replays leaves exactly what ``run_ops`` leaves.

Inside a device's deferral scope a replayed tape waits as pending ops, and
``StreamPool.fold`` runs everything pending in bulk: a stretch of
default-stream kernels and copies that starts with both engines idle is
folded by prefix sums, everything else goes through ``run_ops``. A second
device that runs every op through ``run_ops`` at once is the reference. On
drawn tapes (queued ops, waits, zero-second ops, engines busy when a run
starts, new and already-seen kernel names), replayed through
``Runtime.replay`` between allocations, releases, waits, recordings, reads
of the clock and replays a fault injector refuses, the clock, the engines,
the queues, the ledger (values and key order), the profiler's kernel
lines (order, counts, totals), its copy totals and its first and last
times must match bit for bit.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.acc.runtime import Runtime, StepTape
from repro.gpusim import K40, Device
from repro.gpusim.streams import D2H, H2D, KERNEL, WAIT, PricedOp
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector

NAMES = ("a", "b", "c", None)

#: modelled seconds: zero, and sizes over six decades, whose sums (and the
#: sums of the durations they give on the clock) round differently when
#: added in another order
seconds = st.one_of(
    st.just(0.0),
    st.sampled_from((1e-3, 3e-6, 0.1, 7.25e-5)),
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0 ** exponent,
        st.floats(1.0, 10.0), st.integers(-7, -2),
    ),
)


@st.composite
def priced_ops(draw, max_size=14):
    ops = []
    for _ in range(draw(st.integers(1, max_size))):
        kind = draw(st.sampled_from((KERNEL, KERNEL, KERNEL, H2D, D2H, WAIT)))
        queue = draw(st.one_of(st.none(), st.none(), st.none(), st.integers(1, 3)))
        if kind == WAIT:
            ops.append(PricedOp(WAIT, queue=queue))
            continue
        name = draw(st.sampled_from(NAMES)) if kind == KERNEL else f"{kind}:f"
        ops.append(PricedOp(
            kind, name, draw(seconds), draw(seconds), queue,
            0 if kind == KERNEL else draw(st.integers(0, 1 << 20)),
        ))
    return tuple(ops)


@st.composite
def tapes(draw):
    """Tape ops and the indices of their queued kernels that take their
    queue from the auto-async rotation."""
    ops = draw(priced_ops())
    queued = [i for i, op in enumerate(ops) if op.kind == KERNEL and op.queue]
    return ops, sorted(draw(st.sets(st.sampled_from(queued)))) if queued else []


actions = st.one_of(
    st.tuples(st.just("replay"), st.integers(0, 3)),
    st.tuples(st.just("replay"), st.integers(0, 3)),
    st.tuples(st.just("replay"), st.integers(0, 3)),
    st.tuples(st.just("ops"), priced_ops(max_size=3)),
    st.tuples(st.just("allocate"), st.integers(1, 1 << 20)),
    st.tuples(st.just("release")),
    st.tuples(st.just("wait"), st.one_of(st.none(), st.integers(1, 3))),
    st.tuples(st.just("record"), priced_ops(max_size=3), st.integers(0, 3)),
    st.tuples(st.just("elapsed")),
)

#: one kernel over three decades of seconds, then a copy, replayed several
#: times: its clock category and its profiler line both come out other bits
#: when added in any other order than left to right (``math.fsum``, NumPy's
#: pairwise ``np.add.reduce``)
_LONG = tuple(
    PricedOp(KERNEL, "a", 1.37 ** i * 10.0 ** -(3 + i % 3), 3e-6 * (i % 4))
    for i in range(12)
) + (PricedOp(D2H, "d2h:f", 7.3e-5, 0.0, None, 4096),)


class Twin:
    """A device and runtime, with a fault injector, driven by the script."""

    def __init__(self, fault: int, sinks: bool):
        self.device = Device(K40)
        self.rt = Runtime(self.device)
        self.rt.attach_injector(FaultInjector(FaultPlan(
            seed=7, specs=(FaultSpec("kernel-launch", op_index=fault),),
        )))
        self.events = []
        if sinks:
            self.device.add_sink(self.events.append)
        self.allocated = []
        self.recorded = []
        self.elapsed = []

    def replay(self, tape):
        if not self.rt.replay(tape):
            # refused: the step runs per-op
            for op in tape.ops:
                self.device.run_ops((op,))

    def do(self, action, tapes):
        device, kind = self.device, action[0]
        if kind == "replay":
            self.replay(tapes[action[1] % len(tapes)])
        elif kind == "ops":
            device.run_ops(action[1])
        elif kind == "allocate":
            name = f"buf{len(self.allocated)}:{action[1]}"
            device.allocate(name, action[1])
            self.allocated.append(name)
        elif kind == "release":
            if self.allocated:
                device.release(self.allocated.pop())
        elif kind == "wait":
            device.wait(action[1])
        elif kind == "record":
            with device.recording() as ops:
                device.run_ops(action[1])
                self.replay(tapes[action[2] % len(tapes)])
            self.recorded.append(tuple(ops))
        else:
            self.elapsed.append(device.elapsed.hex())


def _bits(value):
    """Floats by their bits (-0.0 is not 0.0), containers element-wise."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _state(twin):
    device = twin.device
    streams, clock, profiler = device.streams, device.clock, device.profiler
    return _bits([
        clock.now, streams.compute_free, streams.copy_free,
        list(streams._queue_end.items()),
        list(clock.categories.items()),
        [(name, *line) for name, line in profiler.kernels.items()],
        profiler.h2d_seconds, profiler.h2d_bytes,
        profiler.d2h_seconds, profiler.d2h_bytes,
        profiler.first_start, profiler.last_end,
        device.memory.used, twin.rt._next_queue,
        twin.elapsed, twin.recorded, twin.events,
    ])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(tapes(), min_size=1, max_size=4),
    st.lists(actions, min_size=1, max_size=30),
    st.integers(1, 60),
    st.booleans(),
)
@example(
    tape_specs=[(_LONG, [])],
    script=[("replay", 0)] * 4 + [("wait", None)] + [("replay", 0)] * 3,
    fault=10_000,
    sinks=False,
)
def test_fold_equals_run_ops(tape_specs, script, fault, sinks):
    folded, reference = Twin(fault, sinks), Twin(fault, sinks)
    # each twin replays its own tapes, as each runtime keeps its own
    folded_tapes = [StepTape(ops, rotated) for ops, rotated in tape_specs]
    reference_tapes = [StepTape(ops, rotated) for ops, rotated in tape_specs]
    with folded.device.deferral():
        for action in script:
            folded.do(action, folded_tapes)
            reference.do(action, reference_tapes)
    assert folded.device._pending is None and not reference.device.defers
    assert _state(folded) == _state(reference)


def test_scope_folds_on_a_raised_fault():
    """A fault raised inside the scope still leaves every replay run."""
    folded, reference = Twin(10_000, False), Twin(10_000, False)
    tape_f, tape_r = StepTape(_LONG, ()), StepTape(_LONG, ())
    with pytest.raises(RuntimeError), folded.device.deferral():
        folded.replay(tape_f)
        folded.replay(tape_f)
        assert len(folded.device._pending) == 2
        raise RuntimeError("mid-run fault")
    reference.replay(tape_r)
    reference.replay(tape_r)
    assert _state(folded) == _state(reference)


def test_nested_scope_is_part_of_the_outer_one():
    device = Device(K40)
    plan = device.fold_plan(_LONG)
    with device.deferral():
        device.defer(_LONG, plan)
        with device.deferral():
            device.defer(_LONG, plan)
        assert len(device._pending) == 2
    assert device._pending is None and device.profiler.launches == 24
