"""Lowering recorded directive events into executable operations.

The interpreter (:class:`repro.acc.runtime.Runtime` driven by
:class:`repro.core.pipeline.OffloadPipeline`) re-derives everything per
launch: present-table checks, persona lowering to a
:class:`~repro.gpusim.kernelmodel.LaunchConfig`, tracer spans, recorder
fan-out. This module is the back end of :mod:`repro.compile`: it takes
the *transformed* event template (after verified opportunities were
applied by :func:`repro.analyze.dataflow.apply_opportunity`) and turns
each :class:`~repro.analyze.program.AccEvent` into a
:class:`LoweredOp` — a closed, self-describing operation — then *binds*
the op list against a live runtime: each op calls the runtime's own
directive method, so present checks, recorders and tracers see a
compiled step exactly as they see an interpreted one, and the bitwise
verification gate replays the path every run takes. A bound step is one
step of the runtime's tape policy
(:meth:`~repro.acc.runtime.Runtime.run_step`), as the interpreter's
repeated actions are.

Fused computes carry ``"a+b"`` kernel names; :class:`WorkloadRegistry`
resolves them by fusing the named parts with
:func:`repro.optim.fuse_kernels`, and the fused launch shares one
gang/vector configuration taken from the dominant (widest) part's
:class:`~repro.optim.autotune.TuningPlan` entry when a plan is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.optim.transformations import fuse_kernels
from repro.utils.errors import CompileError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.acc.clauses import LoopSchedule
    from repro.acc.runtime import Runtime
    from repro.analyze.program import AccEvent
    from repro.optim.autotune import TuningPlan
    from repro.propagators.base import KernelWorkload

#: Event kinds the lowering understands. ``send``/``recv`` stay with the
#: interpreter (rank exchange needs live neighbour state).
LOWERABLE_KINDS = (
    "enter", "exit", "update", "compute", "wait", "host_write", "host_read",
)


@dataclass(frozen=True)
class LoweredOp:
    """One executable operation flattened out of an :class:`AccEvent`.

    Every field is resolved at lowering time — in particular ``nbytes``
    of partial updates and the per-name ``sizes`` of data regions come
    from the recording's extent table, so binding needs no program
    context. ``full`` records that an update covered the whole array
    (``nbytes is None`` in the event), which binding must preserve for
    the recorder.
    """

    kind: str
    # data regions
    copyin: tuple[str, ...] = ()
    create: tuple[str, ...] = ()
    delete: tuple[str, ...] = ()
    copyout: tuple[str, ...] = ()
    sizes: tuple[tuple[str, int], ...] = ()
    # updates / host markers
    direction: str | None = None
    var: str | None = None
    nbytes: int | None = None
    full: bool = False
    chunks: int = 1
    offset: int = 0
    names: tuple[str, ...] = ()
    # computes
    construct: str | None = None
    kernel: str | None = None
    present: tuple[str, ...] = ()
    schedule: "LoopSchedule | None" = None
    queue: int | None = None
    wait_on: tuple[int, ...] = ()
    wait_all: bool = False


def lower_events(
    events: Iterable["AccEvent"], extents: Mapping[str, int]
) -> list[LoweredOp]:
    """Flatten transformed events into :class:`LoweredOp`\\ s.

    Raises :class:`CompileError` on kinds outside
    :data:`LOWERABLE_KINDS` or on a full-extent update whose array has
    no recorded extent (nothing to resolve the byte count against).
    """
    ops: list[LoweredOp] = []
    for e in events:
        if e.kind == "enter":
            names = tuple(e.copyin) + tuple(e.create)
            ops.append(LoweredOp(
                kind="enter", copyin=tuple(e.copyin), create=tuple(e.create),
                sizes=tuple((n, int(extents.get(n, 0))) for n in names),
            ))
        elif e.kind == "exit":
            ops.append(LoweredOp(
                kind="exit", delete=tuple(e.delete), copyout=tuple(e.copyout),
            ))
        elif e.kind == "update":
            full = e.nbytes is None
            if full:
                if e.var not in extents:
                    raise CompileError(
                        f"update of '{e.var}' has no recorded extent"
                    )
                n = int(extents[e.var])
            else:
                n = int(e.nbytes)
            ops.append(LoweredOp(
                kind="update", direction=e.direction, var=e.var, nbytes=n,
                full=full, chunks=int(e.chunks or 1), queue=e.queue,
                offset=int(e.offset or 0),
            ))
        elif e.kind == "compute":
            ops.append(LoweredOp(
                kind="compute", construct=e.construct, kernel=e.kernel,
                present=tuple(e.reads), schedule=e.schedule, queue=e.queue,
                wait_on=tuple(e.wait_on), wait_all=bool(e.wait_all),
            ))
        elif e.kind == "wait":
            # a recorded wait with an empty wait_on tuple is the bare
            # directive: drain *all* queues
            ops.append(LoweredOp(
                kind="wait",
                queue=int(e.wait_on[0]) if e.wait_on else None,
            ))
        elif e.kind in ("host_write", "host_read"):
            names = tuple(e.writes if e.kind == "host_write" else e.reads)
            ops.append(LoweredOp(
                kind=e.kind, names=names, offset=int(e.offset or 0),
                nbytes=e.nbytes, full=e.nbytes is None,
            ))
        else:
            raise CompileError(
                f"event kind '{e.kind}' is not lowerable "
                f"(supported: {', '.join(LOWERABLE_KINDS)})"
            )
    return ops


class WorkloadRegistry:
    """Kernel-name → :class:`KernelWorkload` resolution for binding.

    Built from a pipeline's workload lists; resolves fused ``"a+b"``
    names on demand by fusing the named parts with
    :func:`repro.optim.fuse_kernels` (memoised, so the fused body is
    constructed once per distinct name).
    """

    def __init__(self, workloads: Iterable["KernelWorkload"]):
        self._by_name: dict[str, KernelWorkload] = {}
        for w in workloads:
            self._by_name.setdefault(w.name, w)

    @classmethod
    def from_pipeline(cls, pipeline) -> "WorkloadRegistry":
        """Collect every workload an :class:`OffloadPipeline` can launch."""
        pools = [
            getattr(pipeline, name, None)
            for name in (
                "forward_workloads", "backward_workloads",
                "backward_transpose", "receiver_workloads",
                "imaging_workloads",
            )
        ]
        flat = [w for pool in pools if pool for w in pool]
        source = getattr(pipeline, "source_workload", None)
        if source is not None:
            flat.append(source)
        return cls(flat)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_name))

    def parts(self, kernel: str) -> tuple["KernelWorkload", ...]:
        """The unfused constituents of ``kernel`` (itself, if unfused)."""
        if kernel in self._by_name:
            return (self._by_name[kernel],)
        return tuple(self._resolve_part(p) for p in kernel.split("+"))

    def resolve(self, kernel: str) -> "KernelWorkload":
        if kernel in self._by_name:
            return self._by_name[kernel]
        if "+" in kernel:
            fused = fuse_kernels(*self.parts(kernel), name=kernel)
            self._by_name[kernel] = fused
            return fused
        raise CompileError(f"unknown kernel '{kernel}' (not in registry)")

    def _resolve_part(self, name: str) -> "KernelWorkload":
        try:
            return self._by_name[name]
        except KeyError:
            raise CompileError(
                f"fused kernel part '{name}' is not in the registry"
            ) from None


@dataclass(eq=False)
class BoundStep:
    """A callable sequence of bound directive calls for one pipeline
    phase. Each call is one step of the runtime's tape policy
    (:meth:`~repro.acc.runtime.Runtime.run_step`), keyed by the step."""

    phase: str
    ops: tuple[LoweredOp, ...]
    rt: "Runtime" = field(repr=False)
    _thunks: list[Callable[[], None]] = field(repr=False, default_factory=list)

    def _run(self) -> None:
        for thunk in self._thunks:
            thunk()

    def __call__(self) -> None:
        self.rt.run_step((self,), self._run)

    @property
    def launches(self) -> int:
        """Kernel launches per execution of this step."""
        return sum(1 for op in self.ops if op.kind == "compute")


def _plan_override(op: LoweredOp, registry: WorkloadRegistry, plan):
    """Resolve (workload, construct, schedule) for a compute op, letting
    an active :class:`TuningPlan` override the launch choice. For fused
    kernels the *dominant* (widest) part's plan entry decides — the
    fused launch shares one gang/vector configuration."""
    workload = registry.resolve(op.kernel)
    construct, schedule = op.construct, op.schedule
    if plan is not None:
        parts = registry.parts(op.kernel)
        dominant = max(parts, key=lambda w: w.points)
        entry = plan.entry_for(dominant.name)
        if entry is not None:
            construct = entry.construct
            schedule = entry.loop_schedule()
    return workload, construct, schedule


def _bind(
    op: LoweredOp, rt: "Runtime", registry: WorkloadRegistry, plan
) -> Callable[[], None]:
    if op.kind == "enter":
        sizes = dict(op.sizes)
        copyin = {n: sizes[n] for n in op.copyin}
        create = {n: sizes[n] for n in op.create}
        return lambda: rt.enter_data(copyin=copyin, create=create)
    if op.kind == "exit":
        return lambda: rt.exit_data(delete=op.delete, copyout=op.copyout)
    if op.kind == "update":
        nbytes = None if op.full else op.nbytes
        method = rt.update_host if op.direction == "host" else rt.update_device
        return lambda: method(
            op.var, nbytes=nbytes, chunks=op.chunks, queue=op.queue,
            offset=op.offset,
        )
    if op.kind == "compute":
        workload, construct, schedule = _plan_override(op, registry, plan)
        launch = rt.parallel if construct == "parallel" else rt.kernels
        # async_=False pins queue None; an int queue passes through.
        # Never None: that would re-enter auto-async rotation and
        # diverge from the recorded schedule.
        async_ = False if op.queue is None else op.queue
        return lambda: launch(
            workload, present=op.present, schedule=schedule, async_=async_,
            wait_on=op.wait_on, wait_all=op.wait_all,
        )
    if op.kind == "wait":
        return lambda: rt.wait(op.queue)
    if op.kind == "host_write":
        return lambda: rt.note_host_write(
            *op.names, offset=op.offset,
            nbytes=None if op.full else op.nbytes,
        )
    if op.kind == "host_read":
        return lambda: rt.note_host_read(
            *op.names, offset=op.offset,
            nbytes=None if op.full else op.nbytes,
        )
    raise CompileError(f"cannot bind op kind '{op.kind}'")


def bind_ops(
    phase: str,
    ops: Iterable[LoweredOp],
    rt: "Runtime",
    registry: WorkloadRegistry,
    plan: "TuningPlan | None" = None,
) -> BoundStep:
    """Bind lowered ops against a live runtime into a :class:`BoundStep`
    that calls the runtime's directive method for each op."""
    ops = tuple(ops)
    return BoundStep(
        phase, ops, rt, [_bind(op, rt, registry, plan) for op in ops]
    )


__all__ = [
    "LOWERABLE_KINDS",
    "LoweredOp",
    "WorkloadRegistry",
    "BoundStep",
    "lower_events",
    "bind_ops",
]
