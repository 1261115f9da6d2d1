"""The OpenACC runtime: present table + data directives + compute constructs.

Host NumPy arrays remain the single source of truth for *values*; a present-
table entry is the bookkeeping for the array's virtual device mirror. Every
directive charges the modelled device time (allocation, PCIe, kernel) on the
bound :class:`~repro.gpusim.device.Device`, and a compute construct runs the
real NumPy callable it wraps, so results are bit-identical with the pure
host path.

Present-table semantics follow OpenACC 2.0:

* structured ``data`` regions and dynamic ``enter data`` both *attach* data,
  incrementing a reference count; transfers happen only on the 0 -> 1
  transition (``copyin``) and 1 -> 0 transition (``copyout``);
* ``present`` clauses on kernels verify liveness and raise
  :class:`~repro.utils.errors.PresentTableError` otherwise;
* ``exit data delete`` / region exit decrement and free at zero;
* ``update device``/``update host`` move bytes for *present* data without
  lifetime changes, with optional partial (ghost-node) extents and
  non-contiguous chunk counts.

A repeated schedule step need not re-derive every directive.
:meth:`Runtime.run_step` is the one tape policy, for interpreted actions
and compiled steps alike: while nothing watches the directives, the first
call per key keeps the priced device ops the step ran as a
:class:`StepTape` (:meth:`Runtime.record`) and later calls run them again
(:meth:`Runtime.replay`). A kernel whose queue came from the auto-async
rotation is taped relative to the rotation cursor, and every attach or
detach drops the tapes, so a tape is only replayed against the present
table it was priced under. A fault injector on the device gates the
replay: it counts the tape's launches and transfers in one step, or
refuses when an armed fault could fire on one of them, and the step then
runs per-op.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.acc.clauses import CompileFlags, LoopSchedule
from repro.acc.compiler import CompilerPersona, PGI_14_6
from repro.gpusim.device import Device
from repro.gpusim.kernelmodel import (
    KernelEstimate,
    LaunchConfig,
    estimate_register_demand,
)
from repro.gpusim.streams import D2H, H2D, KERNEL, PricedOp
from repro.propagators.base import KernelWorkload
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.utils.errors import PresentTableError


@dataclass
class PresentEntry:
    """One present-table row (a host array's device mirror)."""

    name: str
    nbytes: int
    refcount: int = 1
    #: whether the final detach should copy back to the host
    copyout_on_exit: bool = False


class StepTape:
    """The priced device ops of one recorded step.

    ``rotated`` lists, in rotation order, the ops whose queue came from
    the auto-async rotation; they replay on the queues the rotation would
    hand out from the cursor at replay time (:meth:`at`). ``launches``
    and ``transfers`` count the ops a fault injector sees. A tape holds
    no allocation (an attach drops the runtime's tapes, and one recorded
    across it is not kept) and no MPI message (not a device op), so
    those are all its injector ops.
    """

    __slots__ = ("ops", "rotated", "launches", "transfers", "_at")

    def __init__(self, ops: Sequence[PricedOp], rotated: Sequence[int]):
        self.ops = tuple(ops)
        self.rotated = tuple(rotated)
        kinds = [op.kind for op in self.ops]
        self.launches = kinds.count(KERNEL)
        self.transfers = kinds.count(H2D) + kinds.count(D2H)
        self._at: dict[int, tuple[PricedOp, ...]] = {}

    def at(self, cursor: int, period: int) -> tuple[PricedOp, ...]:
        """The ops with rotated queues counted on from ``cursor`` through
        a rotation of ``period`` queues (1..period), memoised per cursor."""
        ops = self._at.get(cursor)
        if ops is None:
            concrete = list(self.ops)
            for k, i in enumerate(self.rotated):
                concrete[i] = concrete[i]._replace(queue=(cursor - 1 + k) % period + 1)
            ops = self._at[cursor] = tuple(concrete)
        return ops


class Runtime:
    """OpenACC runtime bound to one device and one compiler persona.

    Parameters
    ----------
    device:
        The simulated accelerator.
    compiler:
        Persona that lowers compute constructs (defaults to PGI 14.6, the
        paper's newest). Sets the device's CUDA toolkit unless the device
        was explicitly configured.
    flags:
        Compile-line options (``maxregcount``, ``pin``, auto-async).
    tracer:
        Optional :class:`~repro.trace.tracer.Tracer`. When given, the
        runtime emits spans for data regions, updates and compute
        constructs, attaches the tracer to the device (kernel/copy events
        re-emitted on per-queue tracks) and — unless the tracer was built
        with an explicit clock — rebinds its clock to the device's
        simulated clock so all spans share the modelled timeline.
    """

    def __init__(
        self,
        device: Device,
        compiler: CompilerPersona = PGI_14_6,
        flags: CompileFlags | None = None,
        tracer: Tracer | None = None,
    ):
        self.device = device
        self.compiler = compiler
        self.flags = flags if flags is not None else CompileFlags()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            tracer.bind_default_clock(lambda: device.clock.now)
            device.attach_tracer(tracer)
        device.toolkit = compiler.default_toolkit
        device.pinned_host = self.flags.pin
        self._table: dict[str, PresentEntry] = {}
        auto = self.flags.auto_async
        self._auto_async = compiler.auto_async_kernels if auto is None else auto
        self._next_queue = 1
        # while a StepTape records: its op list so far and the indices of
        # the ops whose queue came from the rotation (else None)
        self._taping: tuple[list[PricedOp], list[int]] | None = None
        # the kept step tapes (see run_step); every present-table attach
        # and detach replaces the dict, dropping them
        self._tapes: dict[tuple, StepTape] = {}
        self._recorders: list = []
        # the persona and flags are fixed for this runtime, so lowering is a
        # pure function of (construct, workload, schedule, queue)
        self._launches: dict[tuple, LaunchConfig] = {}

    # ------------------------------------------------------------------
    # recording hook (repro.analyze)
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`~repro.analyze.recorder.ProgramRecorder`: every
        directive this runtime executes is re-emitted as an IR event, so a
        live run produces a lintable DirectiveProgram."""
        recorder.bind_runtime(self)
        self._recorders.append(recorder)

    def _record(self, kind: str, sizes=None, **fields) -> None:
        for rec in self._recorders:
            rec.record(kind, sizes=sizes, **fields)

    # ------------------------------------------------------------------
    # step tapes
    # ------------------------------------------------------------------
    def run_step(self, key: tuple, run: Callable[..., None], *args) -> bool:
        """Run one repeated step, ``run(*args)``, under the tape policy;
        returns whether a tape replayed it.

        While anything watches the directives (a recorder or an enabled
        tracer) the step runs per-op. Otherwise the first call per key
        records a tape, kept only if the present table did not change
        while it recorded, and later calls replay it; a replay the fault
        injector refuses runs per-op instead. ``key`` is flat and starts
        with the step's owner, hashed by identity, so no owner picks up
        another's tape; the device's toolkit, host pinning and PCIe link
        complete it here. The device's event sinks see every replayed
        op."""
        if self._recorders or self.tracer.enabled:
            run(*args)
            return False
        device = self.device
        key += (device.toolkit, device.pinned_host, device.pcie)
        tapes = self._tapes
        tape = tapes.get(key)
        if tape is None:
            tape = self.record(lambda: run(*args))
            if self._tapes is tapes:  # the present table held while it recorded
                tapes[key] = tape
        elif self.replay(tape):
            return True
        else:
            run(*args)
        return False

    def record(self, run: Callable[[], None]) -> StepTape:
        """Call ``run`` through the per-op path and return the priced ops
        it ran as a tape."""
        rotated: list[int] = []
        with self.device.recording() as ops:
            self._taping = (ops, rotated)
            try:
                run()
            finally:
                self._taping = None
        return StepTape(ops, rotated)

    def replay(self, tape: StepTape) -> bool:
        """Run a tape's ops again, advancing the auto-async rotation by as
        many queues as the recorded run took. Returns False, running
        nothing, when the device's fault injector refuses to count the
        tape's ops in one step (an armed fault could fire on one): the
        caller then runs the step per-op."""
        injector = self.device.injector
        if injector is not None and not injector.count_clear(
            tape.launches, tape.transfers
        ):
            return False
        ops = tape.ops
        if tape.rotated:
            period = self.device.spec.max_concurrent_kernels - 1
            cursor = self._next_queue
            ops = tape.at(cursor, period)
            self._next_queue = (cursor - 1 + len(tape.rotated)) % period + 1
        self.device.run_ops(ops)
        return True

    # ------------------------------------------------------------------
    # injection hook (repro.resilience)
    # ------------------------------------------------------------------
    def attach_injector(self, injector, rank: int | None = None) -> None:
        """Install a :class:`~repro.resilience.injector.FaultInjector` on
        this runtime's device. Every directive that allocates, transfers or
        launches consults it before charging simulated time, so a retried
        directive re-enters cleanly; a replayed tape consults it once
        (:meth:`replay`). ``rank`` tags the device's operations for
        rank-scoped fault specs."""
        injector.attach_device(self.device, rank=rank)

    def note_host_write(
        self,
        *names: str,
        offset: int = 0,
        nbytes: int | None = None,
    ) -> None:
        """Mark the *host* copies of ``names`` as changed outside directives
        (snapshot restore, host-side physics, a ghost-slab landing from an
        MPI receive). A no-op for execution; the analyzer uses it to tell
        legitimate full refreshes from redundant re-transfers, and the
        sanitizer to track which byte range went stale on the device.
        ``offset``/``nbytes`` restrict the marker to a byte range (default:
        the whole array)."""
        if self._recorders and names:
            self._record(
                "host_write", writes=tuple(names),
                offset=int(offset), nbytes=nbytes,
            )

    def note_host_read(
        self,
        *names: str,
        offset: int = 0,
        nbytes: int | None = None,
    ) -> None:
        """Mark the *host* copies of ``names`` as consumed outside
        directives (an MPI send packing a halo face, host-side I/O). A
        no-op for execution; the sanitizer checks the range against its
        device-dirty shadow intervals."""
        if self._recorders and names:
            self._record(
                "host_read", reads=tuple(names),
                offset=int(offset), nbytes=nbytes,
            )

    # ------------------------------------------------------------------
    # present-table helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _nbytes(data: np.ndarray | int) -> int:
        return int(data.nbytes if isinstance(data, np.ndarray) else data)

    def is_present(self, name: str) -> bool:
        return name in self._table

    def present_entry(self, name: str) -> PresentEntry:
        entry = self._table.get(name)
        if entry is None:
            raise PresentTableError(self._absent_message(name))
        return entry

    def _absent_message(self, name: str) -> str:
        """Diagnostic for a present-table miss: what *is* present, plus the
        nearest present name when the miss looks like a typo."""
        import difflib

        msg = f"'{name}' is not present on the device (missing data clause?)"
        if not self._table:
            return msg + "; present table is empty"
        present = sorted(self._table)
        msg += "; currently present: " + ", ".join(present)
        close = difflib.get_close_matches(name, present, n=1, cutoff=0.6)
        if close:
            msg += f" — did you mean '{close[0]}'?"
        return msg

    def present_bytes(self) -> int:
        """Bytes currently attached through the present table."""
        return sum(e.nbytes for e in self._table.values())

    def present_names(self) -> tuple[str, ...]:
        """Names currently attached, in attach order — what a residency
        teardown (:meth:`~repro.core.pipeline.OffloadPipeline.drop_residency`)
        must ``exit data delete``."""
        return tuple(self._table)

    def _attach(
        self, name: str, data: np.ndarray | int, transfer: bool, copyout: bool
    ) -> None:
        self._tapes = {}
        entry = self._table.get(name)
        if entry is not None:
            entry.refcount += 1
            entry.copyout_on_exit = entry.copyout_on_exit or copyout
            return
        nbytes = self._nbytes(data)
        self.device.allocate(name, nbytes)
        if transfer:
            try:
                self.device.h2d(nbytes, name=f"copyin:{name}")
            except Exception:
                # failed copyin must not leak the allocation: the name never
                # became present, so nothing else will ever release it
                self.device.release(name)
                raise
        self._table[name] = PresentEntry(name, nbytes, 1, copyout)

    def _detach(self, name: str, force_copyout: bool | None = None) -> None:
        self._tapes = {}
        entry = self.present_entry(name)
        entry.refcount -= 1
        if entry.refcount > 0:
            return
        copyout = entry.copyout_on_exit if force_copyout is None else force_copyout
        if copyout:
            self.device.d2h(entry.nbytes, name=f"copyout:{name}")
        self.device.release(name)
        del self._table[name]

    # ------------------------------------------------------------------
    # data directives
    # ------------------------------------------------------------------
    def enter_data(
        self,
        copyin: Mapping[str, np.ndarray | int] | None = None,
        create: Mapping[str, np.ndarray | int] | None = None,
    ) -> None:
        """``acc enter data copyin(...) create(...)`` — dynamic attach."""
        with self.tracer.span(
            "acc.enter_data", track="acc", cat="acc",
            copyin=sorted(copyin or ()), create=sorted(create or ()),
        ):
            for name, data in (copyin or {}).items():
                self._attach(name, data, transfer=True, copyout=False)
            for name, data in (create or {}).items():
                self._attach(name, data, transfer=False, copyout=False)
            if self._recorders:
                sizes = {
                    name: self._nbytes(data)
                    for src in (copyin, create) if src
                    for name, data in src.items()
                }
                self._record(
                    "enter",
                    sizes=sizes,
                    copyin=tuple(copyin or ()),
                    create=tuple(create or ()),
                )

    def exit_data(
        self,
        delete: Iterable[str] = (),
        copyout: Iterable[str] = (),
    ) -> None:
        """``acc exit data delete(...) copyout(...)`` — dynamic detach."""
        delete = tuple(delete)
        copyout = tuple(copyout)
        with self.tracer.span(
            "acc.exit_data", track="acc", cat="acc",
            delete=sorted(delete), copyout=sorted(copyout),
        ):
            self._record("exit", delete=delete, copyout=copyout)
            for name in copyout:
                self._detach(name, force_copyout=True)
            for name in delete:
                self._detach(name, force_copyout=False)

    @contextmanager
    def data(
        self,
        copyin: Mapping[str, np.ndarray | int] | None = None,
        copyout: Mapping[str, np.ndarray | int] | None = None,
        copy: Mapping[str, np.ndarray | int] | None = None,
        create: Mapping[str, np.ndarray | int] | None = None,
        present: Iterable[str] = (),
    ) -> Iterator["Runtime"]:
        """Structured ``acc data`` region."""
        for name in present:
            self.present_entry(name)
        attached: list[str] = []
        with self.tracer.span(
            "acc.data", track="acc", cat="acc",
            copyin=sorted(copyin or ()), copyout=sorted(copyout or ()),
            copy=sorted(copy or ()), create=sorted(create or ()),
        ):
            try:
                for name, d in (copyin or {}).items():
                    self._attach(name, d, transfer=True, copyout=False)
                    attached.append(name)
                for name, d in (copy or {}).items():
                    self._attach(name, d, transfer=True, copyout=True)
                    attached.append(name)
                for name, d in (copyout or {}).items():
                    self._attach(name, d, transfer=False, copyout=True)
                    attached.append(name)
                for name, d in (create or {}).items():
                    self._attach(name, d, transfer=False, copyout=False)
                    attached.append(name)
                if self._recorders:
                    sizes = {
                        name: self._nbytes(d)
                        for src in (copyin, copy, copyout, create) if src
                        for name, d in src.items()
                    }
                    self._record(
                        "enter",
                        sizes=sizes,
                        structured=True,
                        copyin=tuple(copyin or ()) + tuple(copy or ()),
                        create=tuple(copyout or ()) + tuple(create or ()),
                    )
                yield self
            finally:
                self._record(
                    "exit",
                    structured=True,
                    copyout=tuple(copy or ()) + tuple(copyout or ()),
                    delete=tuple(copyin or ()) + tuple(create or ()),
                )
                for name in reversed(attached):
                    self._detach(name)

    def _update_extent(self, name: str, nbytes, offset: int, what: str) -> int:
        """Validate a (possibly partial) update against the present entry;
        returns the byte count actually moved."""
        entry = self.present_entry(name)
        n = entry.nbytes if nbytes is None else int(nbytes)
        offset = int(offset)
        if offset < 0:
            raise PresentTableError(
                f"{what} of '{name}' with negative offset {offset}"
            )
        if offset + n > entry.nbytes:
            raise PresentTableError(
                f"{what} of bytes [{offset}, {offset + n}) exceeds "
                f"'{name}' extent {entry.nbytes}"
            )
        return n

    def update_device(
        self,
        name: str,
        nbytes: int | None = None,
        chunks: int = 1,
        queue: int | None = None,
        offset: int = 0,
    ) -> float:
        """``acc update device(...)`` — host-to-device refresh of present
        data. ``nbytes`` restricts to a partial (e.g. ghost-node) extent
        starting ``offset`` bytes in; ``chunks`` models non-contiguous
        strided sections."""
        n = self._update_extent(name, nbytes, offset, "update device")
        with self.tracer.span(
            "acc.update_device", track="acc", cat="acc",
            var=name, bytes=n, chunks=chunks, queue=queue,
        ):
            self._record(
                "update", direction="device", var=name,
                nbytes=None if nbytes is None else n, chunks=chunks,
                queue=queue, offset=int(offset),
            )
            return self.device.h2d(
                n, name=f"update_device:{name}", chunks=chunks, queue=queue
            )

    def update_host(
        self,
        name: str,
        nbytes: int | None = None,
        chunks: int = 1,
        queue: int | None = None,
        offset: int = 0,
    ) -> float:
        """``acc update host(...)`` — device-to-host refresh."""
        n = self._update_extent(name, nbytes, offset, "update host")
        with self.tracer.span(
            "acc.update_host", track="acc", cat="acc",
            var=name, bytes=n, chunks=chunks, queue=queue,
        ):
            self._record(
                "update", direction="host", var=name,
                nbytes=None if nbytes is None else n, chunks=chunks,
                queue=queue, offset=int(offset),
            )
            return self.device.d2h(
                n, name=f"update_host:{name}", chunks=chunks, queue=queue
            )

    # ------------------------------------------------------------------
    # compute constructs
    # ------------------------------------------------------------------
    def _queue_for(self, async_: int | bool | None) -> int | None:
        """The queue of a launch: the default stream, an explicit queue, or
        the next queue of the auto-async rotation (queues 1..n-1)."""
        if async_ is None:
            async_ = bool(self._auto_async)
        if async_ is False:
            return None
        if async_ is not True:
            return int(async_)
        q = self._next_queue
        self._next_queue = q % (self.device.spec.max_concurrent_kernels - 1) + 1
        if self._taping is not None:
            # the launch this queue is for is the next op to be taped
            ops, rotated = self._taping
            rotated.append(len(ops))
        return q

    def _run_construct(
        self,
        construct: str,
        workload: KernelWorkload,
        present: Iterable[str],
        schedule: LoopSchedule | None,
        async_: int | bool | None,
        fn: Callable[[], None] | None,
        wait_on: Sequence[int] = (),
        wait_all: bool = False,
    ) -> KernelEstimate:
        present = tuple(present)
        for name in present:
            self.present_entry(name)
        if wait_all:
            # a bare 'wait' clause joins *all* queues (OpenACC semantics),
            # not none of them
            self.device.wait(None)
        for q in wait_on:
            # the OpenACC wait *clause*: the construct does not start until
            # the listed queues drain (modelled as a host-side wait)
            self.device.wait(int(q))
        queue = self._queue_for(async_)
        key = (construct, workload, schedule, queue)
        launch = self._launches.get(key)
        if launch is None:
            launch = self.compiler.lower(
                construct, workload, schedule, self.flags, async_queue=queue
            )
            self._launches[key] = launch
        with self.tracer.span(
            f"acc.{construct}", track="acc", cat="acc",
            kernel=workload.name, queue=queue,
        ):
            if self._recorders:
                self._record(
                    "compute",
                    construct=construct,
                    kernel=workload.name,
                    queue=queue,
                    reads=present,
                    writes_known=False,
                    schedule=schedule,
                    loop_dims=tuple(workload.loop_dims),
                    inner_contiguous=workload.inner_contiguous,
                    loop_carried=workload.loop_carried,
                    regs_demand=estimate_register_demand(workload),
                    wait_on=tuple(int(q) for q in wait_on),
                    wait_all=wait_all,
                )
            if fn is not None:
                fn()  # the real NumPy computation (host arrays are truth)
            return self.device.launch(
                workload,
                launch,
                enqueue_cost_factor=self.compiler.async_enqueue_factor,
            )

    def kernels(
        self,
        workload: KernelWorkload,
        present: Iterable[str] = (),
        schedule: LoopSchedule | None = None,
        async_: int | bool | None = None,
        fn: Callable[[], None] | None = None,
        wait_on: Sequence[int] = (),
        wait_all: bool = False,
    ) -> KernelEstimate:
        """``acc kernels`` construct around one loop nest. ``wait_on``
        models the ``wait(...)`` clause: queues drained before launch;
        ``wait_all`` is the bare ``wait`` clause (drain every queue)."""
        return self._run_construct(
            "kernels", workload, present, schedule, async_, fn, wait_on,
            wait_all,
        )

    def parallel(
        self,
        workload: KernelWorkload,
        present: Iterable[str] = (),
        schedule: LoopSchedule | None = None,
        async_: int | bool | None = None,
        fn: Callable[[], None] | None = None,
        wait_on: Sequence[int] = (),
        wait_all: bool = False,
    ) -> KernelEstimate:
        """``acc parallel`` construct."""
        return self._run_construct(
            "parallel", workload, present, schedule, async_, fn, wait_on,
            wait_all,
        )

    def compute(
        self,
        workload: KernelWorkload,
        present: Iterable[str] = (),
        async_: int | bool | None = None,
        fn: Callable[[], None] | None = None,
        wait_on: Sequence[int] = (),
        wait_all: bool = False,
    ) -> KernelEstimate:
        """Launch with this compiler's preferred construct and schedule —
        what the paper's tuned code paths use."""
        return self._run_construct(
            self.compiler.preferred_construct(),
            workload,
            present,
            self.compiler.preferred_schedule(),
            async_,
            fn,
            wait_on,
            wait_all,
        )

    def wait(self, queue: int | None = None) -> float:
        """``acc wait`` directive."""
        with self.tracer.span("acc.wait", track="acc", cat="acc", queue=queue):
            self._record(
                "wait", wait_on=() if queue is None else (int(queue),)
            )
            return self.device.wait(queue)

    def cache(self, *names: str) -> None:
        """The ``acc cache`` directive: request shared-memory staging of the
        named arrays. Present-checked, then faithfully ignored — the paper:
        "How to explicitly use shared memory for specific variables is
        still a bottleneck. The tile and cache features are not working
        properly in both CRAY and PGI."""
        import warnings

        from repro.acc.clauses import IneffectiveDirectiveWarning

        for name in names:
            self.present_entry(name)
        warnings.warn(
            "the cache directive is accepted but has no effect under the "
            "modelled 2014 compilers",
            IneffectiveDirectiveWarning,
            stacklevel=2,
        )

    # ------------------------------------------------------------------
    def shutdown_check(self) -> None:
        """Raise if data is still attached (leak detector for tests)."""
        if self._table:
            leaked = ", ".join(sorted(self._table))
            raise PresentTableError(f"present table not empty at shutdown: {leaked}")
