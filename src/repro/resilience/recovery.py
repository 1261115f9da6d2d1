"""The recovery layer: guarded pipelines that survive injected faults.

Three mechanisms, applied in escalation order (the degradation ladder):

1. **Retry with capped exponential backoff** — transient faults
   (:class:`~repro.utils.errors.PCIeTransferError`,
   :class:`~repro.utils.errors.KernelLaunchError`, a failed halo exchange).
   Backoff delays are deterministic — seeded jitter, charged to the
   *simulated* clock, never wall time.
2. **Restart from the last periodic checkpoint** — when retries exhaust, or
   immediately on an uncorrectable ECC event (device data is corrupt, so
   re-running the op would read garbage). This is the *executed* form of
   :mod:`repro.core.checkpointing`: :class:`CheckpointStore` saves real
   wavefield + C-PML + image state on the
   :func:`~repro.core.checkpointing.plan_checkpoints` schedule and restores
   it bit-for-bit, so the replay reproduces the fault-free run exactly.
3. **Graceful degradation** — permanent capacity loss. A mid-run device OOM
   re-plans residency via :func:`~repro.core.offload_plan.plan_offload`
   (the Figure-4 swap / smaller resident set) and rebuilds the card's data;
   a dead rank re-decomposes the domain onto the surviving cards.

:class:`ResilientPipeline` wraps the single-card executed drivers
(:func:`~repro.core.modeling.run_modeling` /
:func:`~repro.core.rtm.run_rtm` semantics, physics bit-identical);
:class:`ResilientMultiGpu` wraps the decomposed
:class:`~repro.core.multigpu.MultiGpuPipeline` path with a real (simple,
deterministic, ghost-dependent) host physics so halo faults are observable
in the answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.checkpointing import plan_checkpoints
from repro.core.config import (
    GPUOptions,
    ModelingConfig,
    ModelingResult,
    RTMConfig,
    RTMResult,
)
from repro.core.multigpu import MultiGpuPipeline
from repro.core.offload_plan import plan_offload
from repro.core.pipeline import OffloadPipeline
from repro.core.platform import CRAY_K40, Platform
from repro.core.schedule import (
    PHASE_METHOD,
    RESIDENCY_STEPS,
    Schedule,
    Step,
    rewindable,
)
from repro.core.shot import Shot
from repro.core.snapshots import SnapshotStore
from repro.observe import runlog
from repro.resilience.faults import OOM, PCIE_PERMANENT, RANK_DEAD
from repro.resilience.injector import TRACE_PROCESS, FaultInjector
from repro.trace.tracer import NULL_TRACER
from repro.utils.errors import (
    CommunicationError,
    ConfigurationError,
    DeviceECCError,
    DeviceLostError,
    DeviceOutOfMemoryError,
    KernelLaunchError,
    PCIeTransferError,
    ReproError,
)

RECOVERY_TRACK = "recovery"

#: faults where retrying the same operation can succeed
_TRANSIENT = (PCIeTransferError, KernelLaunchError)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic, seeded jitter.

    ``delay(attempt)`` = ``base_delay_s * factor**attempt`` stretched by up
    to ``jitter`` (drawn from the policy's own RNG stream). Delays are
    charged to the simulated device clock — never wall time — so identical
    seeds reproduce identical recovery timelines.
    """

    max_retries: int = 3
    base_delay_s: float = 1e-3
    factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = self.base_delay_s * self.factor ** min(attempt, 16)
        return base * (1.0 + self.jitter * rng.random())


class CheckpointStore:
    """Executed periodic checkpointing on a
    :func:`~repro.core.checkpointing.plan_checkpoints` schedule.

    Checkpoints are taken at loop-iteration boundaries: index ``0`` (the
    pristine state) plus every ``period``-th boundary the plan's budget
    keeps. The observable wavefield payload lives in a
    :class:`~repro.core.snapshots.SnapshotStore`; the full state dict
    (propagator fields, C-PML memory, accumulated image/illumination)
    rides alongside under the same key.
    """

    def __init__(self, nt: int, period: int, budget: int | None = None):
        if nt < 1:
            raise ConfigurationError("nt must be >= 1")
        self.period = max(1, int(period))
        nstates = nt // self.period
        self.plan = None
        steps = {0}
        if nstates >= 1:
            budget = nstates if budget is None else max(1, int(budget))
            self.plan = plan_checkpoints(nt, self.period, budget)
            steps |= {
                (k + 1) * self.period
                for k in self.plan.stored_indices
                if (k + 1) * self.period < nt
            }
        self._steps = steps
        self.wavefields = SnapshotStore(self.period)
        self._states: dict[int, dict] = {}
        self.saves = 0

    def is_checkpoint_step(self, step: int) -> bool:
        """Whether a checkpoint is due at the top of iteration ``step``."""
        return step in self._steps

    def save(self, step: int, observable: np.ndarray, state: dict) -> None:
        self.wavefields.save(step, observable)
        self._states[step] = state
        self.saves += 1

    def latest(self, at_or_before: int) -> int:
        """Most recent stored step <= ``at_or_before`` (0 always exists
        once the run has started)."""
        stored = [s for s in self._states if s <= at_or_before]
        if not stored:
            raise ConfigurationError(
                f"no checkpoint at or before step {at_or_before}"
            )
        return max(stored)

    def load(self, step: int) -> dict:
        return self._states[step]

    def nbytes(self) -> int:
        aux = sum(
            sum(a.nbytes for a in st.get("fields", {}).values())
            for st in self._states.values()
        )
        return self.wavefields.nbytes() + aux


@dataclass
class RecoveryStats:
    """What recovery did during one guarded run."""

    detected: int = 0
    retries: int = 0
    restarts: int = 0
    degraded: list = field(default_factory=list)
    #: simulated seconds spent on recovery actions (backoff waits +
    #: residency teardown/rebuild), excluding replayed compute
    recovery_cost_s: float = 0.0
    actions: list = field(default_factory=list)

    def note(self, action: str, kind: str = "action") -> None:
        self.actions.append(action)
        # recovery actions land in the ambient run ledger record too, so
        # a chaos/serve campaign's retries/restarts/degrades are queryable
        # next to the run's reduced metrics (no-op outside a run scope);
        # the per-kind counters are what `report --check` trends
        runlog.emit("recovery", action=action, action_kind=kind)
        runlog.count("recovery.actions")
        if kind != "action":
            runlog.count(f"recovery.{kind}s")

    def counts(self) -> dict:
        """Flat recovery counters (ledger-metric shaped)."""
        return {
            "recovery_retries": float(self.retries),
            "recovery_restarts": float(self.restarts),
            "recovery_degrades": float(len(self.degraded)),
            "recovery_cost_s": float(self.recovery_cost_s),
        }

    def absorb(self, other: "RecoveryStats") -> None:
        """Fold another guarded run's stats into this aggregate (the
        service's per-worker totals across shots)."""
        self.detected += other.detected
        self.retries += other.retries
        self.restarts += other.restarts
        self.degraded.extend(other.degraded)
        self.recovery_cost_s += other.recovery_cost_s
        self.actions.extend(other.actions)


class _RestartNeeded(ReproError):
    """Internal: escalate from op-level retry to checkpoint restart."""

    def __init__(self, cause: Exception):
        super().__init__(str(cause))
        self.cause = cause


class _Guard:
    """Shared op-level retry/degrade machinery."""

    def __init__(
        self,
        injector: FaultInjector,
        backoff: BackoffPolicy,
        stats: RecoveryStats,
        tracer,
        clock,
        mode: str,
    ):
        self.injector = injector
        self.backoff = backoff
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clock = clock
        self.mode = mode
        self._rng = backoff.rng()

    def _wait(self, attempt: int) -> None:
        delay = self.backoff.delay(attempt, self._rng)
        self.clock.advance(delay, "recovery")
        self.stats.recovery_cost_s += delay

    def _span(self, name, **args):
        return self.tracer.span(
            name, process=TRACE_PROCESS, track=RECOVERY_TRACK, cat="recovery",
            **args,
        )

    def run(self, label: str, op, pipeline: OffloadPipeline, phase: str,
            reset=None):
        """Run ``op`` under the ladder. ``phase`` is the pipeline phase the
        op expects; a degrade rebuilds residency to it before retrying.
        ``reset`` (when given) undoes a partial op before a retry —
        residency-building ops are not idempotent, so a transfer fault
        halfway through ``allocate_forward`` must tear down the partial
        present-table before re-entering. An OOM that outlasts
        ``backoff.max_retries`` degrades is real capacity loss and is
        re-raised."""
        attempt = 0
        degrades = 0
        while True:
            try:
                return op()
            except _TRANSIENT as exc:
                self.stats.detected += 1
                if attempt >= self.backoff.max_retries:
                    raise _RestartNeeded(exc)
                with self._span(f"retry:{label}", attempt=attempt, error=str(exc)):
                    if reset is not None:
                        reset()
                    self._wait(attempt)
                attempt += 1
                self.stats.retries += 1
                self.stats.note(f"retry {label} (attempt {attempt}): {exc}", kind="retry")
            except DeviceECCError as exc:
                # device memory is corrupt — re-running the op would compute
                # on garbage; only a checkpoint restart re-uploads good state
                self.stats.detected += 1
                self.stats.note(f"ecc during {label}: {exc}", kind="detect")
                raise _RestartNeeded(exc)
            except DeviceOutOfMemoryError as exc:
                self.stats.detected += 1
                if degrades >= self.backoff.max_retries:
                    raise
                self.degrade_oom(label, exc, pipeline, phase)
                degrades += 1
                self.stats.retries += 1

    def degrade_oom(
        self, label: str, exc: Exception, pipeline: OffloadPipeline, phase: str
    ) -> None:
        """The OOM rung: drop residency, consult the offload planner for
        the strategy this card *can* afford, rebuild, and let the caller
        retry the op."""
        plan = plan_offload(
            pipeline.physics,
            pipeline.shape,
            pipeline.rt.device.spec,
            boundary_width=pipeline.boundary_width,
            rtm=self.mode == "rtm",
        )
        with self._span(
            f"degrade:{label}", strategy=plan.strategy, error=str(exc),
        ):
            t0 = self.clock.now
            pipeline.drop_residency()
            self.injector.resolve(OOM)
            pipeline.restore_residency(phase)
            self.stats.recovery_cost_s += self.clock.now - t0
        action = f"re-plan:{plan.strategy}"
        self.stats.degraded.append(action)
        self.stats.note(f"degrade {label}: {action} ({exc})", kind="degrade")


def _build_residency(pipe: OffloadPipeline, step: Step) -> None:
    """The guarded op of an allocate or swap step. A swap retried after a
    teardown re-enters from idle: rebuild the forward residency, then
    swap — the same end state as one swap."""
    if step.kind == "swap" and pipe.phase == "idle":
        pipe.restore_residency("backward")
    else:
        pipe.perform(step.kind, step)


class _Recovering:
    """The restart rungs both guarded runs share, over the schedule's
    phases: the allocate/swap steps (:meth:`_residency`) and the
    checkpointed time-step loops (:meth:`_restartable`). A subclass
    supplies its cards (:meth:`_pipes`) and its host state
    (:meth:`_capture` / :meth:`_restore_host`)."""

    #: per residency step: the restart span's ``phase`` and the note label
    _RESIDENCY_RUNG: dict[str, tuple[str, str]]

    def _rung(self, exc, guard: _Guard, note: str, rebuild, **span) -> None:
        """Spend one restart on ``rebuild`` (re-raising the original fault
        once the budget is spent), timed on the guard's clock."""
        if self.stats.restarts >= self.max_restarts:
            raise exc.cause
        self.stats.restarts += 1
        with guard._span("restart", **span, error=str(exc.cause)):
            t0 = guard.clock.now
            rebuild()
            self.stats.recovery_cost_s += guard.clock.now - t0
        self.stats.note(
            f"{note} after {type(exc.cause).__name__}", kind="restart"
        )

    def _rebuild(self, phase: str) -> None:
        """Reset the link (clearing a latched permanent PCIe fault), tear
        every card's residency down and rebuild it for ``phase``."""
        self.injector.resolve(PCIE_PERMANENT)
        pipes = self._pipes()
        for pipe in pipes:
            pipe.drop_residency()
        for pipe in pipes:
            pipe.restore_residency(phase)

    def _residency(self, guard: _Guard, step: Step) -> None:
        """A guarded allocate or swap on every card. Its restart rung needs
        no checkpoint — the host state is intact — so it rebuilds straight
        to the phase the step leads into."""
        target = "forward" if step.kind == "allocate" else "backward"
        try:
            for pipe in self._pipes():
                guard.run(
                    PHASE_METHOD[step.kind], partial(_build_residency, pipe, step),
                    pipe, "idle" if step.kind == "allocate" else "forward",
                    reset=pipe.drop_residency,
                )
        except _RestartNeeded as exc:
            phase, label = self._RESIDENCY_RUNG[step.kind]
            self._rung(
                exc, guard, f"{label} restarted",
                lambda: self._rebuild(target), phase=phase,
            )

    def _restartable(self, kind: str, steps, ckpt, guard_for, body) -> None:
        """The ``kind`` phase's time steps under checkpoint/restart:
        ``guard_for()`` supplies each iteration's guard, a checkpoint is
        taken where one is due, and a :class:`_RestartNeeded` out of
        ``body(guard, step)`` restores the latest checkpoint and replays
        from there."""

        def attempt(i: int, step: Step) -> int:
            guard = guard_for()
            if ckpt.is_checkpoint_step(i):
                ckpt.save(i, *self._capture(kind))
            try:
                body(guard, step)
            except _RestartNeeded as exc:
                at = ckpt.latest(i)

                def rebuild():
                    self._restore_host(kind, ckpt.load(at))
                    self._rebuild(kind)

                self._rung(
                    exc, guard, f"restart from checkpoint {at}", rebuild,
                    from_step=i, to_step=at, phase=kind,
                )
                return at
            return i + 1

        rewindable(steps, attempt)


class ResilientPipeline(_Recovering):
    """Fault-tolerant executed modeling/RTM on one simulated card.

    With an empty fault plan this runs *exactly* the plain drivers'
    operation sequence — the physics is bitwise identical and the device
    timeline matches to the last launch (checkpoint capture is pure host
    work). With faults armed, recovery guarantees the same final answer.
    The shot itself — physics and pipeline — is the plain drivers'
    :class:`~repro.core.shot.Shot`; this class adds the guard, the
    checkpoints and the restarts. A static gate (lint, sanitize, capacity
    proof) is a call made before the shot, as for the plain drivers.

    Parameters
    ----------
    config:
        :class:`ModelingConfig` (for :meth:`run_modeling`) or
        :class:`RTMConfig` (for :meth:`run_rtm`).
    gpu_options / platform / tracer:
        As for the plain drivers; the pipeline is always attached (faults
        inject through device operations).
    injector:
        The armed :class:`FaultInjector` (one is built from ``plan`` when
        omitted).
    backoff:
        Retry policy (deterministic defaults).
    checkpoint_period:
        Loop iterations between checkpoints (default: ``nt // 4``, min 1).
    checkpoint_budget:
        Max stored checkpoints (:func:`plan_checkpoints` spreads them);
        ``None`` keeps every periodic one.
    max_restarts:
        Restart budget before the run is declared unrecoverable (the
        original fault is re-raised).
    """

    _RESIDENCY_RUNG = {"allocate": ("allocate", "allocate"), "swap": ("swap", "swap")}

    def __init__(
        self,
        config: ModelingConfig,
        gpu_options: GPUOptions | None = None,
        platform: Platform = CRAY_K40,
        tracer=None,
        injector: FaultInjector | None = None,
        plan=None,
        backoff: BackoffPolicy | None = None,
        checkpoint_period: int | None = None,
        checkpoint_budget: int | None = None,
        max_restarts: int = 4,
    ):
        if config.model is None:
            raise ConfigurationError("ResilientPipeline needs an EarthModel")
        self.config = config
        self.options = gpu_options if gpu_options is not None else GPUOptions()
        self.platform = platform
        self.tracer = tracer
        if injector is None:
            injector = FaultInjector(plan, tracer=tracer)
        self.injector = injector
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        period = checkpoint_period
        if period is None:
            period = max(1, config.nt // 4)
        self.checkpoint_period = period
        self.checkpoint_budget = checkpoint_budget
        self.max_restarts = int(max_restarts)
        self.stats = RecoveryStats()
        self._shot: Shot | None = None

    # ------------------------------------------------------------------
    def _pipes(self) -> list[OffloadPipeline]:
        return [self._shot.pipeline]

    def _capture(self, kind: str):
        return self._shot.capture(kind)

    def _restore_host(self, kind: str, state: dict) -> None:
        self._shot.restore(kind, state)

    def _finalize(self, guard: _Guard, pipeline: OffloadPipeline, step: Step):
        try:
            guard.run(
                "finalize", partial(pipeline.perform, "finalize", step),
                pipeline, "backward" if step.image else "forward",
            )
        except _RestartNeeded:
            # the answer already lives on the host — a finalize that cannot
            # talk to the card degrades to dropping residency outright
            pipeline.drop_residency()
            self.injector.resolve(PCIE_PERMANENT)
            self.stats.degraded.append("finalize:drop")
            self.stats.note("finalize degraded to residency drop", kind="degrade")

    # ------------------------------------------------------------------
    def run_modeling(self) -> ModelingResult:
        return self._run("modeling")

    def run_rtm(self) -> RTMResult:
        if not isinstance(self.config, RTMConfig):
            raise ConfigurationError("run_rtm needs an RTMConfig")
        return self._run("rtm")

    def _run(self, mode: str):
        """Interpret the shot's schedule: every step's physics, then each
        of its actions under the guard."""
        shot = self._shot = Shot(
            self.config, mode, self.options, self.platform, self.tracer,
            injector=self.injector,
        )
        pipeline = shot.pipeline
        guard = _Guard(
            self.injector, self.backoff, self.stats,
            pipeline.tracer, pipeline.rt.device.clock, mode,
        )

        def body(guard: _Guard, step: Step) -> None:
            inject = shot.advance(step)
            for action in step.actions:
                guard.run(
                    PHASE_METHOD[action],
                    partial(pipeline.perform, action, step, inject),
                    pipeline, step.kind,
                )

        for kind, steps in shot.schedule.phases():
            if kind in RESIDENCY_STEPS:
                shot.advance(steps[0])
                self._residency(guard, steps[0])
            elif kind == "finalize":
                self._finalize(guard, pipeline, steps[0])
            else:
                ckpt = CheckpointStore(
                    self.config.nt, self.checkpoint_period, self.checkpoint_budget
                )
                self._restartable(kind, steps, ckpt, lambda: guard, body)
        return shot.result(pipeline.gpu_times(), resilience=self.stats)


class ResilientMultiGpu(_Recovering):
    """Fault-tolerant decomposed run over :class:`MultiGpuPipeline`.

    Each rank carries a *real* host field (the decomposed scatter of a
    seeded global field) advanced by a deterministic, halo-dependent
    axis-0 smoothing stencil each step — deliberately simple physics whose
    answer is provably wrong if a ghost exchange is lost and not recovered.
    The per-rank device pipelines and the MPI world run a reduced form of
    the schedule: allocate, the forward/backward kernels with a halo
    exchange per step, swap and finalize — snapshots, their reloads and
    the imaging stay on the host. Every fault kind (device *and* message)
    still has a real injection surface, and recovery must reproduce the
    fault-free gathered field exactly.

    Degradation ladder additions over the single-card wrapper: a dead rank
    gathers the global state from the surviving host copies, re-decomposes
    onto ``ngpus - 1`` cards, and continues the same step.
    """

    _RESIDENCY_RUNG = {
        "allocate": ("forward", "forward residency"),
        "swap": ("backward", "backward residency"),
    }

    def __init__(
        self,
        physics: str,
        shape: tuple[int, ...],
        ngpus: int,
        platform: Platform = CRAY_K40,
        options: GPUOptions | None = None,
        injector: FaultInjector | None = None,
        plan=None,
        backoff: BackoffPolicy | None = None,
        checkpoint_period: int | None = None,
        max_restarts: int = 4,
        seed: int = 1234,
        space_order: int = 8,
        boundary_width: int = 16,
        tracer=None,
    ):
        if ngpus < 1:
            raise ConfigurationError("ngpus must be >= 1")
        self.physics = physics.lower()
        self.shape = tuple(int(x) for x in shape)
        self.ngpus = int(ngpus)
        self.platform = platform
        self.options = options if options is not None else GPUOptions()
        if injector is None:
            injector = FaultInjector(plan, tracer=tracer)
        self.injector = injector
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.checkpoint_period = checkpoint_period
        self.max_restarts = int(max_restarts)
        self.space_order = int(space_order)
        self.boundary_width = int(boundary_width)
        self.tracer = tracer
        self.stats = RecoveryStats()
        rng = np.random.default_rng(seed)
        self.global_field = rng.standard_normal(self.shape).astype(np.float32)
        self.image: np.ndarray | None = None
        self.mgp: MultiGpuPipeline | None = None
        #: device seconds retired by torn-down pipelines (a re-decompose
        #: builds fresh cards with fresh clocks; the node's timeline must
        #: not forget the work the lost configuration already did)
        self._retired_device_s = 0.0
        self._build(self.ngpus)
        if tracer is not None:
            # the ranks' runtimes run untraced, so none puts this tracer on
            # a simulated clock: the guard spans and fault instants go on
            # the node's timeline, which survives a re-decomposition
            tracer.bind_default_clock(self.device_seconds)

    # ------------------------------------------------------------------
    def device_seconds(self) -> float:
        """Total simulated device seconds this node has consumed, across
        every re-decomposition (the serve layer's node-time charge)."""
        return self._retired_device_s + self.mgp.makespan_s()

    def _build(self, ngpus: int) -> None:
        if self.mgp is not None:
            self._retired_device_s += self.mgp.makespan_s()
        self.ngpus = ngpus
        self.mgp = MultiGpuPipeline(
            self.physics,
            self.shape,
            ngpus,
            platform=self.platform,
            options=self.options,
            space_order=self.space_order,
            boundary_width=self.boundary_width,
            injector=self.injector,
        )
        self._scatter()

    def _scatter(self) -> None:
        for rc in self.mgp.ranks:
            rc.host_field[...] = rc.sub.scatter(self.global_field)

    def _gather(self) -> None:
        for rc in self.mgp.ranks:
            rc.sub.gather_into(self.global_field, rc.host_field)

    def _guard(self) -> _Guard:
        clock = self.mgp.ranks[0].pipe.rt.device.clock
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        return _Guard(
            self.injector, self.backoff, self.stats, tracer, clock, "modeling"
        )

    # ------------------------------------------------------------------
    # the host physics: deterministic, halo-dependent axis-0 smoothing
    # ------------------------------------------------------------------
    @staticmethod
    def reference_step(g: np.ndarray) -> np.ndarray:
        """The global-domain update one :meth:`_local_step` sweep equals
        when every halo is fresh (used by tests as the decomposition-free
        oracle)."""
        pad = [(1, 1)] + [(0, 0)] * (g.ndim - 1)
        p = np.pad(g, pad, mode="edge")
        return (0.25 * p[:-2] + 0.5 * p[1:-1] + 0.25 * p[2:]).astype(np.float32)

    def _local_step(self) -> None:
        h = self.mgp.decomp.halo
        for rc in self.mgp.ranks:
            a = rc.host_field
            # physical-edge halos replicate the current edge plane (what the
            # global rule's edge padding sees); exchanged halos were filled
            # by the previous ghost swap
            if not rc.sub.halo.lo[0]:
                a[:h] = a[h]
            if not rc.sub.halo.hi[0]:
                a[-h:] = a[-h - 1]
            n0 = a.shape[0]
            core = (
                0.25 * a[h - 1:n0 - h - 1]
                + 0.5 * a[h:n0 - h]
                + 0.25 * a[h + 1:n0 - h + 1]
            ).astype(np.float32)
            a[h:n0 - h] = core

    # ------------------------------------------------------------------
    def _exchange(self, guard: _Guard, name: str) -> None:
        """One guarded ghost swap: a failed exchange flushes the world and
        retries wholesale (owned cells are untouched by the exchange, so
        the retry converges on exactly the clean ghost state)."""
        attempt = 0
        while True:
            try:
                self.mgp.exchange(name)
                return
            except (CommunicationError,) + _TRANSIENT as exc:
                self.stats.detected += 1
                if attempt >= self.backoff.max_retries:
                    raise _RestartNeeded(exc)
                with guard._span("retry:exchange", attempt=attempt, error=str(exc)):
                    dropped = self.mgp.mpi.flush()
                    guard._wait(attempt)
                attempt += 1
                self.stats.retries += 1
                self.stats.note(
                    f"retry exchange (attempt {attempt}, flushed {dropped}): {exc}",
                    kind="retry",
                )

    def _pipes(self) -> list[OffloadPipeline]:
        return [rc.pipe for rc in self.mgp.ranks]

    def _capture(self, kind: str):
        self._gather()
        state = {"global": self.global_field.copy()}
        if kind == "backward":
            state["image"] = self.image.copy()
        return self.global_field, state

    def _restore_host(self, kind: str, state: dict) -> None:
        self.global_field[...] = state["global"]
        if self.image is not None and "image" in state:
            self.image[...] = state["image"]
        self.mgp.mpi.flush()
        self._scatter()

    def _redecompose(self, exc: DeviceLostError, phase: str) -> None:
        """The dead-rank rung: the card is gone but every host slab is
        intact — gather, rebuild on the survivors, scatter, re-upload."""
        if self.ngpus <= 1:
            raise exc  # nothing left to decompose onto
        self.stats.detected += 1
        old = self.ngpus
        guard = self._guard()
        with guard._span(
            "redecompose", from_ranks=old, to_ranks=old - 1, error=str(exc),
        ):
            self._gather()
            self.injector.resolve(RANK_DEAD)
            self._build(old - 1)
            for rc in self.mgp.ranks:
                rc.pipe.restore_residency(phase)
        action = f"re-decompose:{old}->{old - 1}"
        self.stats.degraded.append(action)
        self.stats.note(f"{action} after rank loss", kind="degrade")

    # ------------------------------------------------------------------
    def run(self, nt: int, snap_period: int, mode: str = "modeling") -> np.ndarray:
        """Run ``nt`` decomposed steps (plus a backward imaging phase for
        ``mode='rtm'``); returns the final gathered global field
        (modeling) or the accumulated image (rtm)."""
        schedule = Schedule(mode, nt, snap_period)
        period = self.checkpoint_period
        if period is None:
            period = max(1, nt // 4)
        store = SnapshotStore(snap_period)
        # allocate runs under the first guard; each time step gets a fresh
        # one (rank 0's clock may change on rebuild), and swap and
        # finalize reuse the last
        current = self._guard()

        def next_guard() -> _Guard:
            nonlocal current
            current = self._guard()
            return current

        def body(guard: _Guard, step: Step) -> None:
            self._local_step()
            for rc in list(self.mgp.ranks):
                try:
                    guard.run(
                        PHASE_METHOD[step.kind],
                        partial(rc.pipe.perform, step.kind, step),
                        rc.pipe, step.kind,
                    )
                except DeviceLostError as exc:
                    self._redecompose(exc, step.kind)
                    raise _RestartNeeded(exc)
            forward = step.kind == "forward"
            self._exchange(
                guard, self.mgp.primary if forward else self.mgp._backward_name()
            )
            if step.snap and mode == "rtm":
                self._gather()
                if forward:
                    store.save(step.n, self.global_field.copy())
                else:
                    self.image += store.load(step.n) * self.global_field

        for kind, steps in schedule.phases():
            if kind in RESIDENCY_STEPS:
                self._residency(current, steps[0])
            elif kind == "finalize":
                for rc in self.mgp.ranks:
                    current.run(
                        "finalize", partial(rc.pipe.perform, "finalize", steps[0]),
                        rc.pipe, "backward" if steps[0].image else "forward",
                    )
            else:
                self._restartable(
                    kind, steps, CheckpointStore(nt, period), next_guard, body
                )
            if kind == "forward":
                self._gather()
            elif kind == "swap":
                self.image = np.zeros(self.shape, dtype=np.float32)
                # deterministic backward seed: the time-reverse starts from
                # the final forward state, halved
                self.global_field[...] = 0.5 * self.global_field
                self._scatter()
        return (self.image if mode == "rtm" else self.global_field).copy()


__all__ = [
    "BackoffPolicy",
    "CheckpointStore",
    "RecoveryStats",
    "ResilientPipeline",
    "ResilientMultiGpu",
]
