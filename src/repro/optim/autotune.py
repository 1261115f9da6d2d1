"""Trace-driven closed-loop schedule auto-tuning.

The static tuners in :mod:`repro.optim.tuning` pick schedules from the
analytic occupancy/roofline model alone — the paper's hand-tuning workflow.
This module closes the loop the way Assis et al. (arXiv:1905.06975) and
Paul et al. (arXiv:1603.03971) argue for: schedules are chosen from
*observed* timelines.

The loop has four stages (``probe -> search -> plan -> apply``):

1. **Probe** — run a short window of the case in estimate mode under a
   :class:`~repro.trace.tracer.Tracer`, and read per-kernel observed
   seconds, occupancy, register spills, queue census and kernel/transfer
   overlap off the trace through the one trace reduction,
   :func:`~repro.observe.reduce.reduce_trace` (its
   :class:`~repro.observe.reduce.KernelAggregate` per kernel, and the
   card's (rank 0's) ``transfer_overlap_s``/``transfer_s``), instead of
   calling the static
   :func:`~repro.gpusim.kernelmodel.estimate_kernel_time` directly.
   A kernel whose spans lack occupancy annotations reports
   ``occupancy=None``; nothing in the loop crashes on it.
2. **Search** — enumerate schedule candidates (compute construct, vector
   length, ``maxregcount``, async queueing), warm-started by the static
   :func:`~repro.optim.tuning.predict_best_launch` prediction, pruned by
   the :mod:`repro.analyze` schedule lint (a candidate the linter flags at
   error level is never probed), and measured by probing each survivor
   within a probe budget (:func:`tune_case`).
3. **Plan** — compose the per-kernel winners into a :class:`TuningPlan`
   JSON artifact that records, for every kernel, the chosen construct /
   vector length / queue plus the predicted-vs-observed model error
   (:meth:`TuningPlan.save` / :func:`load_plan`). The composed plan is
   re-probed; if composition loses to the best single candidate (or to the
   default schedule) the tuner falls back, so an applied plan is never
   slower than the default static schedule on the measured objective.
4. **Apply** — :func:`options_with_plan` attaches the plan to
   :class:`~repro.core.config.GPUOptions`; the offload pipeline's launch
   path consults :meth:`TuningPlan.entry_for` per kernel.

All times in this module are **simulated seconds** on the device clock
(the same time base as the speedup tables); fractions are 0..1.

CLI: ``python -m repro tune CASE [--budget N] [--out plan.json]``, then
``python -m repro tables --plan plan.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.acc.clauses import CompileFlags, LoopSchedule
from repro.acc.compiler import PGI_14_6, CompilerPersona
from repro.analyze.framework import Severity
from repro.core.config import GPUOptions
from repro.core.platform import CRAY_K40, Platform
from repro.gpusim.kernelmodel import estimate_kernel_time
from repro.gpusim.specs import GPUSpec
from repro.trace.tracer import SPAN, Tracer
from repro.utils.errors import ConfigurationError
from repro.utils.fold import left_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.reduce import KernelAggregate

PLAN_VERSION = 1

#: default number of measured probe runs in a search (baseline included;
#: the final plan-verification probe is extra)
DEFAULT_BUDGET = 8
#: default time steps per probe window — the directive pattern repeats each
#: step, so a short window observes every kernel of the schedule
PROBE_NT = 6
#: snapshot period of the probe window (small, so the d2h path fires too)
PROBE_SNAP = 3


# ----------------------------------------------------------------------
# probe step time: the pipeline's per-step phase spans
# ----------------------------------------------------------------------
def observed_step_seconds(tracer: Tracer) -> tuple[float, int]:
    """``(mean_step_seconds, steps)`` from the pipeline's per-step phase
    spans (``forward_step`` + ``backward_step``), in simulated seconds per
    time step (RTM charges both phases to the step)."""
    fwd = [e for e in tracer.events if e.kind == SPAN and e.name == "forward_step"]
    bwd = [e for e in tracer.events if e.kind == SPAN and e.name == "backward_step"]
    steps = max(len(fwd), len(bwd))
    if steps == 0:
        return 0.0, 0
    total = left_sum(e.duration for e in fwd) + left_sum(e.duration for e in bwd)
    return total / steps, steps


# ----------------------------------------------------------------------
# candidates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleCandidate:
    """One point of the schedule search space.

    ``construct=None`` keeps the compiler persona's preferred lowering (the
    default static schedule); an explicit construct carries the matching
    explicit loop schedule at ``vector_length`` threads/block.
    ``maxregcount=None`` leaves registers unclamped.
    """

    construct: str | None = None
    vector_length: int | None = None
    maxregcount: int | None = 64
    async_kernels: bool | None = None

    @property
    def label(self) -> str:
        parts = [
            self.construct or "default",
            f"v{self.vector_length}" if self.vector_length else "vauto",
            f"r{self.maxregcount}" if self.maxregcount else "runlimited",
        ]
        if self.async_kernels:
            parts.append("async")
        return "/".join(parts)

    def loop_schedule(self) -> LoopSchedule | None:
        if self.construct is None:
            return None
        v = self.vector_length or 128
        if self.construct == "parallel":
            return LoopSchedule.gwv(vector_length=v)
        return LoopSchedule(independent=True, vector_length=v)

    def options(self, base: GPUOptions) -> GPUOptions:
        """The candidate applied on top of ``base`` (plan cleared — a probe
        measures the candidate itself)."""
        return replace(
            base,
            flags=replace(base.flags, maxregcount=self.maxregcount),
            construct=self.construct,
            schedule=self.loop_schedule(),
            async_kernels=self.async_kernels,
            plan=None,
        )


BASELINE = ScheduleCandidate()


def generate_candidates(
    spec: GPUSpec,
    persona: CompilerPersona,
    workloads: Iterable[Any],
    toolkit=None,
) -> list[ScheduleCandidate]:
    """The ranked candidate list, warm-started by the static prediction.

    Vector-length candidates are the static
    :func:`~repro.optim.tuning.predict_best_launch` winners of the case's
    kernels plus the 128/256 house defaults; registers sweep the Figure-10
    sweet spot and the unclamped point, pruned to the
    :func:`~repro.analyze.capacity.admissible_maxregcounts` the capacity
    prover cannot refute (a clamp the model proves both spills and is no
    faster never gets probed); both compute constructs and both async
    regimes are covered. The baseline (persona-default) candidate is
    always first. Ranking beyond the baseline is by modelled step time, so
    a small ``--budget`` probes the statically most promising schedules
    first.
    """
    from repro.analyze.capacity import admissible_maxregcounts
    from repro.optim.tuning import predict_best_launch

    toolkit = toolkit if toolkit is not None else persona.default_toolkit
    workloads = list(workloads)
    regcounts = admissible_maxregcounts(
        spec, workloads, (64, None), toolkit=toolkit
    )
    warm = set()
    for w in workloads:
        cfg, _ = predict_best_launch(spec, w, maxregcount=64, toolkit=toolkit)
        warm.add(cfg.threads_per_block)
    vectors = sorted(
        v for v in ({128, 256} | warm) if v <= spec.max_threads_per_block
    )
    constructs = [persona.preferred_construct()]
    constructs.append("parallel" if constructs[0] == "kernels" else "kernels")
    scored: list[tuple[float, ScheduleCandidate]] = []
    for construct in constructs:
        for v in vectors:
            for reg in regcounts:
                cand = ScheduleCandidate(construct, v, reg, None)
                flags = CompileFlags(maxregcount=reg)
                cost = 0.0
                for w in workloads:
                    cfg = persona.lower(
                        construct, w, cand.loop_schedule(), flags
                    )
                    cost += estimate_kernel_time(spec, w, cfg, toolkit).seconds
                scored.append((cost, cand))
    scored.sort(key=lambda sc: sc[0])
    ranked = [cand for _, cand in scored]
    # async variant of the statically best explicit schedule — measured, not
    # assumed (the paper's Figure 11: async wins on CRAY, loses on PGI)
    if ranked:
        ranked.insert(1, replace(ranked[0], async_kernels=True))
    return [BASELINE, *ranked]


# ----------------------------------------------------------------------
# probing
# ----------------------------------------------------------------------
@dataclass
class ProbeResult:
    """Measured outcome of one probe window.

    ``kernels`` are the trace reduction's per-kernel aggregates;
    ``candidate`` is the schedule probed (:func:`run_probe` measures
    options and leaves the baseline here; :func:`tune_case` sets the
    candidate it probed).
    """

    success: bool
    step_seconds: float = 0.0
    steps: int = 0
    kernels: dict[str, KernelAggregate] = field(default_factory=dict)
    overlap_seconds: float = 0.0
    transfer_seconds: float = 0.0
    total_seconds: float = 0.0
    failure: str | None = None
    candidate: ScheduleCandidate = BASELINE

    @property
    def overlap_fraction(self) -> float:
        if self.transfer_seconds <= 0:
            return 0.0
        return self.overlap_seconds / self.transfer_seconds


@dataclass(frozen=True)
class TuneRequest:
    """One case's tuning problem: what to probe and how hard."""

    physics: str
    shape: tuple[int, ...]
    mode: str = "rtm"
    platform: Platform = CRAY_K40
    base_options: GPUOptions = field(default_factory=GPUOptions)
    nt: int = PROBE_NT
    snap_period: int = PROBE_SNAP
    nreceivers: int = 16
    space_order: int = 8
    boundary_width: int = 8
    pml_variant: str = "restructured"

    def __post_init__(self):
        if self.mode not in ("modeling", "rtm"):
            raise ConfigurationError(
                f"mode must be 'modeling' or 'rtm', not '{self.mode}'"
            )
        if self.nt < 1:
            raise ConfigurationError("probe nt must be >= 1")


def run_probe(request: TuneRequest, options: GPUOptions) -> ProbeResult:
    """Run one probe window of ``request`` under ``options`` with a tracer
    attached, and reduce the trace to a :class:`ProbeResult`. The physics is
    never run — probes drive the offload pipeline in estimate mode, so a
    probe of a paper-scale grid costs milliseconds of host time."""
    from repro.core.modeling import estimate_modeling
    from repro.core.rtm import estimate_rtm
    from repro.observe.reduce import reduce_trace

    tracer = Tracer()
    kwargs = dict(
        platform=request.platform,
        options=options,
        nreceivers=request.nreceivers,
        space_order=request.space_order,
        boundary_width=request.boundary_width,
        pml_variant=request.pml_variant,
        tracer=tracer,
    )
    if request.mode == "modeling":
        gpu = estimate_modeling(
            request.physics, request.shape, request.nt, request.snap_period,
            snapshot_decimate=4, **kwargs,
        )
    else:
        gpu = estimate_rtm(
            request.physics, request.shape, request.nt, request.snap_period,
            **kwargs,
        )
    if not gpu.success:
        return ProbeResult(success=False, failure=gpu.failure)
    step_seconds, steps = observed_step_seconds(tracer)
    reduction = reduce_trace(tracer)
    # one card: every span is rank 0's
    card = reduction.ranks.get(0)
    return ProbeResult(
        success=True,
        step_seconds=step_seconds,
        steps=steps,
        kernels=reduction.kernels,
        overlap_seconds=card.transfer_overlap_s if card else 0.0,
        transfer_seconds=card.transfer_s if card else 0.0,
        total_seconds=gpu.total,
    )


def lint_gate(
    request: TuneRequest, options: GPUOptions
) -> tuple[bool, list[str]]:
    """Schedule-lint pruning: record a tiny dry run of this candidate's
    directive schedule and refuse it on error-level findings. Returns
    ``(ok, error_rules)``."""
    from repro.analyze.drivers import lint_pipeline

    result = lint_pipeline(
        request.physics,
        request.shape,
        request.mode,
        nt=4,
        snap_period=2,
        options=options,
        platform=request.platform,
        nreceivers=request.nreceivers,
        space_order=request.space_order,
        boundary_width=request.boundary_width,
        pml_variant=request.pml_variant,
    )
    errors = [
        d.rule for d in result.diagnostics if d.severity >= Severity.ERROR
    ]
    return (not errors, sorted(set(errors)))


# ----------------------------------------------------------------------
# the plan artifact
# ----------------------------------------------------------------------
@dataclass
class KernelPlan:
    """One kernel's tuned launch choice plus its model-error record.

    ``predicted_seconds`` is the static model's per-launch estimate for the
    chosen schedule, ``observed_seconds`` the probe's per-launch mean (both
    simulated seconds); ``model_error`` is their signed relative error
    ``(predicted - observed) / observed``.
    """

    kernel: str
    construct: str
    vector_length: int
    queue: int | None = None
    predicted_seconds: float | None = None
    observed_seconds: float | None = None
    model_error: float | None = None
    occupancy: float | None = None
    spilled_regs: int | None = None

    def loop_schedule(self) -> LoopSchedule:
        if self.construct == "parallel":
            return LoopSchedule.gwv(vector_length=self.vector_length)
        return LoopSchedule(independent=True, vector_length=self.vector_length)

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "construct": self.construct,
            "vector_length": self.vector_length,
            "queue": self.queue,
            "predicted_seconds": self.predicted_seconds,
            "observed_seconds": self.observed_seconds,
            "model_error": self.model_error,
            "occupancy": self.occupancy,
            "spilled_regs": self.spilled_regs,
        }

    @staticmethod
    def from_json(data: dict) -> "KernelPlan":
        return KernelPlan(
            kernel=data["kernel"],
            construct=data["construct"],
            vector_length=int(data["vector_length"]),
            queue=data.get("queue"),
            predicted_seconds=data.get("predicted_seconds"),
            observed_seconds=data.get("observed_seconds"),
            model_error=data.get("model_error"),
            occupancy=data.get("occupancy"),
            spilled_regs=data.get("spilled_regs"),
        )


@dataclass
class TuningPlan:
    """The tuner's output artifact: per-kernel schedule choices, the global
    register/async choice, and the measured evidence behind them.

    All times are simulated seconds. ``baseline_step_seconds`` /
    ``tuned_step_seconds`` are per-time-step means from the probe windows
    (the plan is only emitted when tuned <= baseline on that objective);
    per-kernel predicted-vs-observed errors make the static model's
    accuracy itself a reported metric.
    """

    case: str
    mode: str
    platform: str
    compiler: str
    maxregcount: int | None
    async_kernels: bool | None
    kernels: dict[str, KernelPlan]
    baseline_step_seconds: float
    tuned_step_seconds: float
    transfer_overlap_fraction: float = 0.0
    probes: int = 0
    budget: int = 0
    pruned: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    version: int = PLAN_VERSION

    # -- application ----------------------------------------------------
    def entry_for(self, kernel: str) -> KernelPlan | None:
        """The per-kernel override the pipeline's launch path consults."""
        return self.kernels.get(kernel)

    @property
    def improvement(self) -> float:
        """Fraction of baseline step time saved (>= 0 by construction)."""
        if self.baseline_step_seconds <= 0:
            return 0.0
        return 1.0 - self.tuned_step_seconds / self.baseline_step_seconds

    @property
    def mean_abs_model_error(self) -> float | None:
        errs = [
            abs(k.model_error)
            for k in self.kernels.values()
            if k.model_error is not None
        ]
        return left_sum(errs) / len(errs) if errs else None

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {
            "version": self.version,
            "case": self.case,
            "mode": self.mode,
            "platform": self.platform,
            "compiler": self.compiler,
            "maxregcount": self.maxregcount,
            "async_kernels": self.async_kernels,
            "baseline_step_seconds": self.baseline_step_seconds,
            "tuned_step_seconds": self.tuned_step_seconds,
            "improvement": self.improvement,
            "transfer_overlap_fraction": self.transfer_overlap_fraction,
            "mean_abs_model_error": self.mean_abs_model_error,
            "probes": self.probes,
            "budget": self.budget,
            "pruned": list(self.pruned),
            "notes": list(self.notes),
            "kernels": {
                name: k.to_json() for name, k in sorted(self.kernels.items())
            },
        }

    @staticmethod
    def from_json(data: dict) -> "TuningPlan":
        version = data.get("version")
        if version != PLAN_VERSION:
            raise ConfigurationError(
                f"unsupported tuning-plan version {version!r} "
                f"(expected {PLAN_VERSION})"
            )
        return TuningPlan(
            case=data["case"],
            mode=data["mode"],
            platform=data["platform"],
            compiler=data["compiler"],
            maxregcount=data.get("maxregcount"),
            async_kernels=data.get("async_kernels"),
            kernels={
                name: KernelPlan.from_json(k)
                for name, k in data.get("kernels", {}).items()
            },
            baseline_step_seconds=data["baseline_step_seconds"],
            tuned_step_seconds=data["tuned_step_seconds"],
            transfer_overlap_fraction=data.get("transfer_overlap_fraction", 0.0),
            probes=data.get("probes", 0),
            budget=data.get("budget", 0),
            pruned=list(data.get("pruned", ())),
            notes=list(data.get("notes", ())),
            version=PLAN_VERSION,
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=False)
            f.write("\n")

    # -- reporting -------------------------------------------------------
    def summary_text(self) -> str:
        lines = [
            f"TuningPlan — {self.case} ({self.mode}) on {self.platform} / "
            f"{self.compiler}",
            f"  maxregcount {self.maxregcount}  async {self.async_kernels}",
            f"  step time: default {self.baseline_step_seconds * 1e3:.4g} ms"
            f" -> tuned {self.tuned_step_seconds * 1e3:.4g} ms"
            f" ({100 * self.improvement:.1f}% saved)",
            f"  transfer overlap {100 * self.transfer_overlap_fraction:.1f}%"
            f"  probes {self.probes}/{self.budget}",
        ]
        err = self.mean_abs_model_error
        if err is not None:
            lines.append(f"  static-model mean |error| {100 * err:.1f}%")
        if self.pruned:
            lines.append("  lint-pruned: " + ", ".join(self.pruned))
        for name, k in sorted(self.kernels.items()):
            obs = (
                f"{k.observed_seconds * 1e6:.3g} us"
                if k.observed_seconds is not None
                else "n/a"
            )
            e = (
                f"{100 * k.model_error:+.0f}%"
                if k.model_error is not None
                else "n/a"
            )
            q = f" q{k.queue}" if k.queue is not None else ""
            lines.append(
                f"    {name:<28} {k.construct:<8} v{k.vector_length:<5}{q}"
                f" obs {obs:<12} model {e}"
            )
        return "\n".join(lines)


def load_plan(path: str) -> TuningPlan:
    """Read a :class:`TuningPlan` JSON written by :meth:`TuningPlan.save`."""
    with open(path) as f:
        return TuningPlan.from_json(json.load(f))


def options_with_plan(base: GPUOptions, plan: TuningPlan) -> GPUOptions:
    """``base`` with the plan attached: per-kernel entries override the
    launch path, and the plan's global ``maxregcount``/async choices replace
    the flags-level ones."""
    return replace(
        base,
        flags=replace(base.flags, maxregcount=plan.maxregcount),
        async_kernels=plan.async_kernels,
        construct=None,
        schedule=None,
        plan=plan,
    )


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------
def _case_workloads(request: TuneRequest) -> dict[str, Any]:
    """Name -> KernelWorkload map of every kernel the case's pipeline can
    launch (forward, backward, injection, imaging)."""
    from repro.core.shot import build_pipeline

    p = build_pipeline(
        request.base_options, request.platform, request.physics, request.shape,
        request.nreceivers, request.space_order, request.boundary_width,
        request.pml_variant,
    )
    out: dict[str, Any] = {}
    for group in (
        p.forward_workloads,
        p.backward_workloads,
        p.backward_transpose,
        p.receiver_workloads,
        [p.source_workload],
        p.imaging_workloads,
    ):
        for w in group:
            out[w.name] = w
    return out


def _predicted_seconds(
    request: TuneRequest,
    persona: CompilerPersona,
    workload: Any,
    entry: KernelPlan,
    maxregcount: int | None,
) -> float:
    cfg = persona.lower(
        entry.construct,
        workload,
        entry.loop_schedule(),
        CompileFlags(maxregcount=maxregcount),
    )
    return estimate_kernel_time(
        request.platform.gpu, workload, cfg, persona.default_toolkit
    ).seconds


def _plan_entries(
    winner: ScheduleCandidate,
    per_kernel: dict[str, tuple[ScheduleCandidate, KernelAggregate]],
    persona: CompilerPersona,
) -> dict[str, KernelPlan]:
    """Compose per-kernel entries: each kernel keeps the candidate that
    measured fastest for it (falling back to the overall winner's shape for
    the construct/vector of candidates that kept the persona default)."""
    entries: dict[str, KernelPlan] = {}
    for name, (cand, obs) in per_kernel.items():
        construct = cand.construct or persona.preferred_construct()
        vector = cand.vector_length or 128
        queue = obs.preferred_queue() if winner.async_kernels else None
        entries[name] = KernelPlan(
            kernel=name,
            construct=construct,
            vector_length=vector,
            queue=queue,
            observed_seconds=obs.mean_s,
            occupancy=obs.occupancy,
            spilled_regs=obs.spilled_regs,
        )
    return entries


def tune_case(
    request: TuneRequest,
    budget: int = DEFAULT_BUDGET,
    log: Callable[[str], None] | None = None,
) -> TuningPlan:
    """Run the closed loop for one case and return the winning plan.

    ``budget`` caps the number of measured probe runs in the search
    (baseline included; the final plan-verification probe is extra). The
    returned plan's ``tuned_step_seconds`` is never above
    ``baseline_step_seconds``: if neither a probed candidate nor the
    composed per-kernel plan beats the default static schedule, the plan
    degenerates to the baseline schedule (and says so in ``notes``).
    """
    if budget < 1:
        raise ConfigurationError("budget must be >= 1")
    log = log or (lambda msg: None)
    persona = request.base_options.compiler
    spec = request.platform.gpu
    workloads = _case_workloads(request)
    candidates = generate_candidates(
        spec, persona, workloads.values(), persona.default_toolkit
    )

    probes: list[ProbeResult] = []
    pruned: list[str] = []
    for cand in candidates:
        if len(probes) >= budget:
            break
        options = cand.options(request.base_options)
        if cand != BASELINE:
            ok, errors = lint_gate(request, options)
            if not ok:
                pruned.append(f"{cand.label}: {', '.join(errors)}")
                log(f"  pruned {cand.label} ({', '.join(errors)})")
                continue
        result = run_probe(request, options)
        result.candidate = cand
        if not result.success:
            pruned.append(f"{cand.label}: {result.failure}")
            log(f"  failed {cand.label} ({result.failure})")
            continue
        probes.append(result)
        log(
            f"  probed {cand.label}: {result.step_seconds * 1e3:.4g} ms/step"
        )
    if not probes or probes[0].candidate != BASELINE:
        raise ConfigurationError(
            "the baseline probe failed — nothing to tune against"
        )
    baseline = probes[0]
    best = min(probes, key=lambda p: p.step_seconds)

    # compose: per kernel, the candidate that measured fastest for it
    per_kernel: dict[str, tuple[ScheduleCandidate, KernelAggregate]] = {}
    for p in probes:
        for name, obs in p.kernels.items():
            cur = per_kernel.get(name)
            if cur is None or obs.mean_s < cur[1].mean_s:
                per_kernel[name] = (p.candidate, obs)
    composed_entries = _plan_entries(best.candidate, per_kernel, persona)

    notes: list[str] = []
    plan = TuningPlan(
        case=f"{request.physics}-{len(request.shape)}d",
        mode=request.mode,
        platform=request.platform.name,
        compiler=persona.name,
        maxregcount=best.candidate.maxregcount,
        async_kernels=best.candidate.async_kernels,
        kernels=composed_entries,
        baseline_step_seconds=baseline.step_seconds,
        tuned_step_seconds=best.step_seconds,
        transfer_overlap_fraction=best.overlap_fraction,
        probes=len(probes),
        budget=budget,
        pruned=pruned,
        notes=notes,
    )

    # verification probe of the composed plan (extra, outside the budget)
    verify = run_probe(
        request, options_with_plan(request.base_options, plan)
    )
    chosen = best
    if verify.success and verify.step_seconds <= best.step_seconds:
        chosen = verify
        notes.append("composed per-kernel plan verified fastest")
        # refresh observed stats with the verification probe's timeline —
        # it measured the plan exactly as it will be applied
        for name, obs in verify.kernels.items():
            entry = plan.kernels.get(name)
            if entry is not None:
                entry.observed_seconds = obs.mean_s
                entry.occupancy = obs.occupancy
                entry.spilled_regs = obs.spilled_regs
    else:
        # composition lost: fall back to the best single candidate, with
        # every kernel on that candidate's schedule
        uniform = {
            name: (best.candidate, obs) for name, obs in best.kernels.items()
        }
        plan.kernels = _plan_entries(best.candidate, uniform, persona)
        notes.append("composed plan lost verification; kept best candidate")
    plan.tuned_step_seconds = min(chosen.step_seconds, baseline.step_seconds)
    plan.transfer_overlap_fraction = chosen.overlap_fraction
    if chosen.step_seconds > baseline.step_seconds:
        # nothing beat the default schedule: emit the baseline itself
        uniform = {
            name: (BASELINE, obs) for name, obs in baseline.kernels.items()
        }
        plan.kernels = _plan_entries(BASELINE, uniform, persona)
        plan.maxregcount = BASELINE.maxregcount
        plan.async_kernels = BASELINE.async_kernels
        plan.tuned_step_seconds = baseline.step_seconds
        plan.transfer_overlap_fraction = baseline.overlap_fraction
        notes.append("no candidate beat the default schedule; plan is baseline")

    # predicted-vs-observed: the static model's error per kernel
    for name, entry in plan.kernels.items():
        w = workloads.get(name)
        if w is None or entry.observed_seconds is None:
            continue
        entry.predicted_seconds = _predicted_seconds(
            request, persona, w, entry, plan.maxregcount
        )
        if entry.observed_seconds > 0:
            entry.model_error = (
                entry.predicted_seconds - entry.observed_seconds
            ) / entry.observed_seconds
    return plan


# ----------------------------------------------------------------------
# CLI driver: ``python -m repro tune``
# ----------------------------------------------------------------------
def request_for_case(
    case: str,
    mode: str = "rtm",
    platform: Platform = CRAY_K40,
    compiler: CompilerPersona | None = None,
    nt: int = PROBE_NT,
) -> TuneRequest:
    """A :class:`TuneRequest` for a named seed case (``acoustic-2d``,
    ``iso3d`` ... — same grammar as the trace CLI), at the benchmark
    inventory's paper-scale grid shape."""
    from repro.bench.workloads import modeling_case
    from repro.cases import parse_case

    physics, ndim = parse_case(case)
    spec = modeling_case(physics, ndim)
    base = GPUOptions(compiler=compiler if compiler is not None else PGI_14_6)
    return TuneRequest(
        physics=physics,
        shape=spec.shape,
        mode=mode,
        platform=platform,
        base_options=base,
        nt=nt,
        snap_period=PROBE_SNAP,
        nreceivers=min(16, spec.nreceivers),
        pml_variant=spec.pml_variant,
    )


def run_tune_command(args) -> int:
    """``python -m repro tune`` entry point (argparse namespace in)."""
    request = request_for_case(
        args.case, mode=args.mode, compiler=args.compiler, nt=args.nt
    )
    print(
        f"tuning {args.case} ({args.mode}) on {request.platform.name} / "
        f"{request.base_options.compiler.name}, budget {args.budget} probes"
    )
    from repro.observe import (
        ledger_path_from_args, observed_run, plan_fingerprint,
    )

    ledger_path = ledger_path_from_args(args)
    with observed_run(ledger_path, "tune", args.case, args.mode) as record:
        plan = tune_case(request, budget=args.budget, log=print)
        plan.save(args.out)
        print()
        print(plan.summary_text())
        print(f"wrote {args.out}")
        record.metrics = {
            "baseline_step_seconds": plan.baseline_step_seconds,
            "tuned_step_seconds": plan.tuned_step_seconds,
            "improvement": plan.improvement,
            "transfer_overlap_fraction": plan.transfer_overlap_fraction,
            "probes": float(plan.probes),
        }
        record.plan_hash = plan_fingerprint(plan)
    if ledger_path is not None:
        print(f"ledger {ledger_path} (run {record.run_id}, "
              f"plan {record.plan_hash})")
    return 0


__all__ = [
    "PLAN_VERSION",
    "DEFAULT_BUDGET",
    "PROBE_NT",
    "PROBE_SNAP",
    "observed_step_seconds",
    "ScheduleCandidate",
    "BASELINE",
    "generate_candidates",
    "ProbeResult",
    "TuneRequest",
    "run_probe",
    "lint_gate",
    "KernelPlan",
    "TuningPlan",
    "load_plan",
    "options_with_plan",
    "tune_case",
    "request_for_case",
    "run_tune_command",
]
