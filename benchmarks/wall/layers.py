"""Outside-in per-layer wall-clock attribution for the traced run.

:func:`install` wraps each layer's public functions with a timing shim —
on the class for methods, and under every name a ``repro`` module binds a
function to (``from x import f`` copies the reference, so the caller's
name is patched too). A span stack turns nested spans into self time per
``(layer, op)``: a span's duration minus the part its child spans cover.
:func:`uninstall` puts every original object back. Nothing in the library
is edited; the shims exist only inside the traced child process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import sys
import time
from collections import defaultdict

_RUNTIME = "repro.acc.runtime:Runtime."
_PIPELINE = "repro.core.pipeline:OffloadPipeline."

#: (layer, op, target); a target is ``module:function`` or
#: ``module:Class.method`` (the method and every subclass override)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("gpusim", "launch", "repro.gpusim.device:Device.launch"),
    ("gpusim", "transfer", "repro.gpusim.device:Device.h2d"),
    ("gpusim", "transfer", "repro.gpusim.device:Device.d2h"),
    ("gpusim", "memory", "repro.gpusim.device:Device.allocate"),
    ("gpusim", "memory", "repro.gpusim.device:Device.release"),
    ("gpusim", "estimate", "repro.gpusim.kernelmodel:estimate_kernel_time"),
    ("gpusim", "occupancy", "repro.gpusim.occupancy:occupancy"),
    *(
        ("acc", "directive", _RUNTIME + m)
        for m in ("compute", "kernels", "parallel", "enter_data", "exit_data",
                  "update_host", "update_device", "wait")
    ),
    ("acc", "lower", "repro.acc.compiler:CompilerPersona.lower"),
    ("core", "step", _PIPELINE + "forward_step"),
    ("core", "step", _PIPELINE + "backward_step"),
    *(
        ("core", "phase", _PIPELINE + m)
        for m in ("allocate_forward", "snapshot_to_host", "swap_to_backward",
                  "load_forward_snapshot", "imaging_step", "finalize")
    ),
    ("core", "entry", "repro.core.modeling:estimate_modeling"),
    ("core", "entry", "repro.core.rtm:estimate_rtm"),
    ("core", "entry", "repro.core.rtm:run_rtm"),
    ("core", "entry", "repro.core.pipeline:run_pipeline_modeling"),
    ("core", "entry", "repro.core.pipeline:run_pipeline_rtm"),
    *(
        ("core", "imaging", "repro.core.imaging:" + f)
        for f in ("cross_correlation_update", "illumination_update",
                  "normalize_image", "mute_shallow")
    ),
    ("propagators", "step", "repro.propagators.base:Propagator.step"),
    ("propagators", "inject", "repro.propagators.base:Propagator.inject_pressure"),
    *(
        ("stencil", "call", "repro.stencil.operators:" + f)
        for f in ("second_derivative", "laplacian", "staggered_diff_forward",
                  "staggered_diff_backward")
    ),
    ("boundary", "damp", "repro.boundary.cpml:CPML.damp"),
    ("resilience", "shot", "repro.resilience.recovery:ResilientPipeline.run_rtm"),
    ("resilience", "checkpoint", "repro.resilience.recovery:CheckpointStore.save"),
    ("resilience", "checkpoint", "repro.resilience.recovery:CheckpointStore.load"),
    ("resilience", "note", "repro.resilience.recovery:RecoveryStats.note"),
    ("serve", "scheduler", "repro.serve.service:SurveyScheduler.run"),
    ("serve", "scheduler", "repro.serve.service:SurveyScheduler.submit_survey"),
    ("serve", "queue", "repro.serve.queue:ShotQueue.push"),
    ("serve", "queue", "repro.serve.queue:ShotQueue.pop_eligible"),
    ("serve", "requeue", "repro.serve.queue:ShotQueue.requeue"),
    ("serve", "cache", "repro.serve.cache:ResultCache.lookup"),
    ("serve", "cache", "repro.serve.cache:ResultCache.store"),
    ("compile", "compile_case", "repro.compile.compiler:compile_case"),
    ("compile", "record", "repro.compile.compiler:record_segments"),
    ("compile", "select", "repro.compile.compiler:select_opportunities"),
    ("compile", "lower", "repro.compile.lower:lower_events"),
    ("compile", "bind", "repro.compile.lower:bind_ops"),
    ("compile", "run", "repro.compile.compiler:BoundPipeline.run"),
    ("compile", "bound_step", "repro.compile.lower:BoundStep.__call__"),
    ("analyze", "find", "repro.analyze.dataflow.opportunities:find_opportunities"),
    ("analyze", "verify", "repro.analyze.dataflow.opportunities:verify_opportunity"),
    ("analyze", "apply", "repro.analyze.dataflow.opportunities:apply_opportunity"),
    ("analyze", "program_add", "repro.analyze.program:DirectiveProgram.add"),
    ("analyze", "validate", "repro.compile.validate:validate_compiled"),
    ("analyze", "capacity", "repro.analyze.capacity:prove_capacity"),
    ("sanitize", "replay", "repro.sanitize.session:SanitizeSession.replay"),
    ("trace", "span", "repro.trace.tracer:Tracer.span"),
    ("observe", "event", "repro.observe.runlog:emit"),
    ("observe", "event", "repro.observe.runlog:count"),
    ("bench", "call", "repro.bench.table3:table3_row"),
    ("bench", "call", "repro.bench.table4:table4_row"),
    *(
        ("bench", "call", "repro.bench.figures:" + f)
        for f in ("fig6_fig7_iso_variants", "fig8_fig9_acoustic_constructs",
                  "fig10_register_sweep", "fig11_async", "fig12_fission",
                  "fig13_coalescing", "fig14_fig15_profiles")
    ),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: spans kept for the Chrome trace; later ones are only counted
SPAN_CAP = 50_000
#: ops whose every span duration is kept, for percentiles
_KEEP_DURATIONS = (("propagators", "step"), ("resilience", "shot"))

#: the per-layer metrics a traced rep reports, with units. The rate
#: metrics (``*_per_s``), ``traced_wall_s`` and ``tracing_overhead`` need
#: the untraced reps too, so run.py derives them.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("gpusim.launch.count", "count"),
    ("gpusim.launch.self_us", "us"),
    ("gpusim.transfer.count", "count"),
    ("gpusim.launches_per_s", "1/s"),
    ("gpusim.estimate.unique_ratio", "ratio"),
    ("acc.directive.count", "count"),
    ("acc.directive.self_us", "us"),
    ("acc.lower.count", "count"),
    ("core.step.count", "count"),
    ("core.step.self_us", "us"),
    ("core.imaging.self_s", "s"),
    ("propagators.step.count", "count"),
    ("propagators.step.p50_us", "us"),
    ("propagators.step.p99_us", "us"),
    ("propagators.mcell_steps_per_s", "Mcell/s"),
    ("stencil.call.count", "count"),
    ("resilience.shot.count", "count"),
    ("resilience.shot.p50_ms", "ms"),
    ("resilience.shot.p75_ms", "ms"),
    ("resilience.checkpoint.count", "count"),
    ("resilience.retry.count", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.requeue.count", "count"),
    ("compile.applied_ratio", "ratio"),
    ("compile.bound_step.self_us", "us"),
    ("analyze.program_add.count", "count"),
    ("analyze.verified_ratio", "ratio"),
    ("sanitize.replay.count", "count"),
    ("trace.span.count", "count"),
    ("observe.event.count", "count"),
    ("bench.call.count", "count"),
    ("traced_wall_s", "s"),
    ("tracing_overhead", "ratio"),
    ("unattributed_s", "s"),
)


class Recorder:
    """In-memory span stack, self times, call counts and layer counters."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.durations = {key: [] for key in _KEEP_DURATIONS}
        self.counters: dict[str, float] = defaultdict(float)
        self.estimate_keys: set[int] = set()
        self.spans: list[tuple[tuple[str, str], float, float]] = []
        self.dropped_spans = 0
        self.origin = time.perf_counter()

    def call(self, key, fn, args, kwargs, count=True):
        """Run ``fn`` as one span of ``key`` (``count=False``: time it
        without counting a call, for the two halves of a ``with``)."""
        frame = [0.0]
        stack = self.stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            self.self_s[key] += dt - frame[0]
            if count:
                self.calls[key] += 1
            kept = self.durations.get(key)
            if kept is not None:
                kept.append(dt)
            if len(self.spans) < SPAN_CAP:
                self.spans.append((key, t0, dt))
            else:
                self.dropped_spans += 1

    # ------------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), s in self.self_s.items():
            out[layer] += s
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced rep whose timed call took
        ``wall_s``; also the raw counts run.py turns into rates."""
        calls, self_s, c = self.calls, self.self_s, self.counters

        def per_call_us(key):
            return 1e6 * self_s[key] / calls[key] if calls[key] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        layer_self = self.layer_self_s()
        out = {f"{layer}.self_s": s for layer, s in layer_self.items()}
        steps = sorted(self.durations[("propagators", "step")])
        shots = sorted(self.durations[("resilience", "shot")])
        estimates = calls[("gpusim", "estimate")]
        out.update({
            "gpusim.launch.count": calls[("gpusim", "launch")],
            "gpusim.launch.self_us": per_call_us(("gpusim", "launch")),
            "gpusim.transfer.count": calls[("gpusim", "transfer")],
            "gpusim.estimate.unique_ratio": ratio(len(self.estimate_keys), estimates),
            "acc.directive.count": calls[("acc", "directive")],
            "acc.directive.self_us": per_call_us(("acc", "directive")),
            "acc.lower.count": calls[("acc", "lower")],
            "core.step.count": calls[("core", "step")],
            "core.step.self_us": per_call_us(("core", "step")),
            "core.imaging.self_s": self_s[("core", "imaging")],
            "propagators.step.count": calls[("propagators", "step")],
            "propagators.step.p50_us": 1e6 * nearest_rank(steps, 0.50),
            "propagators.step.p99_us": 1e6 * nearest_rank(steps, 0.99),
            "stencil.call.count": calls[("stencil", "call")],
            "resilience.shot.count": calls[("resilience", "shot")],
            "resilience.shot.p50_ms": 1e3 * nearest_rank(shots, 0.50),
            "resilience.shot.p75_ms": 1e3 * nearest_rank(shots, 0.75),
            "resilience.checkpoint.count": calls[("resilience", "checkpoint")],
            "resilience.retry.count": c["retries"],
            "serve.cache.hit_ratio": ratio(c["cache_hits"], c["cache_lookups"]),
            "serve.requeue.count": calls[("serve", "requeue")],
            "compile.applied_ratio": ratio(c["applied"], c["candidates"]),
            "compile.bound_step.self_us": per_call_us(("compile", "bound_step")),
            "analyze.program_add.count": calls[("analyze", "program_add")],
            "analyze.verified_ratio": ratio(c["verified"], c["opportunities"]),
            "sanitize.replay.count": calls[("sanitize", "replay")],
            "trace.span.count": calls[("trace", "span")],
            "observe.event.count": calls[("observe", "event")],
            "bench.call.count": calls[("bench", "call")],
            "unattributed_s": wall_s - sum(layer_self.values()),
            # raw work counts for the rates run.py derives
            "cells_stepped": c["cells_stepped"],
        })
        return out

    def write_chrome_trace(self, path) -> None:
        """The kept spans as Chrome trace-event JSON (chrome://tracing,
        Perfetto): one complete event per span, microsecond timestamps."""
        events = [
            {
                "name": op, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": 1e6 * (t0 - self.origin), "dur": 1e6 * dt,
            }
            for (layer, op), t0, dt in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped_spans},
            }, fh)


def nearest_rank(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# ----------------------------------------------------------------------
# counters read off arguments and results (traced run only)
# ----------------------------------------------------------------------
def _count_estimate(rec, args, kwargs, result):
    rec.estimate_keys.add(hash(repr((args, sorted(kwargs.items())))))


def _count_cells(rec, args, kwargs, result):
    rec.counters["cells_stepped"] += math.prod(args[0].grid.shape)


def _count_retry(rec, args, kwargs, result):
    kind = kwargs.get("kind", args[2] if len(args) > 2 else "action")
    if kind == "retry":
        rec.counters["retries"] += 1


def _count_lookup(rec, args, kwargs, result):
    rec.counters["cache_lookups"] += 1
    if result is not None:
        rec.counters["cache_hits"] += 1


def _count_applied(rec, args, kwargs, result):
    rec.counters["applied"] += len(result.applied)
    rec.counters["candidates"] += len(result.applied) + len(result.skipped)


def _count_verified(rec, args, kwargs, result):
    rec.counters["verified"] += len(result.verified())
    rec.counters["opportunities"] += len(result.opportunities)


_HOOKS = {
    "repro.gpusim.kernelmodel:estimate_kernel_time": _count_estimate,
    "repro.propagators.base:Propagator.step": _count_cells,
    "repro.resilience.recovery:RecoveryStats.note": _count_retry,
    "repro.serve.cache:ResultCache.lookup": _count_lookup,
    "repro.compile.compiler:compile_case": _count_applied,
    "repro.analyze.dataflow.opportunities:find_opportunities": _count_verified,
}


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------
class _TimedContext:
    """Times both halves of a context manager as spans of one key, so a
    ``with tracer.span(...)`` costs what the null path really costs."""

    __slots__ = ("rec", "key", "cm")

    def __init__(self, rec, key, cm):
        self.rec, self.key, self.cm = rec, key, cm

    def __enter__(self):
        return self.rec.call(self.key, self.cm.__enter__, (), {}, count=False)

    def __exit__(self, *exc):
        return self.rec.call(self.key, self.cm.__exit__, exc, {}, count=False)


def _shim(rec: Recorder, key, fn, hook, context: bool):
    call = rec.call
    if context:
        def shim(*args, **kwargs):
            return _TimedContext(rec, key, call(key, fn, args, kwargs))
    elif hook is None:
        def shim(*args, **kwargs):
            return call(key, fn, args, kwargs)
    else:
        def shim(*args, **kwargs):
            result = call(key, fn, args, kwargs)
            hook(rec, args, kwargs, result)
            return result
    shim = functools.wraps(fn)(shim)
    shim.__wall_shim__ = True
    return shim


def _import_all() -> None:
    """Import every ``repro`` module first, so every alias of a target
    exists before patching (a module imported later would copy a shim)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


Patch = tuple[object, str, object]


def install(rec: Recorder) -> list[Patch]:
    """Wrap every target; returns the ``(owner, name, original)`` patches
    :func:`uninstall` reverts."""
    _import_all()
    aliases: dict[int, list[tuple[object, str]]] = defaultdict(list)
    for module in _repro_modules():
        for name, value in vars(module).items():
            if inspect.isfunction(value):
                aliases[id(value)].append((module, name))
    patches: list[Patch] = []
    try:
        for layer, op, target in TARGETS:
            modname, _, qual = target.partition(":")
            owner = importlib.import_module(modname)
            hook = _HOOKS.get(target)
            context = target == "repro.trace.tracer:Tracer.span"
            if "." in qual:
                clsname, method = qual.split(".")
                sites = [
                    (cls, method, cls.__dict__[method])
                    for cls in dict.fromkeys(_subclasses(getattr(owner, clsname)))
                    if method in cls.__dict__
                ]
            else:
                original = getattr(owner, qual)
                sites = [(m, name, original) for m, name in aliases[id(original)]]
            for site_owner, name, original in sites:
                if not inspect.isfunction(original):
                    raise TypeError(f"{target}: {name} is not a plain function")
                shim = _shim(rec, (layer, op), original, hook, context)
                setattr(site_owner, name, shim)
                patches.append((site_owner, name, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list[Patch]) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def find_shims() -> list[str]:
    """Every ``repro`` module or class attribute that is still a shim."""
    left = []
    for module in _repro_modules():
        for name, value in vars(module).items():
            if getattr(value, "__wall_shim__", False):
                left.append(f"{module.__name__}.{name}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                left.extend(
                    f"{module.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if getattr(member, "__wall_shim__", False)
                )
    return left
