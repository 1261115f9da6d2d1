"""The five-step offload schedule of the paper's Figure 4, defined once.

A run is a sequence of :class:`Step` records:

1. ``allocate`` — the forward inventory is copied in;
2. ``forward n`` for ``n = 0 .. nt-1`` — the forward kernels, then a
   snapshot to the host when ``(n + 1) % snap_period == 0``;
3. ``swap`` (RTM only) — the modeling data leaves, the backward data and
   the image arrive;
4. ``backward n`` for ``n = nt-1 .. 0`` (RTM only) — on a snapshot step
   the stored forward wavefield is reloaded and imaged first, then the
   backward kernels run;
5. ``finalize`` — the image comes home (RTM) and the card is emptied.

Each step runs a few *actions* from the eight-phase vocabulary of
:data:`PHASE_ORDER`, and :meth:`~repro.core.pipeline.OffloadPipeline.
perform` maps one action onto its phase method. Every driver is a thin
interpreter of this sequence: the estimate loop, the segmented recording
and compiled run of :mod:`repro.compile`, the per-rank fan-out of
:class:`~repro.core.multigpu.MultiGpuPipeline`, the executed shot of
:mod:`repro.core.shot` and the guarded runs of :mod:`repro.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterator, NamedTuple

from repro.utils.errors import ConfigurationError

MODES = ("modeling", "rtm")

#: the eight phase actions, in schedule order
PHASE_ORDER = (
    "allocate", "forward", "snapshot", "swap", "load_snapshot", "imaging",
    "backward", "finalize",
)
#: actions that recur every step or snapshot; a compiled schedule needs
#: each one's recorded slices to be steady-state
REPEATED_PHASES = ("forward", "snapshot", "load_snapshot", "imaging", "backward")
#: the :class:`~repro.core.pipeline.OffloadPipeline` method behind each
#: action (also the label the recovery layer guards it under)
PHASE_METHOD = {
    "allocate": "allocate_forward",
    "forward": "forward_step",
    "snapshot": "snapshot_to_host",
    "swap": "swap_to_backward",
    "load_snapshot": "load_forward_snapshot",
    "imaging": "imaging_step",
    "backward": "backward_step",
    "finalize": "finalize",
}
#: which one-shot prologue a hoisted update lands in, per source action
PROLOGUE_OF = {
    "forward": "forward_prologue",
    "snapshot": "forward_prologue",
    "load_snapshot": "backward_prologue",
    "imaging": "backward_prologue",
    "backward": "backward_prologue",
}
#: the residency-building action each prologue runs right after
PROLOGUE_GATE = {"forward_prologue": "allocate", "backward_prologue": "swap"}
#: steps that build device residency: a device OOM there fails the run
#: (the paper's ``x`` table entries) instead of propagating
RESIDENCY_STEPS = ("allocate", "swap")


class Step(NamedTuple):
    """One Figure-4 step: its own action ``kind`` between the ``pre`` and
    ``post`` actions. ``n`` is the time index of a forward/backward step,
    ``decimate`` the snapshot decimation, and ``image`` marks the RTM
    finalize that brings the image home."""

    kind: str
    n: int | None = None
    pre: tuple[str, ...] = ()
    post: tuple[str, ...] = ()
    decimate: int = 1
    image: bool = False

    @property
    def actions(self) -> tuple[str, ...]:
        """Every action of the step, in order."""
        return (*self.pre, self.kind, *self.post)

    @property
    def snap(self) -> bool:
        """Whether this time step saves (forward) or images (backward) a
        snapshot."""
        return bool(self.pre or self.post)


@dataclass(frozen=True)
class Schedule:
    """One run's schedule: iterate it for its :class:`Step` sequence."""

    mode: str
    nt: int
    snap_period: int
    snapshot_decimate: int = 4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be 'modeling' or 'rtm', not '{self.mode}'"
            )

    @property
    def decimate(self) -> int:
        """Snapshot decimation: RTM images against full fields, modeling
        keeps a decimated display movie."""
        return 1 if self.mode == "rtm" else self.snapshot_decimate

    def is_snap(self, n: int) -> bool:
        """Whether step ``n`` (0-based) takes a snapshot; the first one
        lands on step ``snap_period - 1``."""
        return (n + 1) % self.snap_period == 0

    def known_failure(self, compiler, physics: str, ndim: int) -> bool:
        """Whether the compiler persona cannot build this case (the
        paper's CRAY elastic 3-D RTM)."""
        tag = f"{physics}-{ndim}d-{self.mode}"
        return tag in getattr(compiler, "known_failures", ())

    def __iter__(self) -> Iterator[Step]:
        yield Step("allocate")
        for n in range(self.nt):
            post = ("snapshot",) if self.is_snap(n) else ()
            yield Step("forward", n, post=post, decimate=self.decimate)
        if self.mode == "rtm":
            yield Step("swap")
            for n in range(self.nt - 1, -1, -1):
                pre = ("load_snapshot", "imaging") if self.is_snap(n) else ()
                yield Step("backward", n, pre=pre)
        yield Step("finalize", image=self.mode == "rtm")

    def phases(self) -> Iterator[tuple[str, list[Step]]]:
        """The steps grouped into the five Figure-4 phases, in order."""
        for kind, steps in groupby(self, key=lambda s: s.kind):
            yield kind, list(steps)


def rewindable(steps: list[Step], attempt: Callable[[int, Step], int]) -> None:
    """Drive ``steps`` through ``attempt(i, step)``, which returns the
    index to go on from: ``i + 1`` once the step is done, or an earlier
    index to replay from (a checkpoint restart)."""
    i = 0
    while i < len(steps):
        i = attempt(i, steps[i])


__all__ = [
    "MODES",
    "PHASE_ORDER",
    "REPEATED_PHASES",
    "PHASE_METHOD",
    "PROLOGUE_OF",
    "PROLOGUE_GATE",
    "RESIDENCY_STEPS",
    "Step",
    "Schedule",
    "rewindable",
]
