"""Execution profiler for the simulated device.

Aggregates kernel and memcpy events as the device timeline runs them and
renders the grouped time-share tables the paper reads off the Nvidia Visual
Profiler (its Figures 11, 14 and 15 — e.g. ``73.4% [8502]
kernel_2d_139_gpu / 26.2% [408096] sample_put_real_118 / 0.4% [4251]
sample_put_real_98``).

The profiler keeps running totals, not an event list: a repeated step is
replayed from its priced-op tape (:meth:`~repro.gpusim.device.Device.
run_ops`) rather than re-derived launch by launch, so there is no per-launch
record to keep. Every total is a left fold in event order
(:func:`~repro.utils.fold.left_sum` semantics), so a report is the same
bits on every Python version. Consumers that want each event subscribe a
sink on the device (:meth:`~repro.gpusim.device.Device.add_sink`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.fold import left_sum
from repro.utils.units import bytes_to_human, seconds_to_human


@dataclass(frozen=True)
class ProfileEvent:
    """One timeline entry (timestamps in simulated seconds)."""

    kind: str  # 'kernel' | 'h2d' | 'd2h'
    name: str
    start: float
    end: float
    nbytes: int = 0
    queue: int | None = None
    #: modelled achieved occupancy of a kernel launch (None for copies and
    #: for events produced before the launch was modelled)
    occupancy: float | None = None
    #: hard-spilled registers/thread of a kernel launch (None for copies)
    spilled_regs: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class KernelLine:
    """Aggregated row of the compute section of a profile report."""

    name: str
    count: int
    total_seconds: float
    share: float  # of total compute time


@dataclass
class ProfileReport:
    """Grouped view over one run's events."""

    kernels: list[KernelLine]
    memcpy_h2d_seconds: float
    memcpy_d2h_seconds: float
    memcpy_h2d_bytes: int
    memcpy_d2h_bytes: int
    compute_seconds: float
    span_seconds: float

    def kernel_share(self, name_prefix: str) -> float:
        """Combined compute-time share of kernels whose name starts with
        ``name_prefix`` (0..1)."""
        return left_sum(
            k.share for k in self.kernels if k.name.startswith(name_prefix)
        )

    def to_text(self) -> str:
        """Render in the style of the paper's profiler figures."""
        lines = ["Compute:"]
        if not self.kernels:
            lines.append("  (no kernels launched)")
        for k in sorted(self.kernels, key=lambda k: k.share, reverse=True):
            share = 100 * k.share if self.compute_seconds > 0 else 0.0
            lines.append(
                f"  {share:5.1f}% [{k.count}] {k.name}"
            )
        lines.append(
            f"MemCpy (HtoD): {seconds_to_human(self.memcpy_h2d_seconds)} "
            f"({bytes_to_human(self.memcpy_h2d_bytes)})"
        )
        lines.append(
            f"MemCpy (DtoH): {seconds_to_human(self.memcpy_d2h_seconds)} "
            f"({bytes_to_human(self.memcpy_d2h_bytes)})"
        )
        lines.append(f"Total span: {seconds_to_human(self.span_seconds)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable report (the ``python -m repro json`` path)."""
        return {
            "kernels": [
                {
                    "name": k.name,
                    "count": k.count,
                    "total_seconds": k.total_seconds,
                    "share": k.share,
                }
                for k in sorted(self.kernels, key=lambda k: k.share, reverse=True)
            ],
            "memcpy_h2d_seconds": self.memcpy_h2d_seconds,
            "memcpy_d2h_seconds": self.memcpy_d2h_seconds,
            "memcpy_h2d_bytes": self.memcpy_h2d_bytes,
            "memcpy_d2h_bytes": self.memcpy_d2h_bytes,
            "compute_seconds": self.compute_seconds,
            "span_seconds": self.span_seconds,
        }


@dataclass
class Profiler:
    """Running per-kernel and per-direction totals; always on.

    ``kernels`` maps each kernel name, in first-seen order, to its
    ``[launches, total seconds]``; the copy totals and the earliest start
    and latest end cover every event. Each is folded left in event order.
    """

    kernels: dict[str, list] = field(default_factory=dict)
    h2d_seconds: float = 0.0
    h2d_bytes: int = 0
    d2h_seconds: float = 0.0
    d2h_bytes: int = 0
    first_start: float = float("inf")
    last_end: float = 0.0

    def fold(self, kind: str, name: str, start: float, end: float, nbytes: int) -> None:
        """Fold one timeline entry into the totals (the device timeline's
        path, op by op)."""
        duration = end - start
        if kind == "kernel":
            line = self.kernels.get(name)
            if line is None:
                self.kernels[name] = [1, duration]
            else:
                line[0] += 1
                line[1] += duration
        elif kind == "h2d":
            self.h2d_seconds += duration
            self.h2d_bytes += nbytes
        elif kind == "d2h":
            self.d2h_seconds += duration
            self.d2h_bytes += nbytes
        if start < self.first_start:
            self.first_start = start
        if end > self.last_end:
            self.last_end = end

    @property
    def launches(self) -> int:
        """Kernel launches folded so far, over every kernel name."""
        return sum(count for count, _ in self.kernels.values())

    def clear(self) -> None:
        self.kernels = {}
        self.h2d_seconds = self.d2h_seconds = 0.0
        self.h2d_bytes = self.d2h_bytes = 0
        self.first_start = float("inf")
        self.last_end = 0.0

    # ------------------------------------------------------------------
    def report(self) -> ProfileReport:
        """The grouped view of everything folded so far."""
        compute = left_sum(total for _, total in self.kernels.values())
        kernels = [
            KernelLine(
                name=name,
                count=count,
                total_seconds=total,
                share=(total / compute) if compute > 0 else 0.0,
            )
            for name, (count, total) in self.kernels.items()
        ]
        kernels.sort(key=lambda k: k.total_seconds, reverse=True)
        seen = self.first_start != float("inf")
        return ProfileReport(
            kernels=kernels,
            memcpy_h2d_seconds=self.h2d_seconds,
            memcpy_d2h_seconds=self.d2h_seconds,
            memcpy_h2d_bytes=self.h2d_bytes,
            memcpy_d2h_bytes=self.d2h_bytes,
            compute_seconds=compute,
            span_seconds=(self.last_end - self.first_start) if seen else 0.0,
        )
