"""Thread-safe metrics: counters, gauges and histograms.

The registry is the quantitative side of :mod:`repro.trace` — where the
:class:`~repro.trace.tracer.Tracer` answers *when* (spans on a timeline),
the registry answers *how much*: bytes moved over PCIe, kernel launches,
achieved occupancy, halo-exchange volume, snapshot traffic. Instrumented
subsystems bump named instruments; exporters snapshot the registry next to
the event stream.

All instruments share one lock (contention is negligible at the rates the
simulators produce) so cross-instrument snapshots are consistent. A
disabled registry (the one a disabled tracer carries) hands out one
instrument that accepts every update and keeps nothing.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.utils.units import bytes_to_human


class Counter:
    """Monotonically increasing count (messages, launches, bytes)."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter '{self.name}' cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-set value plus the high-water mark (resident bytes, queue depth)."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._max = max(self._max, self._value)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        return self._max


class Histogram:
    """Streaming summary of observed samples (kernel times, occupancy)."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": None, "max": None, "mean": None}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class _Discard:
    """The instrument of a disabled registry: every update is dropped."""

    def add(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_DISCARD = _Discard()


class MetricsRegistry:
    """Create-or-get access to named instruments.

    Instrument names are namespaced by convention (``gpu.kernel_launches``,
    ``halo.bytes``, ``pipeline.snapshot_bytes``); an instrument is created on
    first use, so consumers can snapshot without pre-registration. With
    ``enabled=False`` every instrument discards its updates and the
    registry stays empty.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _DISCARD
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name, self._lock)
        return inst

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _DISCARD
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name, self._lock)
        return inst

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _DISCARD
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, self._lock)
        return inst

    # ------------------------------------------------------------------
    def absorb(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Merge ``other``'s instruments into this registry under
        ``prefix``-renamed instrument names (``"rank0:halo.bytes"``).

        Counters add; gauges keep the merged-in last value and the max of
        both high-water marks; histograms fold count/total/min/max (the
        streaming summary is associative, so the merge is exact)."""
        if not self.enabled:
            return
        snap = other.snapshot()
        for name, value in snap["counters"].items():
            self.counter(f"{prefix}{name}").add(value)
        for name, g in snap["gauges"].items():
            gauge = self.gauge(f"{prefix}{name}")
            gauge.set(g["max"])
            gauge.set(g["value"])
        for name, h in snap["histograms"].items():
            if h["count"] == 0:
                continue
            hist = self.histogram(f"{prefix}{name}")
            with self._lock:
                hist.count += h["count"]
                hist.total += h["total"]
                hist.min = min(hist.min, h["min"])
                hist.max = max(hist.max, h["max"])

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[str]:
        yield from sorted({*self._counters, *self._gauges, *self._histograms})

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> dict:
        """One consistent, JSON-friendly view of every instrument."""
        with self._lock:
            return {
                "counters": {n: c._value for n, c in sorted(self._counters.items())},
                "gauges": {
                    n: {"value": g._value, "max": g._max}
                    for n, g in sorted(self._gauges.items())
                },
                "histograms": {
                    n: h.summary() for n, h in sorted(self._histograms.items())
                },
            }

    def to_text(self) -> str:
        """Render the registry as an aligned summary table."""
        snap = self.snapshot()
        lines = ["Metrics:"]
        for name, value in snap["counters"].items():
            shown = (
                bytes_to_human(int(value)) if name.endswith(("bytes", "_bytes"))
                else f"{value:g}"
            )
            lines.append(f"  {name:<32} {shown}")
        for name, g in snap["gauges"].items():
            lines.append(f"  {name:<32} {g['value']:g} (max {g['max']:g})")
        for name, h in snap["histograms"].items():
            if h["count"] == 0:
                continue
            lines.append(
                f"  {name:<32} n={h['count']} mean={h['mean']:.4g} "
                f"min={h['min']:.4g} max={h['max']:.4g}"
            )
        if len(lines) == 1:
            lines.append("  (none)")
        return "\n".join(lines)


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]
