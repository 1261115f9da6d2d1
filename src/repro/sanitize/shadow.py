"""Shadow coherence state: host/device dirty byte intervals per array.

The sanitizer's ground truth. Every present array gets a
:class:`ShadowArray` holding two interval sets over ``[0, extent)``:

``host_dirty``
    byte ranges the *host* copy changed in (``host_write`` markers, halo
    receives) that no ``update device`` has pushed yet — reading them on
    the device yields stale data;
``dev_dirty``
    byte ranges a device kernel may have written that no ``update host``
    has pulled yet — consuming the host copy there (an MPI send, a
    ``host_read`` marker) yields stale data.

Intervals are half-open ``(lo, hi)`` byte pairs, kept sorted and
coalesced. Arrays whose extent the frontend never learned (a bare
``copyin(u)`` in a script) use :data:`UNKNOWN_EXTENT`; full-extent
operations then cover "everything seen so far", which keeps the checks
conservative without sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: stand-in extent for arrays with no recorded size: large enough that any
#: real offset/byte-count lands inside it
UNKNOWN_EXTENT = 1 << 62

Interval = tuple[int, int]


def normalize(intervals: list[Interval]) -> list[Interval]:
    """Sort, drop empties, and coalesce touching/overlapping intervals."""
    ivs = sorted((int(lo), int(hi)) for lo, hi in intervals if hi > lo)
    out: list[Interval] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def add_interval(intervals: list[Interval], lo: int, hi: int) -> list[Interval]:
    return normalize(intervals + [(lo, hi)])


def subtract_interval(intervals: list[Interval], lo: int, hi: int) -> list[Interval]:
    """Remove ``[lo, hi)`` from every interval."""
    if hi <= lo:
        return list(intervals)
    out: list[Interval] = []
    for a, b in intervals:
        if b <= lo or a >= hi:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if b > hi:
            out.append((hi, b))
    return out


def intersect(intervals: list[Interval], lo: int, hi: int) -> list[Interval]:
    """The parts of ``intervals`` inside ``[lo, hi)``."""
    out: list[Interval] = []
    for a, b in intervals:
        x, y = max(a, lo), min(b, hi)
        if y > x:
            out.append((x, y))
    return out


def total_bytes(intervals: list[Interval]) -> int:
    return sum(hi - lo for lo, hi in intervals)


def describe(intervals: list[Interval], limit: int = 3) -> str:
    """``[0, 4096) + [8192, 12288)`` — the human-readable range list."""
    parts = [f"[{lo}, {hi})" for lo, hi in intervals[:limit]]
    if len(intervals) > limit:
        parts.append(f"... {len(intervals) - limit} more")
    return " + ".join(parts) if parts else "(empty)"


@dataclass
class ShadowArray:
    """Coherence shadow of one present array."""

    name: str
    extent: int = UNKNOWN_EXTENT
    host_dirty: list[Interval] = field(default_factory=list)
    dev_dirty: list[Interval] = field(default_factory=list)

    # ------------------------------------------------------------------
    def _range(self, offset: int, nbytes: int | None) -> Interval:
        lo = max(0, int(offset))
        hi = self.extent if nbytes is None else lo + int(nbytes)
        return lo, min(hi, self.extent)

    # --- host-side mutation / consumption ------------------------------
    def host_write(self, offset: int = 0, nbytes: int | None = None) -> None:
        lo, hi = self._range(offset, nbytes)
        self.host_dirty = add_interval(self.host_dirty, lo, hi)

    def host_stale(
        self, offset: int = 0, nbytes: int | None = None
    ) -> list[Interval]:
        """Device-written ranges a host-copy consumer would read stale."""
        lo, hi = self._range(offset, nbytes)
        return intersect(self.dev_dirty, lo, hi)

    # --- device-side mutation / consumption -----------------------------
    def device_write(self, offset: int = 0, nbytes: int | None = None) -> None:
        lo, hi = self._range(offset, nbytes)
        # kernels re-dirty whole arrays every step; the stored list is
        # normalised, so a range one interval covers leaves it unchanged
        if any(a <= lo and hi <= b for a, b in self.dev_dirty):
            return
        self.dev_dirty = add_interval(self.dev_dirty, lo, hi)

    def device_stale(
        self, offset: int = 0, nbytes: int | None = None
    ) -> list[Interval]:
        """Host-written ranges a device-copy consumer would read stale."""
        lo, hi = self._range(offset, nbytes)
        return intersect(self.host_dirty, lo, hi)

    # --- transfers ------------------------------------------------------
    def update_device(self, offset: int = 0, nbytes: int | None = None) -> None:
        """``update device``: the pushed range is no longer host-dirty; the
        device copy there now reflects the host, so it is not device-dirty
        either (the transfer overwrote any kernel writes in that range)."""
        lo, hi = self._range(offset, nbytes)
        self.host_dirty = subtract_interval(self.host_dirty, lo, hi)
        self.dev_dirty = subtract_interval(self.dev_dirty, lo, hi)

    def update_host(self, offset: int = 0, nbytes: int | None = None) -> None:
        """``update host``: symmetric — the pulled range is coherent."""
        lo, hi = self._range(offset, nbytes)
        self.dev_dirty = subtract_interval(self.dev_dirty, lo, hi)
        self.host_dirty = subtract_interval(self.host_dirty, lo, hi)

    def clean(self) -> bool:
        return not self.host_dirty and not self.dev_dirty

    def copy(self) -> ShadowArray:
        """An independent shadow with the same state. Every mutation
        above replaces an interval list and none edits one in place, so
        the copy shares the current lists."""
        twin = object.__new__(ShadowArray)
        twin.__dict__.update(self.__dict__)
        return twin


__all__ = [
    "ShadowArray",
    "UNKNOWN_EXTENT",
    "normalize",
    "add_interval",
    "subtract_interval",
    "intersect",
    "total_bytes",
    "describe",
]
