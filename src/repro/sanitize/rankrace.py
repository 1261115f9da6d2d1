"""Cross-rank happens-before graph over async queues and mpisim messages.

Extends the per-queue vector clocks of
:mod:`repro.analyze.async_race` across ranks: clock components are
``(rank, queue)`` pairs, each rank's host thread carries its own clock,
and MPI messages add edges — a send snapshots the sender's host clock
into the ``(src, dst, tag)`` channel, the matching receive joins it into
the receiver's host clock (the standard Fidge/Mattern message rule).

The sanitizer asks one question of this graph: *has the host thread of
rank R observed the completion of async operation T on queue (R, q)?* —
i.e. was there a ``wait``/``wait(q)`` between the asynchronous
``update host`` that fills a halo buffer and the MPI send that reads it.
An unordered pair is the cross-rank race the paper's async halo overlap
can introduce (:mod:`repro.sanitize` flags it as
``halo-send-before-sync``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

#: a clock component: (rank, queue) for async queues
ClockKey = tuple[int, int]


@dataclass(frozen=True)
class PendingOp:
    """One asynchronous operation not yet known to be synchronized."""

    key: ClockKey
    tick: int
    lo: int
    hi: int
    event_index: int
    queue: int
    label: str | None = None


@dataclass
class RankClocks:
    """Vector clocks for every rank's host thread + async queue tracks."""

    #: per-rank host clock: rank -> {ClockKey: tick}
    host: dict[int, dict[ClockKey, int]] = field(default_factory=dict)
    #: latest tick issued per (rank, queue)
    queue_tick: dict[ClockKey, int] = field(default_factory=dict)
    #: in-flight message clock snapshots per (src, dst, tag) channel
    channels: dict[tuple[int, int, int], deque] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def copy(self) -> RankClocks:
        """Independent clocks with the same state. The message snapshots
        queued on a channel are never edited, so the copy shares them."""
        return RankClocks(
            host={rank: dict(clock) for rank, clock in self.host.items()},
            queue_tick=dict(self.queue_tick),
            channels={k: deque(q) for k, q in self.channels.items()},
        )

    def _host(self, rank: int) -> dict[ClockKey, int]:
        return self.host.setdefault(rank, {})

    @staticmethod
    def _merge(dst: dict[ClockKey, int], src: dict[ClockKey, int]) -> None:
        for k, v in src.items():
            if dst.get(k, 0) < v:
                dst[k] = v

    # ------------------------------------------------------------------
    def async_op(self, rank: int, queue: int) -> tuple[ClockKey, int]:
        """A new asynchronous operation enqueued on ``(rank, queue)``;
        returns its clock component and tick."""
        key = (int(rank), int(queue))
        tick = self.queue_tick.get(key, 0) + 1
        self.queue_tick[key] = tick
        return key, tick

    def wait(self, rank: int, queue: int | None = None) -> None:
        """``acc wait`` on ``rank``: the host joins the named queue (or all
        of the rank's queues when None)."""
        hc = self._host(rank)
        for (r, q), tick in self.queue_tick.items():
            if r != rank:
                continue
            if queue is not None and q != int(queue):
                continue
            if hc.get((r, q), 0) < tick:
                hc[(r, q)] = tick

    def ordered(self, rank: int, key: ClockKey, tick: int) -> bool:
        """Whether rank's host has observed async op ``(key, tick)``."""
        return self._host(rank).get(key, 0) >= tick

    # ------------------------------------------------------------------
    # message edges
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, tag: int = 0) -> None:
        self.channels.setdefault((src, dst, int(tag)), deque()).append(
            dict(self._host(src))
        )

    def recv(self, dst: int, src: int, tag: int = 0) -> None:
        chan = self.channels.get((src, dst, int(tag)))
        if chan:
            self._merge(self._host(dst), chan.popleft())


__all__ = ["RankClocks", "PendingOp", "ClockKey"]
