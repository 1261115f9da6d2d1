"""Snapshot management (the paper's ``snap_period`` machinery).

In Algorithm 1 the forward phase saves the source wavefield every
``snap_period`` steps; RTM's backward phase reads them back to apply the
imaging condition. "The snap_period value depends on the maximum frequency
used in the attached velocity model" — sampling the wavefield at (at least)
the Nyquist rate of the wavelet's effective maximum frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.errors import ConfigurationError


def default_snap_period(dt: float, peak_freq: float) -> int:
    """Steps between snapshots: sample at 4x the effective maximum
    frequency (2.5x the Ricker peak), floored at 1."""
    if dt <= 0 or peak_freq <= 0:
        raise ConfigurationError("dt and peak_freq must be positive")
    f_max = 2.5 * peak_freq
    period = int(np.floor(1.0 / (4.0 * f_max * dt)))
    return max(1, period)


@dataclass
class SnapshotStore:
    """Host-side storage of forward-phase snapshots.

    ``decimate`` keeps every ``decimate``-th point per axis (the modeling
    driver's display movie); RTM stores full fields (``decimate=1``) because
    the imaging condition needs them exactly.
    """

    snap_period: int
    decimate: int = 1
    _frames: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.snap_period < 1:
            raise ConfigurationError("snap_period must be >= 1")
        if self.decimate < 1:
            raise ConfigurationError("decimate must be >= 1")

    # ------------------------------------------------------------------
    def save(self, step: int, wavefield: np.ndarray) -> None:
        """Store the (possibly decimated) wavefield for ``step``."""
        d = self.decimate
        view = wavefield[(slice(None, None, d),) * wavefield.ndim]
        self._frames[step] = np.array(view, copy=True)

    def load(self, step: int) -> np.ndarray:
        frame = self._frames.get(step)
        if frame is None:
            raise ConfigurationError(f"no snapshot stored for step {step}")
        return frame

    def has(self, step: int) -> bool:
        return step in self._frames

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._frames)

    @property
    def steps(self) -> list[int]:
        return sorted(self._frames)

    def frames(self) -> list[np.ndarray]:
        """Frames in time order (the modeling movie)."""
        return [self._frames[s] for s in self.steps]

    def nbytes(self) -> int:
        return sum(f.nbytes for f in self._frames.values())

    def clear(self) -> None:
        self._frames.clear()
