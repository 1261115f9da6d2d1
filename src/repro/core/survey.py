"""Multi-shot surveys: the full imaging condition of the paper's Section 3.2.

The cross-correlation image is "summed over the sources s" — one RTM per
shot, stacked. This module runs a line of shots across the model and stacks
their images (optionally illumination-normalised per shot), which evens out
the single-shot illumination footprint and extends lateral coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.config import GPUOptions, GpuTimes, RTMConfig
from repro.core.imaging import mute_shallow, normalize_image
from repro.core.platform import CRAY_K40, Platform
from repro.core.rtm import run_rtm
from repro.model.earth_model import EarthModel
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError


@dataclass
class SurveyResult:
    """Stacked multi-shot migration output."""

    image: np.ndarray
    shot_images: list[np.ndarray]
    shot_x_indices: list[int]
    gpu: list[GpuTimes] = field(default_factory=list)

    @property
    def nshots(self) -> int:
        return len(self.shot_images)


def shot_line(
    model: EarthModel, nshots: int, margin: int = 24
) -> list[int]:
    """Evenly spaced shot x-indices across the model (inside ``margin``)."""
    nx = model.grid.shape[1]
    if nshots < 1:
        raise ConfigurationError("nshots must be >= 1")
    if 2 * margin >= nx:
        raise ConfigurationError("margin leaves no room for shots")
    return [int(x) for x in np.linspace(margin, nx - 1 - margin, nshots)]


def run_survey(
    config: RTMConfig,
    shot_x_indices: Sequence[int] | None = None,
    nshots: int = 3,
    gpu_options: GPUOptions | None = None,
    platform: Platform = CRAY_K40,
    tracer: Tracer | None = None,
) -> SurveyResult:
    """Migrate ``nshots`` shots and stack the raw images.

    ``config.model`` and acquisition settings are shared across shots; each
    shot's source is placed at (``config.source_depth_index`` or the
    default depth, shot x-index). The stack is normalised and muted once at
    the end (per-shot normalisation would over-weight poorly illuminated
    shots).
    """
    if config.model is None:
        raise ConfigurationError("run_survey needs an EarthModel")
    if config.model.grid.ndim != 2:
        raise ConfigurationError("run_survey currently supports 2-D models")
    xs = (
        list(shot_x_indices)
        if shot_x_indices is not None
        else shot_line(config.model, nshots)
    )
    if not xs:
        raise ConfigurationError("need at least one shot")
    stacked = np.zeros(config.model.grid.shape, dtype=np.float32)
    shot_images: list[np.ndarray] = []
    gpu_times: list[GpuTimes] = []
    for x in xs:
        if not 0 <= x < config.model.grid.shape[1]:
            raise ConfigurationError(f"shot x-index {x} outside the grid")
        result = run_rtm(
            config.for_shot(x), gpu_options=gpu_options, platform=platform,
            tracer=tracer,
        )
        if result.gpu is not None:
            gpu_times.append(result.gpu)
        shot_images.append(result.raw_image)
        stacked += result.raw_image
    mute = (
        config.mute_cells
        if config.mute_cells is not None
        else config.boundary_width + 8
    )
    image = mute_shallow(normalize_image(stacked), mute)
    return SurveyResult(
        image=image, shot_images=shot_images, shot_x_indices=xs, gpu=gpu_times
    )


