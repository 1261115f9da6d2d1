"""Configuration and result dataclasses for the modeling/RTM drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.acc.clauses import CompileFlags
from repro.acc.compiler import CompilerPersona, PGI_14_6
from repro.core.snapshots import SnapshotStore
from repro.gpusim.profiler import ProfileReport
from repro.model.earth_model import EarthModel
from repro.source.acquisition import Receivers
from repro.utils.errors import ConfigurationError


@dataclass
class GPUOptions:
    """Tunable GPU-path choices — the paper's optimization catalogue.

    ``async_kernels=None`` defers to the persona's auto-async default.
    Whether receiver injection is one inlined kernel is the persona's, not
    an option: CRAY inlines the routine, PGI cannot
    (``CompilerPersona.supports_inlining``).
    """

    compiler: CompilerPersona = PGI_14_6
    flags: CompileFlags = field(default_factory=CompileFlags)
    #: apply the imaging condition on the GPU (paper Figure 15) or the host
    #: (Figure 14)
    image_on_gpu: bool = True
    #: backward phase calls the optimized modeling kernel (the 3x fix of
    #: the paper's Section 5.1 step 4) instead of the original uncoalesced
    #: backward kernel
    reuse_forward_kernel: bool = True
    #: split the fused flow/stress kernels (the paper's Figure 12 fission)
    loop_fission: bool = False
    #: launch kernels on async queues (None -> persona default)
    async_kernels: bool | None = None
    #: fix uncoalesced kernels by on-GPU transposition (Figure 13) instead
    #: of kernel reuse
    transpose_fix: bool = False
    #: force a compute construct ('kernels' | 'parallel'); None uses the
    #: persona's preferred one — the knob behind the paper's Figures 8-9
    construct: str | None = None
    #: explicit loop schedule to pair with a forced construct
    schedule: Any = None
    #: per-kernel schedule overrides from the closed-loop tuner (a
    #: :class:`~repro.optim.autotune.TuningPlan`, or any object exposing
    #: ``entry_for(kernel_name)``); kernels without an entry fall through to
    #: the construct/schedule fields above. Load one with
    #: :func:`repro.optim.autotune.load_plan` and prefer
    #: :func:`repro.optim.autotune.options_with_plan`, which also applies
    #: the plan's global ``maxregcount``/async choices
    plan: Any = None


@dataclass
class ModelingConfig:
    """Seismic modeling (forward phase of Algorithm 1)."""

    physics: str
    model: EarthModel
    nt: int
    dt: float | None = None
    peak_freq: float = 10.0
    space_order: int = 8
    boundary_width: int = 16
    #: steps between saved snapshots; None derives from peak_freq
    snap_period: int | None = None
    #: decimation of the display movie the modeling phase saves
    snapshot_decimate: int = 4
    #: receiver spread; None places a line below the absorbing layer
    receivers: Receivers | None = None
    #: source depth index; None puts the source just below the top layer
    source_depth_index: int | None = None
    #: source lateral (x) index; None centres the source (multi-shot
    #: surveys move it along the line)
    source_x_index: int | None = None
    #: isotropic PML code variant (branchy/restructured/everywhere)
    pml_variant: str = "branchy"

    def __post_init__(self):
        if self.nt < 1:
            raise ConfigurationError("nt must be >= 1")
        if self.physics.lower() not in ("isotropic", "acoustic", "elastic", "vti"):
            raise ConfigurationError(f"unknown physics '{self.physics}'")

    def source_depth(self) -> int:
        """The source depth index: the configured one, else just below the
        absorbing layer."""
        if self.source_depth_index is not None:
            return self.source_depth_index
        return min(self.boundary_width + 4, self.model.grid.shape[0] - 1)

    def for_shot(self, x_index: int):
        """This configuration with its source at (source depth,
        ``x_index``): one shot of a survey line."""
        return replace(
            self, source_depth_index=self.source_depth(), source_x_index=x_index
        )


@dataclass
class RTMConfig(ModelingConfig):
    """Reverse Time Migration (both phases of Algorithm 1)."""

    #: zero the image above this depth index (direct-arrival mute)
    mute_cells: int | None = None
    #: normalise by source illumination
    illumination_normalize: bool = True


@dataclass
class GpuTimes:
    """Modelled GPU execution summary of one run."""

    total: float = 0.0
    kernel: float = 0.0
    h2d: float = 0.0
    d2h: float = 0.0
    alloc: float = 0.0
    launches: int = 0
    success: bool = True
    failure: str | None = None  # 'oom' | 'compiler' | None
    profile: ProfileReport | None = None
    #: per-category cumulative seconds from the device's SimClock (kernel /
    #: h2d / d2h / alloc, plus anything instrumentation charged); unlike the
    #: flat fields above this carries every category the clock saw
    categories: dict[str, float] = field(default_factory=dict)

    @property
    def transfer(self) -> float:
        return self.h2d + self.d2h

    @property
    def other(self) -> float:
        """Wall time not attributed to any category (launch gaps, driver
        overheads, host-side admin)."""
        return max(0.0, self.total - self.kernel - self.transfer - self.alloc)


@dataclass
class ModelingResult:
    """Output of a modeling run."""

    seismogram: np.ndarray | None
    snapshots: SnapshotStore
    final_wavefield: np.ndarray
    dt: float
    gpu: GpuTimes | None = None
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass
class RTMResult:
    """Output of an RTM run."""

    image: np.ndarray
    raw_image: np.ndarray
    seismogram: np.ndarray
    dt: float
    gpu: GpuTimes | None = None
    extras: dict[str, Any] = field(default_factory=dict)
