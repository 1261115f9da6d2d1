"""The paper's applications: seismic modeling and Reverse Time Migration.

Host drivers (:func:`run_modeling`, :func:`run_rtm`) execute the physics in
NumPy following the paper's Algorithm 1. GPU drivers wrap the same stepping
with the OpenACC offload pipeline of the paper's Figure 4 (data allocation ->
forward -> offload/upload swap -> backward -> store image) and return
modelled device timings; estimate drivers
(:func:`estimate_modeling`, :func:`estimate_rtm`) run the pipeline without
physics so the paper's full-size grids can be timed.
"""

from repro.core.config import (
    ModelingConfig,
    RTMConfig,
    GPUOptions,
    ModelingResult,
    RTMResult,
    GpuTimes,
)
from repro.core.platform import Platform, PLATFORMS
from repro.core.snapshots import SnapshotStore, default_snap_period
from repro.core.imaging import (
    cross_correlation_update,
    normalize_image,
    mute_shallow,
)
from repro.core.inventory import field_inventory, device_resident_bytes
from repro.core.pipeline import OffloadPipeline
from repro.core.modeling import run_modeling, estimate_modeling
from repro.core.rtm import run_rtm, estimate_rtm
from repro.core.multigpu import (
    MultiGpuTimes,
    estimate_multi_gpu_modeling,
    scaling_study,
)
from repro.core.survey import SurveyResult, run_survey, shot_line
from repro.core.offload_plan import OffloadPlan, plan_offload
from repro.core.checkpointing import (
    CheckpointPlan,
    CheckpointedCost,
    plan_checkpoints,
    checkpointed_rtm_cost,
)
from repro.core.reference import (
    cpu_modeling_time,
    cpu_rtm_time,
    ReferenceTimes,
)

__all__ = [
    "ModelingConfig",
    "RTMConfig",
    "GPUOptions",
    "ModelingResult",
    "RTMResult",
    "GpuTimes",
    "Platform",
    "PLATFORMS",
    "SnapshotStore",
    "default_snap_period",
    "cross_correlation_update",
    "normalize_image",
    "mute_shallow",
    "field_inventory",
    "device_resident_bytes",
    "OffloadPipeline",
    "run_modeling",
    "estimate_modeling",
    "run_rtm",
    "estimate_rtm",
    "SurveyResult",
    "OffloadPlan",
    "plan_offload",
    "CheckpointPlan",
    "CheckpointedCost",
    "plan_checkpoints",
    "checkpointed_rtm_cost",
    "run_survey",
    "shot_line",
    "MultiGpuTimes",
    "estimate_multi_gpu_modeling",
    "scaling_study",
    "cpu_modeling_time",
    "cpu_rtm_time",
    "ReferenceTimes",
]
