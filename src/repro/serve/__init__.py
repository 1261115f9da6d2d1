"""Shot-parallel RTM service: fault-tolerant survey scheduling.

The operational layer of the reproduction: admit surveys into a bounded
shot queue (:mod:`repro.serve.queue`), shard shots across simulated
worker nodes under the resilience ladder (:mod:`repro.serve.service`),
serve duplicates from a content-keyed result cache
(:mod:`repro.serve.cache`), and verify every run bitwise against the
fault-free serial stack (:mod:`repro.serve.campaign`, the
``python -m repro serve`` CLI).
"""

from repro.serve.cache import CachedShot, ResultCache, ShotKey, model_hash
from repro.serve.campaign import (
    DEFAULT_SHOTS,
    DEFAULT_WORKERS,
    SERVE_CASES,
    run_serve_case,
    run_serve_sweep,
    serve_case_config,
)
from repro.serve.queue import (
    AdmissionError,
    PoisonShotError,
    QueueFullError,
    ShotJob,
    ShotQueue,
    SurveyRejectedError,
)
from repro.serve.service import ServiceResult, SurveyScheduler, WorkerNode

__all__ = [
    "model_hash",
    "ShotKey",
    "CachedShot",
    "ResultCache",
    "AdmissionError",
    "SurveyRejectedError",
    "QueueFullError",
    "PoisonShotError",
    "ShotJob",
    "ShotQueue",
    "WorkerNode",
    "ServiceResult",
    "SurveyScheduler",
    "SERVE_CASES",
    "DEFAULT_SHOTS",
    "DEFAULT_WORKERS",
    "serve_case_config",
    "run_serve_case",
    "run_serve_sweep",
]
