"""The paper's optimization catalogue as reusable transformations and tuners.

Two tuning regimes live here:

* **static** (:mod:`repro.optim.tuning`) — sweeps and predictions over the
  analytic cost model alone (the paper's hand-tuning workflow);
* **closed-loop** (:mod:`repro.optim.autotune`) — probe runs under a
  tracer, read through the one trace reduction
  (:func:`repro.observe.reduce.reduce_trace`), schedule search over the
  observed timelines, and the :class:`~repro.optim.autotune.TuningPlan`
  artifact the pipeline applies per kernel (``python -m repro tune``).

All reported times are simulated seconds on the device clock.

Names load on first access. The static helpers sit low in the layer map
(:mod:`repro.bench` and :mod:`repro.compile` import them); the autotuner
reaches up into :mod:`repro.analyze` and :mod:`repro.core`, and importing
a static helper does not load it.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "transformations": (
        "loop_fission",
        "mark_uncoalesced",
        "with_transposition",
        "inline_receiver_loop",
        "remove_branches",
        "fuse_kernels",
        "collapse_nest",
    ),
    "tuning": (  # static tuners
        "register_sweep",
        "RegisterSweepPoint",
        "best_register_count",
        "vector_length_sweep",
        "predict_best_launch",
        "fused_launch_estimate",
        "FusedLaunchEstimate",
        "async_comparison",
        "AsyncComparison",
    ),
    "autotune": (  # closed-loop tuner
        "KernelPlan",
        "ProbeResult",
        "ScheduleCandidate",
        "TuneRequest",
        "TuningPlan",
        "load_plan",
        "options_with_plan",
        "run_probe",
        "tune_case",
    ),
})
