"""Fault injection, recovery and chaos testing for the simulated stack.

``repro.resilience`` closes the loop the ROADMAP's production-scale north
star leaves open: the stack *plans* checkpoints and *detects* hazards, but
nothing could survive a fault. This package injects typed, seeded faults
into every layer (PCIe, kernels, allocations, MPI messages), recovers
(retry with deterministic backoff, restart from an executed checkpoint,
degrade via re-planning or re-decomposition) and proves — per run — that
the recovered answer matches the fault-free one.

Layout
------
``faults``
    The shared fault vocabulary: :class:`FaultSpec`, :class:`FaultPlan`,
    parse helpers, kind constants.
``injector``
    :class:`FaultInjector` — arms a plan against the hooks threaded into
    :mod:`repro.gpusim`, :mod:`repro.acc` and :mod:`repro.mpisim`.
``recovery``
    :class:`ResilientPipeline` / :class:`ResilientMultiGpu` — the guarded
    execution wrappers, plus :class:`BackoffPolicy` and
    :class:`CheckpointStore`.
``chaos``
    Seeded campaign runner behind ``python -m repro chaos``.
``report``
    :class:`ResilienceReport` (text/JSON).

Only ``faults`` and ``report`` are imported eagerly. The names of
``injector``, ``recovery`` and ``chaos`` load on first access
(:func:`repro.lazy_exports`): ``recovery`` and ``chaos`` import the core
pipelines, which themselves import this package's fault vocabulary — the
lazy split keeps that cycle open.
"""

from __future__ import annotations

from repro import lazy_exports
from repro.resilience.faults import (  # noqa: F401
    ALL_KINDS,
    DEVICE_KINDS,
    KIND_ALIASES,
    MPI_KINDS,
    PROTOCOL_KINDS,
    SHOT_POISON,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
    parse_faults,
)
from repro.resilience.report import FaultOutcome, ResilienceReport  # noqa: F401

__getattr__, __dir__, _LAZY = lazy_exports(__name__, {
    "injector": ("FaultInjector", "BoundInjector"),
    "recovery": (
        "BackoffPolicy",
        "CheckpointStore",
        "ResilientPipeline",
        "ResilientMultiGpu",
        "RecoveryStats",
    ),
    "chaos": (
        "run_chaos_case",
        "run_chaos_case_multigpu",
        "run_chaos_campaign",
    ),
})

__all__ = [
    "ALL_KINDS", "DEVICE_KINDS", "MPI_KINDS", "PROTOCOL_KINDS",
    "KIND_ALIASES", "SHOT_POISON",
    "FaultSpec", "FaultPlan", "FaultEvent",
    "parse_fault_spec", "parse_faults",
    "FaultOutcome", "ResilienceReport",
    *_LAZY,
]
