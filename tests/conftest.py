"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import constant_model, layered_model


@pytest.fixture(scope="session")
def paper_results():
    """``repro.bench.experiments.results_json()``, computed once per test
    session: the whole paper sweep in estimate mode. Treat it as
    read-only."""
    from repro.bench.experiments import results_json

    return results_json()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_model_2d():
    """A small homogeneous 2-D model with density and shear velocity —
    usable by every propagator."""
    return constant_model((64, 64), spacing=10.0, vp=2000.0, vs_ratio=0.5)


@pytest.fixture
def small_model_3d():
    return constant_model((40, 40, 40), spacing=10.0, vp=2000.0, vs_ratio=0.5)


@pytest.fixture
def layered_2d():
    return layered_model(
        (128, 128),
        spacing=10.0,
        interfaces=[640.0],
        velocities=[1500.0, 2600.0],
        vs_ratio=0.5,
    )
