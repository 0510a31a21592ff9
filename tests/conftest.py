"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.framework import Repository
from repro.geometry.rectangle import Rectangle
from repro.index import kd_tree
from repro.synopsis.exact import ExactSynopsis

# Profiles of the stateful differential test (tests/service/test_stateful.py
# picks one by name; nothing is loaded as the default): ``ci`` is the tier-1
# slice — derandomized, at most 8 s for its three service machines (one
# shard, three shards, two federated nodes) together and 8 s for the fleet
# machine — ``soak`` the long random run by hand.
settings.register_profile(
    "ci", max_examples=30, stateful_step_count=20, deadline=None,
    derandomize=True, suppress_health_check=list(HealthCheck),
)
settings.register_profile(
    "soak", max_examples=400, stateful_step_count=50, deadline=None,
    suppress_health_check=list(HealthCheck),
)


@pytest.fixture
def small_leaves(monkeypatch) -> None:
    """kd-tree leaves of at most 4 points for the whole test — first build
    and every rebuild — so a tree over a few dozen rows has inner nodes for
    the walks to prune (at the shipped leaf size it would be one leaf)."""
    monkeypatch.setattr(kd_tree, "DEFAULT_LEAF_SIZE", 4)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator; per-test isolation via fixed seed."""
    return np.random.default_rng(12345)


@pytest.fixture
def unit_rect_1d() -> Rectangle:
    return Rectangle([0.0], [1.0])


@pytest.fixture
def small_lake_1d(rng) -> list[np.ndarray]:
    """12 one-dimensional datasets with planted mass in [0, 0.5]."""
    out = []
    for i in range(12):
        frac = (i + 1) / 13
        n_in = int(400 * frac)
        inside = rng.uniform(0.0, 0.5, size=(n_in, 1))
        outside = rng.uniform(0.5000001, 1.0, size=(400 - n_in, 1))
        out.append(np.vstack([inside, outside]))
    return out


@pytest.fixture
def small_lake_2d(rng) -> list[np.ndarray]:
    """10 two-dimensional datasets: blobs at varying centers."""
    out = []
    for i in range(10):
        center = rng.uniform(0.2, 0.8, size=2)
        out.append(np.clip(rng.normal(center, 0.15, size=(300, 2)), 0.0, 1.0))
    return out


@pytest.fixture
def exact_synopses_1d(small_lake_1d) -> list[ExactSynopsis]:
    return [ExactSynopsis(p) for p in small_lake_1d]


@pytest.fixture
def exact_synopses_2d(small_lake_2d) -> list[ExactSynopsis]:
    return [ExactSynopsis(p) for p in small_lake_2d]


@pytest.fixture
def repo_2d(small_lake_2d) -> Repository:
    return Repository.from_arrays(small_lake_2d)
