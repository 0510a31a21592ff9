"""Shard builds must be deterministic and partition-independent.

The executor builds each shard's Ptile structure eagerly (``warm``) or on
first use, and the cold path batches each shard's leaf schedule through one
multi-box backend call.  Neither may change answers: coresets are pure
functions of ``(seed, global index, size)`` and each shard owns a private
rng, so any shard count, warmed/lazy and batched/per-leaf evaluation must
produce identical answer sets.
"""

import numpy as np
import pytest
from peers import leaf_answers, rebuilt

from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import pred
from repro.geometry.rectangle import Rectangle
from repro.service import QueryService


@pytest.fixture
def service(rng):
    lake = [rng.uniform(0.0, 1.0, size=(200, 2)) for _ in range(12)]
    return QueryService(
        repository=Repository.from_arrays(lake), eps=0.2, sample_size=8, seed=7,
    )


@pytest.fixture
def leaves():
    out = [
        pred(PercentileMeasure(Rectangle([0.0, 0.0], [0.5, 0.5])), 0.1),
        pred(PercentileMeasure(Rectangle([0.2, 0.2], [0.9, 0.9])), 0.2, 0.8),
        pred(PercentileMeasure(Rectangle([0.4, 0.0], [1.0, 0.6])), 0.05),
        pred(PreferenceMeasure(np.array([1.0, 1.0]), k=3), 0.5),
    ]
    return out


class TestShardBuildDeterminism:
    def test_four_shards_match_one_shard(self, service, leaves):
        one, four = rebuilt(service, 1), rebuilt(service, 4)
        one.warm()
        four.warm()
        assert leaf_answers(one, leaves) == leaf_answers(four, leaves)

    def test_warmed_build_matches_lazy_build(self, service, leaves):
        warmed, lazy = rebuilt(service, 3), rebuilt(service, 3)
        warmed.warm()
        assert leaf_answers(warmed, leaves) == leaf_answers(lazy, leaves)

    def test_batched_leaves_match_per_leaf_loop(self, service, leaves):
        with_batch, one_by_one = rebuilt(service, 2), rebuilt(service, 2)
        per_leaf = [leaf_answers(one_by_one, [leaf])[0] for leaf in leaves]
        assert leaf_answers(with_batch, leaves) == per_leaf
