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

from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import pred
from repro.geometry.rectangle import Rectangle
from repro.service.sharding import ShardedBatchExecutor


@pytest.fixture
def lake(rng):
    return [rng.uniform(0.0, 1.0, size=(200, 2)) for _ in range(12)]


@pytest.fixture
def leaves():
    out = [
        pred(PercentileMeasure(Rectangle([0.0, 0.0], [0.5, 0.5])), 0.1),
        pred(PercentileMeasure(Rectangle([0.2, 0.2], [0.9, 0.9])), 0.2, 0.8),
        pred(PercentileMeasure(Rectangle([0.4, 0.0], [1.0, 0.6])), 0.05),
        pred(PreferenceMeasure(np.array([1.0, 1.0]), k=3), 0.5),
    ]
    return out


def _answers(executor, leaves):
    return [indexes for indexes, _stamp in executor.eval_leaves(leaves)]


class TestShardBuildDeterminism:
    def test_four_shards_match_one_shard(self, lake, leaves):
        repo = Repository.from_arrays(lake)
        one = ShardedBatchExecutor(
            repository=repo, n_shards=1, eps=0.2, sample_size=8, seed=7,
        )
        four = ShardedBatchExecutor(
            repository=repo, n_shards=4, eps=0.2, sample_size=8, seed=7,
        )
        one.warm()
        four.warm()
        assert _answers(one, leaves) == _answers(four, leaves)

    def test_warmed_build_matches_lazy_build(self, lake, leaves):
        repo = Repository.from_arrays(lake)
        warmed = ShardedBatchExecutor(
            repository=repo, n_shards=3, eps=0.2, sample_size=8, seed=7,
        )
        warmed.warm()
        lazy = ShardedBatchExecutor(
            repository=repo, n_shards=3, eps=0.2, sample_size=8, seed=7,
        )
        assert _answers(warmed, leaves) == _answers(lazy, leaves)

    def test_batched_leaves_match_per_leaf_loop(self, lake, leaves):
        repo = Repository.from_arrays(lake)
        with_batch = ShardedBatchExecutor(
            repository=repo, n_shards=2, eps=0.2, sample_size=8, seed=7,
        )
        one_by_one = ShardedBatchExecutor(
            repository=repo, n_shards=2, eps=0.2, sample_size=8, seed=7,
        )
        per_leaf = [_answers(one_by_one, [leaf])[0] for leaf in leaves]
        assert _answers(with_batch, leaves) == per_leaf
