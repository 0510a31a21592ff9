"""Tests for the LRU leaf-result cache."""

import numpy as np
import pytest

from repro.core.bitset import DatasetBitmap
from repro.service.cache import LeafResultCache
from repro.service.observability import MetricsRegistry


def bits(*members, nbits=64):
    return DatasetBitmap.from_indices(members, nbits)


class TestHitMiss:
    def test_miss_then_hit(self):
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        assert cache.get("k") is None
        cache.put("k", bits(1, 2))
        assert cache.get("k") == bits(1, 2)
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5

    def test_contains_does_not_touch_stats(self):
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        cache.put("k", bits(1))
        assert "k" in cache and "other" not in cache
        assert cache.snapshot()["hits"] + cache.snapshot()["misses"] == 0


class TestEviction:
    def test_lru_order(self):
        cache = LeafResultCache(capacity=2, registry=MetricsRegistry())
        cache.put("a", bits(1))
        cache.put("b", bits(2))
        assert cache.get("a") is not None  # refresh `a`; `b` is now LRU
        cache.put("c", bits(3))
        assert cache.get("b") is None and cache.get("a") is not None
        assert cache.snapshot()["evictions"] == 1

    def test_put_refreshes_recency(self):
        cache = LeafResultCache(capacity=2, registry=MetricsRegistry())
        cache.put("a", bits(1))
        cache.put("b", bits(2))
        cache.put("a", bits(1, 5))  # refresh value + recency
        cache.put("c", bits(3))
        assert cache.get("a") == bits(1, 5)
        assert cache.get("b") is None

    def test_zero_capacity_disables(self):
        cache = LeafResultCache(capacity=0, registry=MetricsRegistry())
        cache.put("a", bits(1))
        assert cache.get("a") is None and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LeafResultCache(capacity=-1, registry=MetricsRegistry())


class TestInvalidation:
    def test_invalidate_clears_and_bumps_generation(self):
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        cache.put("a", bits(1))
        cache.put("b", bits(2))
        gen = cache.generation
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.generation == gen + 1
        assert cache.snapshot()["invalidations"] == 1

    def test_stale_generation_write_dropped(self):
        # A computation that began before invalidate() must not poison the
        # fresh cache with answers for the old synopsis set.
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        gen = cache.generation
        cache.invalidate()  # synopsis set changes mid-computation
        cache.put("a", bits(1, 2), generation=gen)
        assert cache.get("a") is None
        cache.put("a", bits(3), generation=cache.generation)  # current gen: kept
        assert cache.get("a") == bits(3)

    def test_snapshot_shape(self):
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        cache.put("a", bits(1))
        cache.get("a")
        snap = cache.snapshot()
        assert snap["size"] == 1 and snap["capacity"] == 4
        assert snap["hits"] == 1 and snap["hit_rate"] == 1.0
        assert {"evictions", "invalidations", "generation", "max_size_seen",
                "upgrades"} <= set(snap)


class TestWatermarks:
    def test_entry_carries_watermark(self):
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        cache.put("a", bits(1, 2), watermark=7)
        entry = cache.get_entry("a")
        assert entry.indexes == bits(1, 2) and entry.watermark == 7
        # get() remains the watermark-oblivious view of the same entry
        assert cache.get("a") == bits(1, 2)
        assert cache.snapshot()["hits"] == 2

    def test_default_watermark_zero(self):
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        cache.put("a", bits(1))
        assert cache.get_entry("a").watermark == 0

    def test_note_upgrades_counts(self):
        cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
        cache.note_upgrades(3)
        assert cache.snapshot()["upgrades"] == 3
        assert cache.registry.counter_value("repro_cache_upgrades_total") == 3


class TestResidentBytes:
    def test_tracks_insert_replace_evict_invalidate(self):
        cache = LeafResultCache(capacity=2, registry=MetricsRegistry())
        assert cache.resident_bytes == 0
        cache.put("a", DatasetBitmap.from_indices(range(100), 6400))
        wide_bytes = cache.resident_bytes
        assert wide_bytes > 0
        cache.put("a", DatasetBitmap.from_indices(range(100), 320))
        narrow_bytes = cache.resident_bytes
        # A replace releases the old value's bytes: 5 words, not 100 + 5.
        assert 5 * 8 <= narrow_bytes < wide_bytes
        cache.put("b", DatasetBitmap.from_indices(range(50), 320))
        cache.put("c", DatasetBitmap.from_indices(range(50), 320))  # evicts "a"
        assert cache.get("a") is None
        assert cache.resident_bytes == 2 * narrow_bytes
        cache.invalidate()
        assert cache.resident_bytes == 0
        assert cache.snapshot()["resident_bytes"] == 0

    def test_zero_capacity_stays_zero(self):
        cache = LeafResultCache(capacity=0, registry=MetricsRegistry())
        cache.put("a", bits(1, 2, 3))
        assert cache.resident_bytes == 0


class TestStaleDropThroughRebuild:
    def test_put_after_inflight_rebuild_is_dropped(self):
        """The generation guard end to end: a rebuild that lands while a
        batch is evaluating leaves must win over the batch's write-back."""
        from repro.core.framework import Repository
        from repro.service import QueryService
        from repro.workloads.generators import synthetic_data_lake
        from repro.workloads.queries import batched_query_workload

        lake = synthetic_data_lake(
            8, 1, np.random.default_rng(0), family="clustered", median_size=100
        )
        queries = batched_query_workload(
            4, 1, np.random.default_rng(1), duplicate_leaf_rate=0.0
        )
        with QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=2,
            eps=0.2,
            sample_size=8,
            seed=1,
        ) as svc:
            old_executor = svc.executor
            orig = old_executor.eval_leaves

            def eval_then_rebuild(leaves, **kwargs):
                out = orig(leaves, **kwargs)
                svc.rebuild()  # flushes the cache mid-batch
                return out

            old_executor.eval_leaves = eval_then_rebuild
            results = svc.search_batch(queries)
            # The stale write-backs were dropped: the rebuild flushed the
            # cache and the in-flight batch must not repopulate it with
            # answers computed against the pre-rebuild synopsis set.
            assert svc.cache.generation == 1  # a rebuild flushes once
            assert svc.cache.snapshot()["invalidations"] == 1
            assert len(svc.cache) == 0
            # The in-flight batch still answered from its own evaluation.
            expected = [r.indexes for r in svc.search_batch(queries)]
            assert [r.indexes for r in results] == expected
