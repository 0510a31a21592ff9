"""Tests for the compiled-plan cache and its service integration."""

import numpy as np
import pytest

from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure
from repro.core.predicates import And, Or, pred
from repro.geometry.rectangle import Rectangle
from repro.service import QueryService
from repro.service import service as service_mod
from repro.service.observability import MetricsRegistry
from repro.service.planner import PlanCache, plan_batch
from repro.workloads.generators import synthetic_data_lake


def ptile_leaf(lo, hi, a):
    return pred(PercentileMeasure(Rectangle([lo], [hi])), a)


A = ptile_leaf(0.0, 0.5, 0.2)
B = ptile_leaf(0.5, 1.0, 0.4)
C = ptile_leaf(0.2, 0.8, 0.1)


class TestPlanCache:
    def test_structural_hit_reuses_plan(self):
        cache = PlanCache(capacity=8, registry=MetricsRegistry())
        p1 = cache.plan(And([A, Or([B, C])]))
        p2 = cache.plan(And([A, Or([B, C])]))
        assert p1 is p2
        assert cache.snapshot()["hits"] == 1 and cache.snapshot()["misses"] == 1

    def test_distinct_shapes_distinct_entries(self):
        cache = PlanCache(capacity=8, registry=MetricsRegistry())
        p_ab = cache.plan(And([A, B]))
        p_ba = cache.plan(And([B, A]))
        # Different structure -> different entries, but the same canonical
        # rewrite (so the leaf cache unifies their answers downstream).
        assert p_ab is not p_ba
        assert p_ab.key == p_ba.key
        assert cache.snapshot()["misses"] == 2 and len(cache) == 2

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2, registry=MetricsRegistry())
        cache.plan(A)
        cache.plan(B)
        cache.plan(A)  # refresh A; B is LRU
        cache.plan(C)  # evicts B
        assert cache.snapshot()["evictions"] == 1
        cache.plan(B)
        assert cache.snapshot()["misses"] == 4  # B was re-planned

    def test_zero_capacity_disables(self):
        cache = PlanCache(capacity=0, registry=MetricsRegistry())
        p1 = cache.plan(And([A, B]))
        p2 = cache.plan(And([A, B]))
        assert p1 is not p2 and len(cache) == 0
        assert cache.snapshot()["hits"] == 0 and cache.snapshot()["misses"] == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1, registry=MetricsRegistry())

    def test_plan_batch_uses_cache(self):
        cache = PlanCache(capacity=8, registry=MetricsRegistry())
        batch1 = plan_batch([And([A, B]), C], cache=cache)
        batch2 = plan_batch([And([A, B]), C], cache=cache)
        assert cache.snapshot()["hits"] == 2 and cache.snapshot()["misses"] == 2
        assert [p.expression for p in batch1.plans] == [
            p.expression for p in batch2.plans
        ]
        assert batch2.n_leaves_unique == 3

    def test_snapshot_shape(self):
        cache = PlanCache(capacity=4, registry=MetricsRegistry())
        cache.plan(A)
        cache.plan(A)
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert snap["size"] == 1 and snap["capacity"] == 4


class TestServiceIntegration:
    @pytest.fixture(scope="class")
    def service(self):
        lake = synthetic_data_lake(
            10, 1, np.random.default_rng(0), family="clustered", median_size=120
        )
        with QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=2,
            eps=0.2,
            sample_size=10,
            seed=3,
        ) as svc:
            yield svc

    def test_repeated_shapes_hit_plan_cache(self, service):
        expr = And([A, Or([B, C])])
        service.search(expr)
        misses = service.plans.snapshot()["misses"]
        service.search(expr)
        service.search(And([A, Or([B, C])]))  # rebuilt but same shape
        assert service.plans.snapshot()["misses"] == misses
        assert service.plans.snapshot()["hits"] >= 2
        assert service.stats()["plan_cache"]["hits"] >= 2

    def test_plan_cache_survives_rebuild_with_same_answers(self, service):
        expr = Or([A, And([B, C])])
        before = service.search(expr).indexes
        service.rebuild()
        assert len(service.plans) > 0  # plans are data-independent
        hits_before = service.plans.snapshot()["hits"]
        after = service.search(expr).indexes
        assert after == before
        assert service.plans.snapshot()["hits"] == hits_before + 1

    def test_answers_identical_with_plan_cache_disabled(self, monkeypatch):
        lake = synthetic_data_lake(
            8, 1, np.random.default_rng(1), family="clustered", median_size=100
        )
        repo = Repository.from_arrays(lake)
        queries = [And([A, B]), Or([A, C]), And([A, Or([B, C])]), A]
        kwargs = dict(repository=repo, n_shards=2, eps=0.2, sample_size=10, seed=3)
        warm = QueryService(**kwargs)
        monkeypatch.setattr(service_mod, "PLAN_CACHE_CAPACITY", 0)
        with QueryService(**kwargs) as cold, warm:
            assert cold.plans.capacity == 0 < warm.plans.capacity
            a = [r.indexes for r in cold.search_batch(queries * 2)]
            b = [r.indexes for r in warm.search_batch(queries * 2)]
        assert a == b
