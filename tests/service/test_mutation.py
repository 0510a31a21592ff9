"""Tests for live repository mutation: delta-shard ingestion with warm-cache
reuse, removal masks, and the rebuild fallbacks.

The load-bearing property is *mutation equivalence*: after
``add_datasets`` / ``remove_datasets``, every answer must equal a freshly
built executor over the mutated repository — ``peers.rebuilt``, the one a
``rebuild()`` would publish, at one shard.  It shares the accuracy contract
(``capacity``, bounding box, seed), because a serving system freezes its
precision guarantee at build time — live ingestion must not silently
re-derive it.
"""

import numpy as np
import pytest
from peers import answers, rebuilt

from repro.core.framework import Repository
from repro.errors import QueryError
from repro.service import QueryService
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload, mutation_workload

N0 = 16
N_ADD = 4
EPS = 0.2
SAMPLE_SIZE = 12
SEED = 17
CAPACITY = 40


def make_lake(seed: int, n: int = N0 + N_ADD):
    return synthetic_data_lake(
        n, 1, np.random.default_rng(seed), family="clustered", median_size=120
    )


def make_queries(seed: int, n: int = 20, pref_fraction: float = 0.3):
    return batched_query_workload(
        n,
        1,
        np.random.default_rng(seed),
        pref_fraction=pref_fraction,
        duplicate_leaf_rate=0.5,
        max_leaves=3,
    )


def make_service(lake, box, n_shards: int, **overrides) -> QueryService:
    kwargs = dict(
        repository=Repository.from_arrays(lake),
        n_shards=n_shards,
        eps=EPS,
        sample_size=SAMPLE_SIZE,
        seed=SEED,
        bounding_box=box,
        capacity=CAPACITY,
    )
    kwargs.update(overrides)
    return QueryService(**kwargs)


class TestAddEquivalence:
    """service.add_datasets(new) answers == fresh build over the union."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_matches_fresh_union_service(self, n_shards):
        lake = make_lake(2)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(3)
        with make_service(lake[:N0], box, n_shards) as svc:
            svc.search_batch(queries)  # warm the cache pre-ingest
            receipt = svc.add_datasets(lake[N0:])
            assert receipt["indexes"] == list(range(N0, N0 + N_ADD))
            assert receipt["rebuilt"] is False
            assert svc.executor.delta_size == N_ADD
            got = [r.indexes for r in svc.search_batch(queries)]
            expected = answers(rebuilt(svc, 1), queries)
        assert got == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property_over_seeds(self, seed):
        lake = make_lake(10 + seed)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(20 + seed)
        with make_service(lake[:N0], box, 2) as svc:
            svc.add_datasets(lake[N0:])
            got = [r.indexes for r in svc.search_batch(queries)]
            expected = answers(rebuilt(svc, 1), queries)
        assert got == expected

    def test_ptile_only_and_pref_only(self):
        lake = make_lake(4)
        box = Repository.from_arrays(lake).bounding_box()
        ptile_only = make_queries(5, pref_fraction=0.0)
        pref_only = make_queries(6, pref_fraction=1.0)
        with make_service(lake[:N0], box, 2) as svc:
            svc.search_batch(ptile_only + pref_only)
            svc.add_datasets(lake[N0:])
            got = [r.indexes for r in svc.search_batch(ptile_only + pref_only)]
            expected = answers(rebuilt(svc, 1), ptile_only + pref_only)
        assert got == expected

    def test_incremental_adds_extend_existing_delta_shard(self):
        # Two ingest events: the second must insert into the existing delta
        # engine (no rebuild) and still match the fresh union build.
        lake = make_lake(7)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(8)
        with make_service(lake[:N0], box, 4) as svc:
            svc.add_datasets(lake[N0:N0 + 2])
            svc.search_batch(queries)  # forces the delta engine to build
            receipt = svc.add_datasets(lake[N0 + 2:])
            assert receipt["rebuilt"] is False
            assert svc.executor.delta_size == N_ADD
            got = [r.indexes for r in svc.search_batch(queries)]
            expected = answers(rebuilt(svc, 1), queries)
        assert got == expected

    def test_recall_after_ingest(self):
        lake = make_lake(5)
        box = Repository.from_arrays(lake).bounding_box()
        with make_service(lake[:N0], box, 2) as svc:
            svc.add_datasets(lake[N0:])
            for q in make_queries(9, n=8):
                assert svc.ground_truth(q) <= set(svc.search(q).indexes)


class TestWarmCache:
    """Ingestion must not flush the cache: repeats are hits or upgrades."""

    def test_no_invalidation_and_no_new_misses(self):
        lake = make_lake(2)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(3)
        with make_service(lake[:N0], box, 2) as svc:
            svc.search_batch(queries)
            misses_before = svc.stats()["cache"]["misses"]
            generation = svc.cache.generation
            svc.add_datasets(lake[N0:])
            svc.search_batch(queries)  # every leaf is a hit or an upgrade
            assert svc.cache.generation == generation
            assert svc.stats()["cache"]["invalidations"] == 0
            assert svc.stats()["cache"]["misses"] == misses_before
            assert svc.stats()["cache"]["upgrades"] > 0
            assert svc.stats()["cache"]["hit_rate"] > 0.0

    def test_upgraded_entries_serve_as_full_hits_afterwards(self):
        lake = make_lake(2)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(3)
        with make_service(lake[:N0], box, 2) as svc:
            svc.search_batch(queries)
            svc.add_datasets(lake[N0:])
            svc.search_batch(queries)  # upgrades
            upgrades_after_first = svc.stats()["cache"]["upgrades"]
            delta_evals = svc.stats()["executor"]["delta_evals"]
            svc.search_batch(queries)  # now watermark-current: pure hits
            assert svc.stats()["cache"]["upgrades"] == upgrades_after_first
            assert svc.stats()["executor"]["delta_evals"] == delta_evals

    def test_upgrade_stats_reported_per_query(self):
        lake = make_lake(2)
        box = Repository.from_arrays(lake).bounding_box()
        with make_service(lake[:N0], box, 2) as svc:
            expr = make_queries(4, n=1)[0]
            svc.search(expr)
            svc.add_datasets(lake[N0:])
            result = svc.search(expr)
            n_upgraded = result.stats["cache_upgrades"]
            assert n_upgraded == result.stats["n_leaves_unique"]
            assert svc.stats()["telemetry"]["cache_upgrades"] == n_upgraded


class TestRemoveEquivalence:
    def test_removed_never_reported_and_matches_fresh_build(self):
        # A fresh build compacts the tombstones out of its engines but keeps
        # global indexes (dataset identity is carried by the seeded synopsis
        # wrappers: coresets are a function of the original global index),
        # so it must reproduce the masked answers exactly.
        lake = make_lake(6)
        removed = [3, 7, 11]
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(12)
        with make_service(lake[:N0], box, 2) as svc:
            svc.search_batch(queries)  # warm pre-mutation
            svc.add_datasets(lake[N0:])
            receipt = svc.remove_datasets(removed)
            assert receipt["n_live"] == N0 + N_ADD - len(removed)
            got = [r.indexes for r in svc.search_batch(queries)]
            fresh = answers(rebuilt(svc, 1), queries)
        assert all(i not in answer for i in removed for answer in got)
        assert got == fresh

    def test_mask_survives_rebuild_and_compacts_engines(self):
        lake = make_lake(6)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(12)
        with make_service(lake, box, 2) as svc:
            before = [r.indexes for r in svc.search_batch(queries)]
            svc.remove_datasets([0, 5])
            masked = [r.indexes for r in svc.search_batch(queries)]
            svc.rebuild()
            assert svc.executor.removed == frozenset({0, 5})
            # Tombstones are compacted out of the shard engines ...
            assert sum(svc.executor.shard_sizes()) == len(lake) - 2
            # ... while indexes stay stable identities.
            after = [r.indexes for r in svc.search_batch(queries)]
        assert masked == [sorted(set(b) - {0, 5}) for b in before]
        assert after == masked

    def test_remove_validation(self):
        lake = make_lake(6)
        box = Repository.from_arrays(lake).bounding_box()
        with make_service(lake[:4], box, 2) as svc:
            with pytest.raises(QueryError):
                svc.remove_datasets([99])
            svc.remove_datasets([1])
            with pytest.raises(QueryError):
                svc.remove_datasets([1])  # already removed
            with pytest.raises(QueryError):
                svc.remove_datasets([0, 2, 3])  # would empty the repository

    def test_ground_truth_masks_removed(self):
        lake = make_lake(6)
        box = Repository.from_arrays(lake).bounding_box()
        with make_service(lake[:8], box, 2) as svc:
            q = make_queries(7, n=1)[0]
            truth_before = svc.ground_truth(q)
            svc.remove_datasets([2])
            assert svc.ground_truth(q) == truth_before - {2}


class TestRebuildFallbacks:
    def test_rebalance_threshold_folds_delta(self):
        lake = make_lake(8)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(13)
        # 8 base datasets over 2 shards: mean shard size 4, so adding 6
        # crosses the threshold and triggers the full rebuild path.
        with make_service(lake[:8], box, 2) as svc:
            svc.search_batch(queries)
            receipt = svc.add_datasets(lake[8:14])
            assert receipt["rebuilt"] is True and receipt["reason"] == "rebalance"
            assert svc.executor.delta_size == 0
            assert svc.cache.generation >= 1  # rebuilds do flush
            got = [r.indexes for r in svc.search_batch(queries)]
            expected = answers(rebuilt(svc, 1), queries)
        assert got == expected

    def test_a_rebalance_flushes_the_cache_once(self):
        """One rebuild is one flush: ``invalidations`` and ``generation``
        each move by exactly 1."""
        lake = make_lake(8)
        box = Repository.from_arrays(lake).bounding_box()
        with make_service(lake[:8], box, 2) as svc:
            svc.search_batch(make_queries(13))
            before = (svc.stats()["cache"]["invalidations"], svc.cache.generation)
            assert svc.add_datasets(lake[8:14])["reason"] == "rebalance"
            after = (svc.stats()["cache"]["invalidations"], svc.cache.generation)
            assert after == (before[0] + 1, before[1] + 1), (before, after)

    def test_rebuilds_keep_the_executor_counts(self):
        """The executor counts into the service's registry, so neither a
        rebalancing add nor an explicit ``rebuild()`` lowers a count on
        ``/stats`` or its ``repro_executor_*_total`` sample."""
        lake = make_lake(8)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(13)

        def counts(svc):
            stats = svc.stats()["executor"]
            samples = dict(
                line.split(" ")
                for line in svc.observability.render_prometheus().splitlines()
                if line.startswith("repro_executor_")
            )
            return {
                name: (stats[name], float(samples[f"repro_executor_{name}_total"]))
                for name in ("leaf_evals", "shard_tasks", "delta_evals")
            }

        def no_lower(before, after):
            return all(
                after[name][0] >= count and after[name][1] >= sample
                for name, (count, sample) in before.items()
            )

        with make_service(lake[:8], box, 2) as svc:
            svc.search_batch(queries)
            assert svc.add_datasets(lake[8:10])["rebuilt"] is False
            svc.search_batch(queries)  # upgrades: delta-shard evaluations
            before = counts(svc)
            assert all(count > 0 and count == sample
                       for count, sample in before.values()), before
            receipt = svc.add_datasets(lake[10:14])
            assert receipt["reason"] == "rebalance"
            rebalanced = counts(svc)
            assert no_lower(before, rebalanced), (before, rebalanced)
            svc.rebuild()
            assert no_lower(rebalanced, counts(svc))
            svc.search_batch(queries)  # the flushed cache misses again
            after = counts(svc)
            assert after["leaf_evals"][0] > before["leaf_evals"][0]
            assert after["leaf_evals"][1] == after["leaf_evals"][0]

    def test_out_of_box_data_falls_back_to_rebuild(self):
        lake = make_lake(9)
        queries = make_queries(14)
        far = np.random.default_rng(0).uniform(50.0, 60.0, size=(80, 1))
        # No explicit box: the service derives it from the initial
        # repository, the far-away dataset cannot enter the delta shard,
        # and the rebuild re-derives a covering box.
        with make_service(lake[:N0], None, 2) as svc:
            svc.search_batch(queries)
            receipt = svc.add_datasets([far])
            assert receipt["rebuilt"] is True
            assert receipt["reason"] == "bounding_box"
            got = [r.indexes for r in svc.search_batch(queries)]
            expected = answers(rebuilt(svc, 1), queries)
        assert got == expected

    def test_add_validation(self):
        lake = make_lake(2)
        box = Repository.from_arrays(lake).bounding_box()
        with make_service(lake[:4], box, 2) as svc:
            with pytest.raises(QueryError):
                svc.add_datasets()  # nothing given
            from repro.synopsis.exact import ExactSynopsis

            with pytest.raises(QueryError):
                # repository-backed services need raw datasets for truth
                svc.add_datasets(synopses=[ExactSynopsis(lake[5])])

    def test_explicitly_pinned_box_refuses_out_of_box_data(self):
        from repro.errors import ConstructionError

        lake = make_lake(3)
        box = Repository.from_arrays(lake).bounding_box()
        far = np.random.default_rng(1).uniform(50.0, 60.0, size=(80, 1))
        with make_service(lake[:8], box, 2) as svc:
            n_before = svc.n_datasets
            with pytest.raises(ConstructionError):
                svc.add_datasets([far])
            # The refusal is atomic: nothing was ingested.
            assert svc.n_datasets == n_before and svc.executor.delta_size == 0


class TestConcurrentChurn:
    def test_queries_race_ingestion_without_corruption(self):
        """Queries deliberately skip the mutation lock; racing them against
        live ingests must neither crash nor poison the cache (an entry's
        watermark must never claim datasets its answer is missing)."""
        import threading

        lake = make_lake(12, n=N0 + 8)
        box = Repository.from_arrays(lake).bounding_box()
        queries = make_queries(15, n=6)
        errors: list = []
        with make_service(lake[:N0], box, 2) as svc:
            svc.search_batch(queries)

            def reader():
                try:
                    for _ in range(6):
                        svc.search_batch(queries)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            for i in range(N0, N0 + 8, 2):
                svc.add_datasets(lake[i:i + 2])
            for t in threads:
                t.join(timeout=60)
            assert not errors
            # Steady state after the races: answers equal the fresh build.
            got = [r.indexes for r in svc.search_batch(queries)]
            expected = answers(rebuilt(svc, 1), queries)
        assert got == expected

    def test_a_racing_batch_covers_every_dataset_below_its_watermark(self):
        """The delta holds a new dataset before the dataset count grows: a
        leaf batch that read the count first answers, below that count,
        exactly what the executor answers once the ingests are over — with
        more readers than cores and a short switch interval."""
        import sys
        import threading
        import time

        from repro.service.planner import plan_batch

        lake = make_lake(13, n=2 * N0)  # N0 single adds: no rebalance
        box = Repository.from_arrays(lake).bounding_box()
        leaves = list(plan_batch(make_queries(16, n=6)).unique_leaves.values())
        seen, errors, done = [], [], threading.Event()
        with make_service(lake[:N0], box, 1) as svc:
            executor = svc.executor
            executor.warm()

            def reader():
                try:
                    while not done.is_set():
                        watermark = executor.n_datasets
                        seen.append((watermark, executor.eval_leaves(leaves)))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for i in range(N0, 2 * N0):
                    n_seen = len(seen)  # let every add race a few batches
                    while len(seen) < n_seen + 3 and not errors:
                        time.sleep(0.001)
                    assert not svc.add_datasets([lake[i]])["rebuilt"]
            finally:
                done.set()
                for t in threads:
                    t.join(timeout=60)
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads) and not errors
            final = [bits.to_list() for bits in executor.eval_leaves(leaves)]
        assert {watermark for watermark, _bits in seen} > {N0}
        for watermark, answers_ in seen:
            for bits, want in zip(answers_, final, strict=True):
                below = [i for i in bits.to_list() if i < watermark]
                assert below == [i for i in want if i < watermark]


class TestChurnStream:
    def test_workload_replay_stays_consistent(self):
        lake = make_lake(11, n=10)
        from repro.geometry.rectangle import Rectangle

        ambient = Rectangle([-10.0], [10.0])
        events = mutation_workload(
            16,
            1,
            np.random.default_rng(21),
            n_initial=10,
            add_fraction=0.25,
            remove_fraction=0.15,
            batch_size=4,
            ambient=ambient,
        )
        kinds = {kind for kind, _ in events}
        assert "queries" in kinds
        with make_service(lake, ambient, 2) as svc:
            for kind, payload in events:
                if kind == "queries":
                    for result, expr in zip(svc.search_batch(payload), payload):
                        assert svc.ground_truth(expr) <= set(result.indexes)
                        assert all(
                            i not in svc.executor.removed
                            for i in result.indexes
                        )
                elif kind == "add":
                    svc.add_datasets(payload)
                else:
                    svc.remove_datasets(payload)
            assert svc.stats()["cache"]["invalidations"] == svc.cache.generation
