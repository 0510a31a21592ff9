"""Tests for the sharded executor and the QueryService facade.

The load-bearing property is *shard-merge equivalence*: on fixed seeds a
``QueryService`` with any shard count must return exactly the index sets a
single ``DatasetSearchEngine`` returns, because each dataset lives in one
shard and the executor pins sampling and query slack to global-N semantics.
"""

import threading

import numpy as np
import pytest
from peers import bare_engine, leaf_answers

from repro.core.framework import Repository
from repro.errors import ConstructionError
from repro.service import QueryService
from repro.service.planner import plan_batch
from repro.service.sharding import SeededSampleSynopsis, partition_indices
from repro.synopsis.exact import ExactSynopsis
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

N_DATASETS = 24
EPS = 0.2
SAMPLE_SIZE = 12
SEED = 17


@pytest.fixture(scope="module")
def lake():
    return synthetic_data_lake(
        N_DATASETS, 1, np.random.default_rng(2), family="clustered", median_size=150
    )


@pytest.fixture(scope="module")
def repo(lake):
    return Repository.from_arrays(lake)


@pytest.fixture(scope="module")
def queries():
    return batched_query_workload(
        24, 1, np.random.default_rng(3), duplicate_leaf_rate=0.5, max_leaves=3
    )


@pytest.fixture(scope="module")
def reference_engine(repo):
    """A single engine with the service's deterministic sampling semantics."""
    with QueryService(
        repository=repo, n_shards=1, eps=EPS, sample_size=SAMPLE_SIZE, seed=SEED
    ) as service:
        return bare_engine(service.executor)


class TestPartition:
    def test_balanced_contiguous(self):
        parts = partition_indices(10, 3)
        assert parts == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert [i for p in parts for i in p] == list(range(10))

    def test_clips_to_n(self):
        assert partition_indices(2, 8) == [[0], [1]]

    def test_validation(self):
        with pytest.raises(ConstructionError):
            partition_indices(0, 2)
        with pytest.raises(ConstructionError):
            partition_indices(5, 0)


class TestSeededSynopsis:
    def test_sample_is_partition_independent(self, lake):
        base = ExactSynopsis(lake[0])
        w1 = SeededSampleSynopsis(base, seed=5, index=3)
        w2 = SeededSampleSynopsis(base, seed=5, index=3)
        # Different caller streams, identical draws:
        s1 = w1.sample(8, np.random.default_rng(111))
        s2 = w2.sample(8, np.random.default_rng(999))
        assert np.array_equal(s1, s2)
        # Repeated draws are stable too:
        assert np.array_equal(s1, w1.sample(8, np.random.default_rng(0)))

    def test_distinct_index_distinct_sample(self, lake):
        base = ExactSynopsis(lake[0])
        a = SeededSampleSynopsis(base, seed=5, index=0).sample(
            8, np.random.default_rng(0)
        )
        b = SeededSampleSynopsis(base, seed=5, index=1).sample(
            8, np.random.default_rng(0)
        )
        assert not np.array_equal(a, b)

    def test_delegates_metadata(self, lake):
        base = ExactSynopsis(lake[0])
        w = SeededSampleSynopsis(base, seed=0, index=0)
        assert w.dim == base.dim and w.n_points == base.n_points
        assert w.delta_ptile == base.delta_ptile
        assert w.delta_pref == base.delta_pref


    def test_service_keeps_the_index_a_seeded_synopsis_carries(self, lake):
        # No helper, no flag: a synopsis that arrives seeded is its own
        # identity (a federated node's global index) and is not wrapped
        # again — at construction, on a live add, through a rebuild.
        offset = 100
        exact = [ExactSynopsis(p) for p in lake[:7]]
        seeded = [
            SeededSampleSynopsis(s, SEED, offset + j) for j, s in enumerate(exact)
        ]
        with QueryService(
            synopses=seeded[:6], n_shards=2, eps=EPS, sample_size=SAMPLE_SIZE,
            seed=SEED, capacity=N_DATASETS,
        ) as svc:
            svc.add_datasets(synopses=seeded[6:])
            svc.add_datasets(synopses=[ExactSynopsis(lake[7])])  # unseeded: local
            svc.rebuild()
            held = svc.executor.synopses
            assert [s.base for s in held[:7]] == exact
            assert [s.index for s in held] == [offset + j for j in range(7)] + [7]


class TestShardMergeEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 3, 4])
    def test_identical_to_single_engine(
        self, repo, queries, reference_engine, n_shards
    ):
        with QueryService(
            repository=repo,
            n_shards=n_shards,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
            seed=SEED,
        ) as service:
            got = [r.indexes for r in service.search_batch(queries)]
        expected = [reference_engine.search(q).indexes for q in queries]
        assert got == expected

    def test_rebuild_after_removes_answers_over_gapped_ids(self, repo, queries):
        """Removes, then ``rebuild()``: tombstones leave the shard engines
        but keep their indexes, so base units hold live ids with gaps.
        Every leaf and every query answer is an unsharded engine's over
        the whole lake with the tombstones masked."""
        removed = [1, 2, 9, 14, 15, 22]
        with QueryService(
            repository=repo, n_shards=3, eps=EPS, sample_size=SAMPLE_SIZE,
            seed=SEED, cache_capacity=0,
        ) as service:
            service.remove_datasets(removed)
            service.rebuild()
            executor = service.executor
            units = [unit.ids for unit in executor.units]
            assert sorted(i for ids in units for i in ids) == sorted(
                set(range(N_DATASETS)) - set(removed)
            )
            assert sum(ids[-1] - ids[0] + 1 > len(ids) for ids in units) >= 2
            single = bare_engine(executor)
            mask = executor.removed_bits()
            leaves = list(plan_batch(queries).unique_leaves.values())
            assert [b.to_list() for b in leaf_answers(executor, leaves)] == [
                b.to_list() for b in leaf_answers(single, leaves, mask)
            ]
            want = [single.search(q).bitmap.andnot(mask).to_list() for q in queries]
            assert [r.indexes for r in service.search_batch(queries)] == want

    def test_concurrent_request_threads_match_single_thread(self, repo, queries):
        # Shards are evaluated on the calling thread, so two request
        # threads interleave on the per-shard locks; the cache is off so
        # both really walk every shard.
        kwargs = dict(
            repository=repo, n_shards=4, eps=EPS, sample_size=SAMPLE_SIZE,
            seed=SEED, cache_capacity=0,
        )
        with QueryService(**kwargs) as alone:
            expected = [r.indexes for r in alone.search_batch(queries)]
        got: dict = {}

        def ask(name):
            got[name] = [r.indexes for r in shared.search_batch(queries)]

        with QueryService(**kwargs) as shared:
            threads = [threading.Thread(target=ask, args=(n,)) for n in "ab"]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        assert got == {"a": expected, "b": expected}

    def test_federated_synopses_only_matches_single_engine(self, lake, queries):
        # No repository, no explicit bounding box: the executor must derive
        # one shared box (from the deterministic coresets) instead of
        # letting every shard auto-derive its own.
        synopses = [ExactSynopsis(p) for p in lake]
        with QueryService(
            synopses=synopses, n_shards=4, eps=EPS, sample_size=SAMPLE_SIZE,
            seed=SEED,
        ) as service:
            assert service.executor.bounding_box is not None
            got = [r.indexes for r in service.search_batch(queries)]
        single = bare_engine(service.executor)
        assert got == [single.search(q).indexes for q in queries]

    def test_every_dataset_in_exactly_one_shard(self, repo):
        with QueryService(
            repository=repo, n_shards=5, eps=EPS, sample_size=SAMPLE_SIZE
        ) as service:
            units = service.executor.units
            flat = [i for unit in units for i in unit.ids]
            assert sorted(flat) == list(range(repo.n_datasets))
            assert sum(service.executor.shard_sizes()) == repo.n_datasets


class TestSharedBoxes:
    """A cold batch builds its Percentile leaves' Algorithm-4 boxes once:
    every unit — base shards and the delta shard — is pinned to the same
    bounding box and ``eps_effective``, so the first unit builds the batch
    and the others only code it.  The batch is keyed by that frame: a unit
    whose slack differs builds boxes of its own."""

    @pytest.fixture
    def service(self, lake):
        with QueryService(
            repository=Repository.from_arrays(lake[:20]),
            n_shards=3,
            capacity=len(lake),
            bounding_box=Repository.from_arrays(lake).bounding_box(),
            eps=EPS,
            sample_size=SAMPLE_SIZE,
            seed=SEED,
            cache_capacity=0,
        ) as svc:
            assert not svc.add_datasets(lake[20:])["rebuilt"]
            assert svc.executor.delta is not None
            yield svc

    @staticmethod
    def alone(executor, leaves):
        """Each leaf answered alone by each unit, unioned in global ids."""
        out = []
        for leaf in leaves:
            ids = set()
            for unit in executor._units():
                local_ids = np.arange(unit.engine.n_datasets)
                (local,) = unit.engine.eval_leaf_batch_bits([leaf], local_ids)
                ids.update(unit.ids[j] for j in local.to_list())
            out.append(sorted(ids))
        return out

    @staticmethod
    def counted_boxes(monkeypatch):
        from repro.core.ptile_range import PtileRangeIndex

        built = []
        real = PtileRangeIndex._query_box

        def counting(index, rect, theta):
            built.append(index)
            return real(index, rect, theta)

        monkeypatch.setattr(PtileRangeIndex, "_query_box", counting)
        return built

    def test_one_frame_builds_once_and_answers_as_one_engine(
        self, service, monkeypatch
    ):
        from repro.core.measures import PercentileMeasure

        queries = batched_query_workload(
            16, 1, np.random.default_rng(5), duplicate_leaf_rate=0.6, max_leaves=3
        )
        batch = plan_batch(queries)
        leaves = list(batch.unique_leaves.values())
        n_ptile = sum(isinstance(lf.measure, PercentileMeasure) for lf in leaves)
        n_used = sum(len(plan.leaves) for plan in batch.plans)
        assert n_used > len(leaves) and n_ptile > 1  # leaves repeat across expressions
        executor = service.executor
        built = self.counted_boxes(monkeypatch)
        got = [bits.to_list() for bits in executor.eval_leaves(leaves)]
        assert len(built) == n_ptile  # once, not once per unit
        single = bare_engine(executor)
        whole = np.arange(single.n_datasets)
        assert got == [
            single.eval_leaf_batch_bits([leaf], whole)[0].to_list() for leaf in leaves
        ]
        assert got == self.alone(executor, leaves)
        want = [single.search(q).indexes for q in queries]
        assert [r.indexes for r in service.search_batch(queries)] == want

    def test_a_unit_in_another_frame_answers_with_its_own_boxes(
        self, service, monkeypatch
    ):
        from repro.core.measures import PercentileMeasure

        leaves = [
            leaf
            for q in batched_query_workload(
                24, 1, np.random.default_rng(6), pref_fraction=0.0,
                duplicate_leaf_rate=0.0, max_leaves=2,
            )
            for leaf in q.leaves()
            if isinstance(leaf.measure, PercentileMeasure)
        ]
        executor = service.executor
        before = [bits.to_list() for bits in executor.eval_leaves(leaves)]
        wide = executor.units[1]
        wide.engine.ptile_index.eps_effective = 0.9
        built = self.counted_boxes(monkeypatch)
        got = [bits.to_list() for bits in executor.eval_leaves(leaves)]
        assert len(built) == 2 * len(leaves)  # two frames, each built once
        assert built.count(wide.engine.ptile_index) == len(leaves)
        assert got == self.alone(executor, leaves)
        assert got != before  # the widened unit did not take the shared boxes
        assert all(set(b) <= set(g) for b, g in zip(before, got))


class TestServiceFacade:
    @pytest.fixture(scope="class")
    def service(self, repo):
        with QueryService(
            repository=repo,
            n_shards=3,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
            seed=SEED,
            cache_capacity=1024,
        ) as svc:
            yield svc

    def test_single_equals_batch(self, service, queries):
        batch = service.search_batch(queries[:6])
        singles = [service.search(q) for q in queries[:6]]
        assert [r.indexes for r in batch] == [r.indexes for r in singles]

    def test_cache_hits_on_repeat(self, repo, queries):
        with QueryService(
            repository=repo, n_shards=2, eps=EPS, sample_size=SAMPLE_SIZE
        ) as svc:
            svc.search_batch(queries)
            misses_after_cold = svc.stats()["cache"]["misses"]
            svc.search_batch(queries)
            assert svc.stats()["cache"]["misses"] == misses_after_cold  # all warm
            assert svc.stats()["cache"]["hit_rate"] > 0.0
            # invalidation forces recomputation
            svc.invalidate_cache()
            svc.search_batch(queries)
            assert svc.stats()["cache"]["misses"] > misses_after_cold

    def test_answers_unchanged_after_invalidate(self, service, queries):
        before = [r.indexes for r in service.search_batch(queries[:8])]
        service.invalidate_cache()
        after = [r.indexes for r in service.search_batch(queries[:8])]
        assert before == after

    def test_record_times_schedule(self, service, queries):
        result = service.search(queries[0], record_times=True)
        assert len(result.emit_times) == len(result.indexes)
        assert result.start_time is not None and result.end_time is not None
        for t in result.emit_times:
            assert result.start_time <= t <= result.end_time
        assert result.emit_times == sorted(result.emit_times)
        # emission order, not sorted index order — but same set as untimed
        untimed = service.search(queries[0])
        assert sorted(result.indexes) == untimed.indexes

    def test_stats_shape(self, service, queries):
        service.search_batch(queries[:4])
        stats = service.stats()
        assert stats["n_datasets"] == N_DATASETS
        assert stats["n_shards"] == 3
        assert sum(stats["shard_sizes"]) == N_DATASETS
        assert stats["telemetry"]["n_queries"] >= 4
        assert stats["telemetry"]["throughput_qps"] > 0.0
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0

    def test_ground_truth_requires_repository(self, lake, queries):
        with QueryService(
            synopses=[ExactSynopsis(p) for p in lake],
            eps=EPS,
            sample_size=SAMPLE_SIZE,
        ) as svc:
            from repro.errors import QueryError

            with pytest.raises(QueryError):
                svc.ground_truth(queries[0])

    def test_recall_against_ground_truth(self, service, repo, queries):
        # The paper's guarantee survives the service layer: exact recall.
        for q in queries[:10]:
            truth = service.ground_truth(q)
            got = set(service.search(q).indexes)
            assert truth <= got

    def test_rebuild_keeps_user_synopses(self, lake, repo, queries):
        # rebuild() without arguments must not swap user-supplied synopses
        # for repository-derived exact ones.
        synopses = [ExactSynopsis(p) for p in lake]
        with QueryService(
            repository=repo,
            synopses=synopses,
            n_shards=2,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
            seed=SEED,
        ) as svc:
            before = [s.base for s in svc.executor.synopses]
            assert before == synopses
            svc.rebuild()
            assert [s.base for s in svc.executor.synopses] == synopses

    def test_rebuild_invalidates_and_reshards(self, repo, queries):
        with QueryService(
            repository=repo, n_shards=2, eps=EPS, sample_size=SAMPLE_SIZE, seed=SEED
        ) as svc:
            before = [r.indexes for r in svc.search_batch(queries[:5])]
            svc.rebuild()
            assert svc.n_shards == 2
            assert svc.cache.generation >= 1 and len(svc.cache) == 0
            after = [r.indexes for r in svc.search_batch(queries[:5])]
            assert before == after  # same data, same answers

    def test_construction_validation(self):
        with pytest.raises(ConstructionError):
            QueryService()

    def test_stats_json_clean_before_first_query(self, repo):
        import json

        with QueryService(
            repository=repo, n_shards=2, eps=EPS, sample_size=SAMPLE_SIZE
        ) as svc:
            body = json.dumps(svc.stats())
            assert "NaN" not in body
            assert json.loads(body)["telemetry"]["latency_p50_s"] is None


class TestEngineThreading:
    """The service serves the kd engine alone: any other name is refused
    when the service is built, before any shard exists."""

    def test_kd_reaches_every_layer(self, lake, repo):
        # The default engine name is the one every layer reports: service,
        # stats, executor, each shard and its Ptile index, and the delta
        # shard an ingest creates.
        svc = QueryService(
            repository=repo, n_shards=2, eps=EPS, sample_size=SAMPLE_SIZE,
            seed=SEED, capacity=4 * N_DATASETS,
        )
        try:
            svc.add_datasets([lake[0] + 0.01])
            assert svc.engine_kind == svc.stats()["engine"] == "kd"
            assert svc.executor.engine_kind == "kd"
            for unit in (*svc.executor.units, svc.executor.delta):
                engine = unit.engine
                assert engine.engine_kind == "kd"
                assert engine.ptile_index.engine_kind == "kd"
        finally:
            svc.close()

    def test_rangetree_rejected_at_construction(self, repo):
        # The static textbook structure is not a serving backend: refused
        # up front like an unknown name, not at the first live ingest.
        with pytest.raises(ConstructionError, match="dynamic engine"):
            QueryService(repository=repo, engine="rangetree")

    def test_columnar_rejected_at_construction(self, repo):
        # The float column store is kd's side buffer, not an engine: a
        # service asked for it is refused by name before any shard exists.
        with pytest.raises(ConstructionError, match="dynamic engine.*'columnar'"):
            QueryService(repository=repo, engine="columnar")

    def test_unknown_engine_rejected_at_construction(self, repo):
        with pytest.raises(ConstructionError):
            QueryService(repository=repo, engine="btree")
