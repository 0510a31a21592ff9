"""Round-trip tests for the versioned snapshot container.

**Exact equality is the contract**: a loaded service must answer every
query identically to the service that was saved — including delta-shard
datasets, tombstone masks and warm leaf-cache entries — under both
``mmap=True`` (read-only page-mapped buffers) and ``mmap=False`` (private
copies).  Error paths (bad magic, truncation, version skew, a foreign
kind, and every malformation of the header tree a generated sweep can
make) must all raise :class:`~repro.errors.SnapshotError`.
"""

import json
import math
import os
import re
import struct

import numpy as np
import pytest

from repro.core.bitset import DatasetBitmap
from repro.core.framework import Repository
from repro.errors import SnapshotError
from repro.index import kd_tree
from repro.service import QueryService, observability, planner
from repro.service.federation import federated_node_service
from repro.service.snapshot import MAGIC, VERSION, generation_of, inspect, load
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.histogram import HistogramSynopsis
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

N_DATASETS = 16
DIM = 1
SEED = 11
EPS = 0.2
SAMPLE_SIZE = 12


@pytest.fixture(scope="module")
def lake():
    return synthetic_data_lake(
        N_DATASETS, DIM, np.random.default_rng(SEED), median_size=80
    )


@pytest.fixture(scope="module")
def queries():
    return batched_query_workload(
        10, DIM, np.random.default_rng(SEED + 1), duplicate_leaf_rate=0.5
    )


def answers(obj, queries):
    return [r.indexes for r in obj.search_batch(queries)]


def one_shard_kd_service(lake):
    """A bare engine's persisted form: one built kd shard, nothing else."""
    svc = QueryService(
        repository=Repository.from_arrays(lake), n_shards=1, engine="kd",
        seed=SEED, eps=EPS, sample_size=SAMPLE_SIZE,
    )
    svc.warm()
    return svc


class TestServiceRoundTrip:
    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_pristine_service(self, lake, queries, tmp_path, mmap, n_shards):
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=n_shards,
            seed=SEED,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
            cache_capacity=256,
        )
        expected = answers(svc, queries)
        path = tmp_path / "svc.snap"
        info = svc.save(path, generation=5)
        assert info["kind"] == "query_service"
        assert generation_of(path) == 5
        loaded = QueryService.load(path, mmap=mmap)
        assert answers(loaded, queries) == expected
        assert loaded.n_shards == svc.n_shards
        assert loaded.engine_kind == svc.engine_kind
        loaded.close()
        svc.close()

    @pytest.mark.parametrize("ingest", ["rebuilt", "side_buffer"])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_mutated_service(self, lake, queries, tmp_path, mmap, ingest):
        """Ingested datasets and tombstone masks survive the round trip:
        datasets past the bounding box, which the service rebuilds over,
        or datasets inside it, the last of which waits in the built delta
        kd-tree's side buffer when the file is written (two base shards, so
        a delta shard of seven stays under their mean size)."""
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=3 if ingest == "rebuilt" else 2,
            seed=SEED,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
            capacity=2 * N_DATASETS,
        )
        rng = np.random.default_rng(SEED + 2)
        if ingest == "rebuilt":
            svc.add_datasets([rng.normal(size=(50, DIM)) for _ in range(2)])
        else:
            assert not svc.add_datasets([d[::2] for d in lake[:6]])["rebuilt"]
            svc.warm()  # builds the delta tree the next ingest lands in
            assert not svc.add_datasets([lake[6][1::2]])["rebuilt"]
            assert svc.executor.delta.engine._ptile._tree._buf is not None
        svc.remove_datasets([1, 4])
        assert svc.executor.removed == frozenset({1, 4})
        expected = answers(svc, queries)

        path = tmp_path / "svc.snap"
        svc.save(path)
        loaded = QueryService.load(path, mmap=mmap)
        assert answers(loaded, queries) == expected
        assert loaded.executor.removed == frozenset({1, 4})
        assert loaded.n_datasets == svc.n_datasets
        assert loaded.n_live == svc.n_live
        # The loaded service stays live: ingestion and removal still work.
        loaded.add_datasets([rng.normal(size=(40, DIM))])
        loaded.remove_datasets([0])
        assert loaded.n_live == svc.n_live  # +1 ingested, -1 removed
        loaded.close()
        svc.close()

    @pytest.mark.parametrize("mmap", [True, False])
    def test_cache_entries_survive(self, lake, queries, tmp_path, mmap):
        """Warm leaf-cache state (entries + generation watermark) persists."""
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=2,
            seed=SEED,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
            cache_capacity=256,
        )
        expected = answers(svc, queries)  # warms the leaf cache
        n_entries = len(svc.cache)
        assert n_entries > 0
        generation = svc.cache.generation

        def entries(service):
            """Keys with their scalar types (``repr``), in LRU order."""
            return [
                (repr(key), e.watermark, e.indexes)
                for key, e in service.cache.export_entries()
            ]

        path = tmp_path / "svc.snap"
        svc.save(path)
        saved = entries(svc)
        svc.close()
        loaded = QueryService.load(path, mmap=mmap)
        assert len(loaded.cache) == n_entries
        assert entries(loaded) == saved
        assert loaded.cache.generation == generation
        misses_before = loaded.stats()["cache"]["misses"]
        assert answers(loaded, queries) == expected
        assert loaded.stats()["cache"]["misses"] == misses_before, (
            "restored cache missed on a batch it was warmed with"
        )
        loaded.close()

    def test_an_entry_answered_past_its_watermark_round_trips(
        self, lake, queries, tmp_path
    ):
        """A batch that races an ingest reads the old dataset count as its
        watermark but is answered by a delta that already holds the new
        dataset, so its entry's bitmap is wider than its watermark.  Such
        an entry saves, cut to its watermark, and its first hit after the
        load upgrades it back to the full answer."""
        svc = QueryService(
            repository=Repository.from_arrays(lake[:5]), n_shards=2, seed=SEED,
            eps=EPS, sample_size=4, capacity=8, cache_capacity=64,
        )
        svc.add_datasets([lake[5]])  # dataset 5 lives in the delta shard
        expected = answers(svc, queries)
        for key, entry in svc.cache.export_entries():
            assert entry.watermark == entry.indexes.nbits == 6
            svc.cache.put(key, entry.indexes, watermark=5)  # the racing batch's
        assert any(5 in e.indexes for _k, e in svc.cache.export_entries())
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        for mmap in (True, False):
            loaded = load(path, mmap=mmap)
            assert {
                (e.watermark, e.indexes.nbits) for _k, e in loaded.cache.export_entries()
            } == {(5, 5)}
            assert answers(loaded, queries) == expected
            assert loaded.stats()["cache"]["upgrades"] > 0
            loaded.close()

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("repository", [True, False])
    def test_per_item_synopsis_records_round_trip(
        self, lake, queries, tmp_path, mmap, repository
    ):
        """Bases that do not slice the stored rows keep a record each: a
        sketch beside the repository's rows, and exact synopses of a
        service without a repository (each with its own points)."""
        if repository:
            synopses = [
                HistogramSynopsis(p, bins=8) if i % 2 else ExactSynopsis(p)
                for i, p in enumerate(lake)
            ]
        else:
            synopses = [ExactSynopsis(p) for p in lake]
        svc = QueryService(
            repository=Repository.from_arrays(lake) if repository else None,
            synopses=synopses, n_shards=2, seed=SEED, eps=EPS,
            sample_size=SAMPLE_SIZE,
        )
        expected = answers(svc, queries)
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        header, _data = _read_header(path)
        bases = header["state"]["executor"]["synopses"]["bases"]
        assert [b is None for b in bases] == [
            repository and i % 2 == 0 for i in range(N_DATASETS)
        ]
        loaded = load(path, mmap=mmap)
        assert [type(s.base) for s in loaded.executor.synopses] == [
            type(s) for s in synopses
        ]
        assert answers(loaded, queries) == expected
        loaded.close()

    def test_every_kind_of_key_scalar_round_trips(self, lake, tmp_path):
        """Key shapes keep strings, None and ints past 2**53 as literals,
        and read bools, floats (-0.0, infinities) and smaller ints from
        the scalar column: each comes back equal and of its own type."""
        svc = QueryService(
            repository=Repository.from_arrays(lake), n_shards=1, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE,
        )
        odd = [
            ("leaf", ("pref", 2**60, (-0.0, math.inf)), (None, -math.inf, True, False)),
            ("leaf", ("x", -(2**53), ()), ("", 0.1, False, True)),
            ((), -7, 2**53 + 1, "i"),
        ]
        full = DatasetBitmap.full(N_DATASETS)
        for key in odd:
            svc.cache.put(key, full, watermark=N_DATASETS)
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        loaded = load(path)
        keys = [key for key, _entry in loaded.cache.export_entries()]
        assert keys == odd and repr(keys) == repr(odd)
        loaded.close()

    @pytest.mark.parametrize("mmap", [True, False])
    def test_dim2_round_trip(self, tmp_path, mmap):
        lake = synthetic_data_lake(
            8, 2, np.random.default_rng(SEED), median_size=60
        )
        queries = batched_query_workload(6, 2, np.random.default_rng(SEED + 3))
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=2,
            seed=SEED,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
        )
        expected = answers(svc, queries)
        path = tmp_path / "svc2d.snap"
        svc.save(path)
        svc.close()
        loaded = QueryService.load(path, mmap=mmap)
        assert answers(loaded, queries) == expected
        loaded.close()

    def test_mmap_buffers_are_read_only_views(self, lake, queries, tmp_path):
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=2,
            seed=SEED,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
        )
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        loaded = QueryService.load(path, mmap=True)
        points = loaded.repository[0].points
        assert not points.flags.writeable
        loaded.close()


    def test_kd_restore_adopts_the_map_and_builds_nothing(
        self, lake, queries, tmp_path, monkeypatch
    ):
        """A kd snapshot holds the tree itself: ``load(mmap=True)`` plants
        no node, its points are views into the one file map, and the
        loaded shard equals the saved one in answers, counts and
        activity (all of it active; its mask private) — until an insert,
        which copies instead of writing the map."""
        from repro.index.kd_tree import DynamicKDTree
        from repro.index.query_box import QueryBox

        svc = one_shard_kd_service(lake)
        tree = svc.executor.units[0].engine.ptile_index._tree
        expected = answers(svc, queries)
        boxes = [
            QueryBox.unbounded(tree.dim),
            QueryBox(
                [(0.0, 0.5, False, False)]
                + [(-math.inf, math.inf, False, False)] * (tree.dim - 1)
            ),
        ]
        path = tmp_path / "svc.snap"
        svc.save(path)

        def no_build(*_args, **_kwargs):
            raise AssertionError("snapshot restore built a kd-tree")

        monkeypatch.setattr(DynamicKDTree, "_build", no_build)
        loaded = QueryService.load(path, mmap=True)
        engine = loaded.executor.units[0].engine
        ltree = engine.ptile_index._tree
        monkeypatch.undo()

        file_map = ltree._pts.base
        while file_map.base is not None and not isinstance(file_map, np.memmap):
            file_map = file_map.base
        assert isinstance(file_map, np.memmap)
        # Rank codes and their float64 level tables, adopted as they lie in
        # the file: nothing per point is decoded or copied.
        assert ltree._pts.dtype == tree._pts.dtype and ltree._pts.dtype.kind == "u"
        mapped = (ltree._pts, *ltree._tables, ltree._group, ltree._lo, ltree._start)
        for arr in mapped:
            assert not arr.flags.writeable and np.shares_memory(arr, file_map)
        assert all(np.array_equal(a, b) for a, b in zip(ltree._tables, tree._tables))
        assert ltree._active.flags.writeable  # private activity state
        assert not np.shares_memory(ltree._active, file_map)

        assert answers(loaded, queries) == expected
        assert [ltree.count(b) for b in boxes] == [tree.count(b) for b in boxes]
        assert len(ltree) == len(tree)
        assert np.array_equal(ltree._active, tree._active) and ltree._active.all()
        assert ltree.deactivate_group(3) == tree.deactivate_group(3) > 0
        assert [ltree.count(b) for b in boxes] == [tree.count(b) for b in boxes]
        assert ltree.activate_group(3) == tree.activate_group(3) > 0

        # The map is read-only, so a write into it would raise: an insert
        # lands in a private side buffer, and folding that buffer in plants
        # fresh private arrays.
        n_loaded = len(ltree)
        engine.insert_synopsis(engine.synopses[0])
        assert len(ltree) > n_loaded and np.shares_memory(ltree._pts, file_map)
        ltree._rebuild()
        assert len(ltree) > n_loaded and ltree._pts.flags.writeable
        assert not np.shares_memory(ltree._pts, file_map)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_each_restored_object_sets_what_its_constructor_does(
        self, lake, queries, tmp_path, mmap
    ):
        """A load makes the service, executor, repository, datasets, Ptile
        indexes and kd trees through ``__new__`` and sets their attributes
        by hand (and plants an index into each unit engine): each restored
        object sets exactly the attributes its saved twin does, so one a
        constructor gains and the loader forgets is caught here, not at
        the first query that reads it."""

        def attributes(obj) -> set:
            slots = [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
            return set(getattr(obj, "__dict__", ())) | {n for n in slots if hasattr(obj, n)}

        def restored(svc):
            ex = svc.executor
            yield svc
            yield ex
            yield ex.repository
            yield ex.repository.datasets[0]
            for unit in ex._units():
                index = unit.engine._ptile
                yield from (unit, unit.engine, index, index._tree)

        svc = QueryService(
            repository=Repository.from_arrays(lake[:12]), n_shards=2, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE, capacity=2 * N_DATASETS,
        )
        svc.add_datasets(lake[12:14])
        answers(svc, queries)  # builds both base shards and the delta
        svc.save(tmp_path / "svc.snap")
        loaded = load(tmp_path / "svc.snap", mmap=mmap)
        pairs = list(zip(restored(svc), restored(loaded), strict=True))
        assert len(pairs) == 4 + 4 * 3
        for saved, got in pairs:
            assert type(got) is type(saved)
            assert attributes(got) == attributes(saved), type(saved).__name__
        svc.close()
        loaded.close()


class TestExecutorAndEngineKinds:
    def test_wrong_kind_refused(self, lake, tmp_path):
        """The bare ``engine`` / ``sharded_executor`` containers older
        builds wrote are refused by name, whichever entry point opens
        them."""
        svc = QueryService(
            repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE
        )
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        header, data = _read_header(path)
        for kind in ("engine", "sharded_executor", None):
            header["kind"] = kind
            _write_header(path, header, data)
            for reader in (load, QueryService.load, generation_of, inspect):
                with pytest.raises(SnapshotError, match=f"holds kind {kind!r}"):
                    reader(path)

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("flag", [True, False])
    def test_retired_deterministic_keys_are_dropped_on_read(
        self, lake, queries, tmp_path, mmap, flag
    ):
        """An unknown key in a header is ignored: the retired
        ``"deterministic"``, ``true`` as a plain service wrote it and
        ``false`` as a ``federated_node_service`` node did, in the executor
        record.  The file loads, answers identically and rebuilds (the key
        never reaches the executor's constructor)."""
        if flag:
            svc = QueryService(
                repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
                eps=EPS, sample_size=SAMPLE_SIZE,
            )
        else:
            svc = federated_node_service(
                lake[4:12], offset=4, total=N_DATASETS, seed=SEED, n_shards=2,
                bounding_box=Repository.from_arrays(lake).bounding_box(),
                eps=EPS, sample_size=SAMPLE_SIZE,
            )
        svc.warm()
        expected = answers(svc, queries)
        path = tmp_path / "old.snap"
        svc.save(path)
        svc.close()
        header, data = _read_header(path)
        assert header["format"] == VERSION == 7
        executor = header["state"]["executor"]
        assert "deterministic" not in executor
        executor["deterministic"] = flag
        _write_header(path, header, data)
        loaded = load(path, mmap=mmap)
        assert answers(loaded, queries) == expected
        loaded.rebuild()
        assert answers(loaded, queries) == expected
        loaded.close()

    @pytest.mark.parametrize("mmap", [True, False])
    def test_retired_constant_keys_are_ignored_on_read(
        self, lake, queries, tmp_path, mmap
    ):
        """An unknown key in a header is ignored: the retired
        kd leaf size (once per shard unit and once per Ptile index), plan-
        cache capacity and slow-log size.  The file loads, answers
        identically and serves with the module constants, whatever the
        values in it."""
        svc = QueryService(
            repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE, capacity=2 * N_DATASETS,
        )
        svc.add_datasets([lake[0][::2]])  # a delta unit beside the base shards
        svc.warm()
        expected = answers(svc, queries)
        path = tmp_path / "old.snap"
        svc.save(path)
        svc.close()
        header, data = _read_header(path)
        assert header["format"] == VERSION == 7
        state, executor = header["state"], header["state"]["executor"]
        for key, value in (("plan_capacity", 7), ("slow_log_size", 3)):
            assert key not in state
            state[key] = value
        units = [*executor["engines"], executor["delta_engine"]]
        assert len(units) == 3
        for holder in (*units, *(unit["ptile"] for unit in units)):
            assert "leaf_size" not in holder
            holder["leaf_size"] = 4
        _write_header(path, header, data)
        loaded = load(path, mmap=mmap)
        assert answers(loaded, queries) == expected
        assert loaded.plans.capacity == planner.PLAN_CACHE_CAPACITY
        obs = loaded.stats()["observability"]
        assert obs["slow_log_size"] == observability.SLOW_LOG_SIZE
        loaded.rebuild()
        assert answers(loaded, queries) == expected
        loaded.close()

    #: One edit each of the executor record, which states the contract and
    #: the inputs a rebuild re-resolves it from once.  Its fields were once
    #: copied unchecked: a missing seed loaded and the next ``rebuild()``
    #: reseeded the executor with 0, a retyped one loaded and the next
    #: ``rebuild()`` raised ``ValueError``, a retyped ``capacity`` or
    #: ``delta`` loaded and the next ``add_datasets`` raised ``TypeError``,
    #: and ``float()`` / ``int()`` passed a numeric string or truncated a
    #: fraction.  The other rows pin the rest of the table: every field is
    #: required and range-checked, and a nullable one left out is refused
    #: like any other (it once loaded as null, and the next ``rebuild()``
    #: re-resolved another contract).  ``None``: an unknown key, which
    #: loads and rebuilds as if absent.
    EXECUTOR_ROWS = {
        "missing-seed": (lambda ex: ex.pop("seed"), "seed is required"),
        "retyped-seed": (lambda ex: ex.update(seed="x"), "seed must be"),
        "string-seed": (lambda ex: ex.update(seed="7"), "seed must be"),
        "negative-seed": (lambda ex: ex.update(seed=-1), "seed must be"),
        "extra-key": (lambda ex: ex.update(bogus=1), None),
        "missing-eps": (lambda ex: ex.pop("eps"), "eps is required"),
        "eps-out-of-range": (lambda ex: ex.update(eps=1.5), "eps must be"),
        "string-eps": (lambda ex: ex.update(eps="0.2"), "eps must be"),
        "missing-engine": (lambda ex: ex.pop("engine"), "engine is required"),
        "static-engine": (lambda ex: ex.update(engine="rangetree"), "dynamic engine"),
        "retyped-capacity": (lambda ex: ex.update(capacity="x"), "capacity must be"),
        "negative-capacity": (lambda ex: ex.update(capacity=-1), "capacity must be"),
        "retyped-delta": (lambda ex: ex.update(delta="x"), "delta must be"),
        "missing-phi": (lambda ex: ex.pop("phi"), "phi is required"),
        "missing-delta": (lambda ex: ex.pop("delta"), "delta is required"),
        "missing-capacity": (lambda ex: ex.pop("capacity"), "capacity is required"),
        "missing-requested-sample": (
            lambda ex: ex.pop("requested_sample_size"),
            "requested_sample_size is required",
        ),
        "missing-box": (lambda ex: ex.pop("bounding_box"), "bounding_box is required"),
        "phi-out-of-range": (lambda ex: ex.update(phi=1.5), "phi must be"),
        "phi-eff-out-of-range": (lambda ex: ex.update(phi_eff=1.5), "phi_eff must be"),
        "undersized-sample": (lambda ex: ex.update(sample_size=1), "sample_size must be"),
        "fractional-sample": (
            lambda ex: ex.update(sample_size=16.5), "sample_size must be"
        ),
        "undersized-requested-sample": (
            lambda ex: ex.update(requested_sample_size=1),
            "requested_sample_size must be",
        ),
        "string-eps-effective": (
            lambda ex: ex.update(eps_effective="0.3"), "eps_effective must be"
        ),
        "missing-box-flag": (lambda ex: ex.pop("box_pinned"), "box_pinned is required"),
        "string-box-flag": (lambda ex: ex.update(box_pinned="true"), "box_pinned must be"),
        "pinned-without-a-box": (
            lambda ex: ex.update(box_pinned=True, bounding_box=None),
            "box_pinned names no bounding box",
        ),
        "one-sided-box": (
            lambda ex: ex.update(bounding_box={"lo": [0.0]}),
            "bounding_box.hi is required",
        ),
    }

    @pytest.mark.parametrize("row", sorted(EXECUTOR_ROWS))
    def test_the_executor_record_is_read_when_the_file_loads(
        self, lake, queries, tmp_path, row
    ):
        svc = QueryService(
            repository=Repository.from_arrays(lake[:12]), n_shards=2, seed=7,
            eps=EPS, sample_size=SAMPLE_SIZE, capacity=24,
        )
        expected = answers(svc, queries)
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        header, data = _read_header(path)
        edit, match = self.EXECUTOR_ROWS[row]
        edit(header["state"]["executor"])
        _write_header(path, header, data)
        if match is not None:
            with pytest.raises(SnapshotError, match=match):
                load(path)
            return
        loaded = load(path)
        loaded.rebuild()
        assert loaded.executor.seed == 7
        assert answers(loaded, queries) == expected
        loaded.close()

    #: Each nullable key of the executor record, and what it sets.
    NULLABLE = {
        "delta": "_delta_param", "capacity": "capacity", "phi": "_phi_param",
        "requested_sample_size": "_sample_size_param", "bounding_box": "bounding_box",
    }

    @pytest.mark.parametrize("key", sorted(NULLABLE))
    def test_a_nullable_input_written_as_null_loads(self, lake, tmp_path, key):
        """``null`` is what the writer writes for an input never given (and
        for an unresolved box): it loads as None, and the service rebuilds."""
        svc = QueryService(
            repository=Repository.from_arrays(lake[:12]), n_shards=2, seed=7,
            eps=EPS, sample_size=SAMPLE_SIZE, capacity=24,
        )
        path = tmp_path / "svc.snap"
        svc.save(path)  # unbuilt: no unit needs the box
        svc.close()
        header, data = _read_header(path)
        header["state"]["executor"][key] = None
        _write_header(path, header, data)
        loaded = load(path)
        assert getattr(loaded.executor, self.NULLABLE[key]) is None
        loaded.rebuild()
        loaded.close()

    def test_a_file_without_its_requested_sample_size_is_refused(
        self, lake, tmp_path
    ):
        """A service saved with ``sample_size=12`` rebuilds to 12 after a
        round trip.  Its file without ``requested_sample_size`` once loaded
        too, and its next ``rebuild()`` resolved another coreset size."""
        svc = QueryService(
            repository=Repository.from_arrays(lake[:12]), n_shards=2, seed=7,
            eps=EPS, sample_size=12,
        )
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        loaded = load(path)
        loaded.rebuild()
        assert loaded.executor.sample_size == 12
        loaded.close()
        header, data = _read_header(path)
        del header["state"]["executor"]["requested_sample_size"]
        _write_header(path, header, data)
        with pytest.raises(SnapshotError, match="requested_sample_size is required"):
            load(path)

    @pytest.mark.parametrize("pinned", [True, False])
    def test_a_loaded_service_rebuilds_with_the_saved_inputs(
        self, lake, queries, tmp_path, pinned
    ):
        """The rebuild inputs round-trip through the one record: a service
        rebuilt after a load has the contract and the rebuild keywords of
        one rebuilt without the round trip, and answers like it."""
        box = Repository.from_arrays(lake).bounding_box() if pinned else None
        svc = QueryService(
            repository=Repository.from_arrays(lake[:12]), n_shards=2, seed=7,
            eps=EPS, phi=0.05, sample_size=SAMPLE_SIZE, bounding_box=box,
        )
        svc.add_datasets([lake[12]])
        path = tmp_path / "svc.snap"
        svc.save(path)
        loaded = load(path)
        assert loaded.executor._rebuild_kwargs() == svc.executor._rebuild_kwargs()
        for service in (svc, loaded):
            service.rebuild()
        assert loaded.executor._rebuild_kwargs() == svc.executor._rebuild_kwargs()
        for part in ("phi_eff", "sample_size", "eps_effective", "bounding_box"):
            assert getattr(loaded.executor, part) == getattr(svc.executor, part)
        assert answers(loaded, queries) == answers(svc, queries)
        svc.close()
        loaded.close()

    def test_the_header_states_the_contract_once(self, lake, tmp_path):
        """No rebuild keywords beside the executor record, no generator
        state, and a unit's Ptile state is its own arrays alone."""
        svc = QueryService(
            repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE, capacity=2 * N_DATASETS,
        )
        svc.add_datasets([lake[0][::2]])
        svc.warm()
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        header, _data = _read_header(path)
        assert "executor_kwargs" not in header["state"]
        assert "bit_generator" not in json.dumps(header)
        executor = header["state"]["executor"]
        for unit in (*executor["engines"], executor["delta_engine"]):
            assert set(unit) == {"ids", "ptile"}
            assert set(unit["ptile"]) == {"deltas", "coresets", "backend"}

    def test_no_unit_draws_from_its_stream(self, lake, queries, tmp_path):
        """Every unit's generator is still a fresh ``(seed, stream)`` one
        after builds, delta inserts, a rebuild, queries and a load: every
        synopsis an executor holds samples from its own seeded stream.
        That is what lets a file store no generator state."""
        svc = QueryService(
            repository=Repository.from_arrays(lake[:12]), n_shards=2, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE, capacity=2 * N_DATASETS,
        )

        def fresh(executor):
            for stream, unit in enumerate(executor._units()):
                want = np.random.default_rng((executor.seed, stream)).bit_generator.state
                index = unit.engine._ptile
                for rng in (unit.engine._rng, *([] if index is None else [index._rng])):
                    assert rng.bit_generator.state == want

        svc.warm()
        svc.add_datasets([lake[12]])
        answers(svc, queries)  # builds the delta's index
        svc.add_datasets([lake[13]])  # an insert into the built delta tree
        answers(svc, queries)
        fresh(svc.executor)
        svc.save(tmp_path / "svc.snap")
        loaded = load(tmp_path / "svc.snap")
        fresh(loaded.executor)
        for service in (svc, loaded):
            service.rebuild()
            answers(service, queries)
            fresh(service.executor)
            service.close()

    def test_save_refuses_a_unit_in_another_frame(self, lake, tmp_path):
        """A load plants the executor's contract into every unit, so a unit
        whose index was widened past it would come back answering with the
        executor's slack: the file is refused, not written."""
        svc = one_shard_kd_service(lake)
        svc.executor.units[0].engine.ptile_index.eps_effective = 0.9
        path = tmp_path / "svc.snap"
        with pytest.raises(SnapshotError, match="differs from the executor's"):
            svc.save(path)
        assert not path.exists()
        svc.close()

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("older", ["local_ids", "int32_keys_and_active"])
    def test_retired_local_id_column_is_ignored_on_read(
        self, lake, queries, tmp_path, mmap, older
    ):
        """A ``local`` id segment beside a backend's keys, as files from
        builds whose point ids were ``(key, local)`` pairs carried, is not
        read: the file loads under both modes, answers identically, and
        still does after an ingest that overflows a restored kd tree's side
        buffer (a rebuild from the adopted arrays).  A signed ``<i4`` key
        column with an ``active`` mask, as files from builds before narrow
        keys held, is refused.  ``inspect`` reads neither: it counts the
        mapped points from the key columns, as for a file this build
        writes."""
        more = [d[1::2] for d in lake[:4]]

        def build():
            svc = QueryService(
                repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
                eps=EPS, sample_size=SAMPLE_SIZE, capacity=4 * N_DATASETS,
            )
            svc.add_datasets([lake[0][::2]])  # a delta unit beside the base shards
            svc.warm()
            return svc

        reference, path = build(), tmp_path / "old.snap"
        reference.save(path)
        ex = reference.executor
        n_points = sum(
            len(u.engine.ptile_index._tree) for u in (*ex.units, ex.delta)
        )
        assert inspect(path)["n_mapped_points"] == n_points
        header, data = _read_header(path)
        data = bytearray(data)
        executor = header["state"]["executor"]
        units = [*executor["engines"], executor["delta_engine"]]

        def append(hint, values):
            """A new segment at the end of the data section; its ref."""
            data.extend(bytes(-len(data) % 64))
            ref = f"{hint}#{len(header['arrays'])}"
            header["arrays"][ref] = {
                "offset": len(data), "dtype": values.dtype.str, "shape": [values.size],
            }
            data.extend(values.tobytes())
            return ref

        for unit in units:
            backend = unit["ptile"]["backend"]
            assert not {"local", "active"} & set(backend)
            meta = header["arrays"][backend["group"]]
            assert meta["dtype"] == "|u1"  # 16 datasets: one byte a key
            n = meta["shape"][0]
            if older == "local_ids":
                backend["local"] = append("mapped_ids", np.arange(n, dtype="<i4"))
            else:
                start = meta["offset"]
                keys = np.frombuffer(bytes(data[start : start + n]), dtype=np.uint8)
                backend["group"] = append("mapped_ids", keys.astype("<i4"))
                backend["active"] = append("mapped_active", np.ones(n, dtype=bool))
        _write_header(path, header, bytes(data))
        assert inspect(path)["n_mapped_points"] == n_points
        if older == "int32_keys_and_active":
            with pytest.raises(SnapshotError, match="do not describe one kd-tree"):
                load(path, mmap=mmap)
            reference.close()
            return
        loaded = load(path, mmap=mmap)
        lx = loaded.executor
        for unit in (*lx.units, lx.delta):
            assert unit.engine.ptile_index._tree._group.dtype == np.uint8
        assert answers(loaded, queries) == answers(reference, queries)
        for svc in (loaded, reference):
            assert not svc.add_datasets(more)["rebuilt"]
        assert answers(loaded, queries) == answers(reference, queries)
        loaded.close()
        reference.close()

    @pytest.mark.parametrize("mmap", [True, False])
    def test_files_without_a_column_map_hold_one_code_row_a_column(
        self, lake, tmp_path, mmap
    ):
        """Files from builds before shared code columns store the weights
        ``w + 0`` and ``w - 0`` as two equal code rows and node-box columns,
        and no ``columns`` segment.  Such a backend is refused under both
        modes: it is not read as the identity map."""
        svc = QueryService(
            repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE, capacity=4 * N_DATASETS,
        )
        svc.add_datasets([lake[0][::2]])  # a delta unit beside the base shards
        svc.warm()
        path = tmp_path / "old.snap"
        svc.save(path)
        header, data = _read_header(path)
        data = bytearray(data)
        executor = header["state"]["executor"]

        def widened(ref, columns, axis):
            """A new segment: segment ``ref`` with one slice per column."""
            meta = header["arrays"][ref]
            size = int(np.prod(meta["shape"])) * np.dtype(meta["dtype"]).itemsize
            start = meta["offset"]
            values = np.frombuffer(bytes(data[start : start + size]), dtype=meta["dtype"])
            values = np.take(values.reshape(meta["shape"]), columns, axis=axis)
            data.extend(bytes(-len(data) % 64))
            new = f"{ref.split('#')[0]}#{len(header['arrays'])}"
            header["arrays"][new] = {
                "offset": len(data), "dtype": meta["dtype"], "shape": list(values.shape),
            }
            data.extend(values.tobytes())
            return new

        for unit in [*executor["engines"], executor["delta_engine"]]:
            backend = unit["ptile"]["backend"]
            meta = header["arrays"][backend.pop("columns")]
            start = meta["offset"]
            columns = np.frombuffer(bytes(data[start : start + meta["shape"][0]]), "u1")
            assert columns.tolist() == [0, 1, 2, 3, 4, 4]
            backend["codes"] = widened(backend["codes"], columns, 0)
            backend["node_box"] = widened(backend["node_box"], columns, 2)
        _write_header(path, header, bytes(data))
        with pytest.raises(SnapshotError, match="no column map"):
            load(path, mmap=mmap)
        svc.close()

    def test_save_refuses_an_index_with_a_hidden_group(self, lake, queries, tmp_path):
        """No active mask is written, so a unit is saved only with every
        point active — as it always is under its shard lock, where a report
        loop has re-shown what it hid.  A hidden group is refused, and no
        file (or temp file) is left behind."""
        svc = one_shard_kd_service(lake)
        tree = svc.executor.units[0].engine.ptile_index._tree
        assert tree.deactivate_group(3) > 0
        path = tmp_path / "svc.snap"
        with pytest.raises(SnapshotError, match="hidden points"):
            svc.save(path)
        assert list(tmp_path.iterdir()) == []
        tree.activate_group(3)
        svc.save(path)
        assert answers(load(path), queries) == answers(svc, queries)
        svc.close()

    @pytest.mark.parametrize("mmap", [True, False])
    def test_leaf_size_shapes_the_node_table_never_an_answer(
        self, lake, queries, tmp_path, monkeypatch, mmap
    ):
        """A file written under a small kd leaf size — the constant patched
        at save time only — restores trees with that many more nodes; an
        ingest that overflows a restored tree's side buffer replants it at
        the constant in force.  Before and after, the answers are those of
        a service that never saw the small value."""
        first, more = [lake[0][::2], lake[1][::2]], [d[1::2] for d in lake[:4]]

        def build():
            svc = QueryService(
                repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
                engine="kd", eps=EPS, sample_size=SAMPLE_SIZE,
                capacity=4 * N_DATASETS,
            )
            assert not svc.add_datasets(first)["rebuilt"]
            svc.warm()
            return svc

        path = tmp_path / "small.snap"
        with monkeypatch.context() as patch:
            patch.setattr(kd_tree, "DEFAULT_LEAF_SIZE", 4)
            with build() as small:
                small.save(path)
        reference, loaded = build(), load(path, mmap=mmap)

        def delta_tree(svc):
            return svc.executor.delta.engine._ptile._tree

        restored = delta_tree(loaded)
        assert restored._span.shape[1] > delta_tree(reference)._span.shape[1] == 1
        assert answers(loaded, queries) == answers(reference, queries)
        for svc in (loaded, reference):
            assert not svc.add_datasets(more)["rebuilt"]
        # The ingest overflowed the side buffer: same tree object, replanted.
        assert delta_tree(loaded) is restored
        assert restored._buf is None and restored._span.shape[1] == 1
        assert answers(loaded, queries) == answers(reference, queries)
        loaded.close()
        reference.close()

    def test_inspect_kd_reports_codes_not_points(self, lake, tmp_path):
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=3,
            seed=SEED,
            eps=EPS,
            sample_size=SAMPLE_SIZE,
        )
        svc.warm()  # the shard Ptile structures are lazy
        path = tmp_path / "svc.snap"
        svc.save(path, generation=7)
        n_points = sum(len(u.engine.ptile_index._tree) for u in svc.executor.units)
        index_bytes = svc.stats()["executor"]["index_bytes"]
        svc.close()
        summary = inspect(path)
        assert summary["kind"] == "query_service"
        assert summary["generation"] == 7
        assert summary["executor"]["n_datasets"] == N_DATASETS
        assert summary["executor"]["engine"] == "kd"
        # Where the bytes go: by segment kind, and per dataset.
        by_kind = summary["bytes_by_kind"]
        assert sum(by_kind.values()) == summary["data_bytes"]
        assert list(by_kind.values()) == sorted(by_kind.values(), reverse=True)
        per_dataset = summary["bytes_per_dataset"]
        assert per_dataset["file"] == summary["file_bytes"] // N_DATASETS
        assert per_dataset["mapped_codes"] == by_kind["mapped_codes"] // N_DATASETS
        assert "mapped_points" not in by_kind
        assert {"mapped_codes", "mapped_levels", "node_table", "coreset"} <= set(by_kind)
        assert "mapped_active" not in by_kind  # every saved point is active
        # One uint8 key a point: 16 datasets.
        assert summary["n_mapped_points"] == by_kind["mapped_ids"] == n_points
        # uint8 ranks, the weights w + 0 and w - 0 stored once, and each
        # shard's one-byte-a-column map.
        assert by_kind["mapped_codes"] == (4 * DIM + 1) * n_points + 3 * (4 * DIM + 2)
        per_point = summary["bytes_per_mapped_point"]
        assert per_point["file"] == round(summary["file_bytes"] / n_points, 2)
        assert 4 * DIM + 2 + 1 < per_point["index"] < 20  # codes + keys, +
        # What /stats reports is the same arrays plus the private masks and
        # node counters: within a few bytes per point of what the file holds.
        assert abs(index_bytes / n_points - per_point["index"]) < 4
        # No segment per dataset: 3 shards x (ids, deltas, coresets, 7
        # backend arrays), the executor's tombstones, points, offsets,
        # names, seeds and indexes, and the cache's four columns.
        assert summary["n_arrays"] == 3 * 10 + 6 + 4
        assert summary["cache_entries"] == 0
        assert summary["format"] == VERSION == 7
        assert summary["header_bytes"] < 8192  # per-file and per-unit facts
        assert summary["executor"]["n_shards"] == 3

    def test_small_2d_lake_stays_under_32_bytes_per_mapped_point(self, tmp_path):
        """The constant of the space bound, end to end: everything the file
        holds (datasets, coresets, header, padding included) per mapped
        point.  Float64 columns alone were 80 B; this pins the coded
        layout so it cannot drift back silently."""
        small = synthetic_data_lake(8, 2, np.random.default_rng(SEED), median_size=80)
        svc = QueryService(
            repository=Repository.from_arrays(small), n_shards=2, seed=SEED,
            eps=EPS, sample_size=8,
        )
        svc.warm()
        path = tmp_path / "small.snap"
        svc.save(path)
        svc.close()
        summary = inspect(path)
        assert summary["n_mapped_points"] > 1000
        assert summary["bytes_per_mapped_point"]["file"] <= 32.0
        assert "mapped_points" not in summary["bytes_by_kind"]


def _read_header(path):
    """``(header tree, data section bytes)`` of a container file."""
    blob = path.read_bytes()
    hlen, data_start = struct.unpack_from("<QQ", blob, 16)
    return json.loads(blob[32 : 32 + hlen]), blob[data_start:]


def _write_header(path, header, data):
    """Rewrite a container around a (tampered) header tree: the data
    section moves with the header length, segment offsets are relative."""
    raw = json.dumps(header, separators=(",", ":")).encode()
    data_start = (32 + len(raw) + 63) // 64 * 64
    blob = path.read_bytes()[:16] + struct.pack("<QQ", len(raw), data_start) + raw
    path.write_bytes(blob.ljust(data_start, b"\0") + data)


def _segment(path, hint, dtype=None):
    """``(ref, meta, file offset)`` of the first segment of one kind (and,
    where a kind holds several arrays, of one dtype)."""
    blob = path.read_bytes()
    hlen, data_start = struct.unpack_from("<QQ", blob, 16)
    arrays = json.loads(blob[32 : 32 + hlen])["arrays"]
    ref, meta = next(
        (r, m) for r, m in arrays.items()
        if r.startswith(hint + "#") and dtype in (None, m["dtype"])
    )
    return ref, meta, data_start + meta["offset"]


def _poke(path, offset, raw: bytes):
    blob = bytearray(path.read_bytes())
    blob[offset : offset + len(raw)] = raw
    path.write_bytes(bytes(blob))


def _rewrite_header(path, hint, old: str, new: str):
    """Swap one equal-length token inside a segment's header entry (every
    offset stays put)."""
    ref, _meta, _offset = _segment(path, hint)
    blob = path.read_bytes()
    assert len(old) == len(new)
    at = blob.index(old.encode(), blob.index(f'"{ref}":{{'.encode()))
    _poke(path, at, new.encode())


class TestHostileBackendArrays:
    """A kd snapshot's codes index its level tables at the next rebuild —
    i.e. inside ``POST /datasets``.  A file whose arrays disagree, or that
    names an engine without a persisted form, must be refused at load with
    ``SnapshotError``, under mmap and copy alike."""

    @pytest.fixture()
    def snap(self, lake, tmp_path):
        path = tmp_path / "svc.snap"
        one_shard_kd_service(lake).save(path)
        load(path)  # pristine: loads
        return path

    @staticmethod
    def refused(path, match):
        for mmap in (True, False):
            with pytest.raises(SnapshotError, match=match):
                load(path, mmap=mmap)

    def test_code_beyond_its_level_table(self, snap):
        _ref, meta, offset = _segment(snap, "mapped_codes")
        assert meta["dtype"] == "|u1"
        _poke(snap, offset + 5, b"\xff")
        self.refused(snap, "exceeds its column's level count")

    def test_node_box_beyond_the_level_range(self, snap):
        # The node table is two arrays: int32 spans and the uint8 boxes.
        _ref, _meta, offset = _segment(snap, "node_table", dtype="|u1")
        _poke(snap, offset, b"\xff")
        self.refused(snap, "exceeds its column's level count")

    def test_unsorted_level_table(self, snap):
        _ref, _meta, offset = _segment(snap, "mapped_levels")
        raw = snap.read_bytes()[offset : offset + 16]
        _poke(snap, offset, raw[8:] + raw[:8])
        self.refused(snap, "strictly increasing")

    def test_nan_level(self, snap):
        _ref, meta, offset = _segment(snap, "mapped_levels")
        last = offset + 8 * (meta["shape"][0] - 1)
        _poke(snap, last, struct.pack("<d", float("nan")))
        self.refused(snap, "strictly increasing and NaN-free")

    def test_level_table_not_float64(self, snap):
        _rewrite_header(snap, "mapped_levels", '"<f8"', '"<i8"')
        self.refused(snap, "level tables do not match")

    def test_signed_code_dtype(self, snap):
        _rewrite_header(snap, "mapped_codes", '"|u1"', '"|i1"')
        self.refused(snap, "do not describe one kd-tree")

    def test_float_keys(self, snap):
        """Regression: a key column retyped to float loaded, and reported
        float dataset keys."""
        _ref, meta, _offset = _segment(snap, "mapped_ids")
        _rewrite_header(snap, "mapped_ids", f'"{meta["dtype"]}"', '"<f4"')
        self.refused(snap, "int dataset keys")

    def test_float_codes_refused_by_from_arrays(self, snap):
        """No one-byte float exists to retype the segment to; the check is
        the same ``dtype.kind`` test the signed case trips."""
        from repro.index.kd_tree import DynamicKDTree

        arrays = load(snap).executor.units[0].engine.ptile_index._tree.to_arrays()
        arrays["codes"] = arrays["codes"].astype(np.float16)
        with pytest.raises(ValueError, match="do not describe one kd-tree"):
            DynamicKDTree.from_arrays(arrays)

    @pytest.mark.parametrize(
        "columns, match",
        [
            ([0, 1, 2, 3, 4], "level tables do not match"),  # one short
            ([0, 1, 2, 3, 4, 5], "first-use order"),  # past the code rows
            ([0.0, 1.0, 2.0, 3.0, 4.0, 4.0], "integer vector"),
            ([0, 1, 2, 2, 4, 4], "first-use order"),  # row 3 holds nothing
            ([0, 1, 2, 3, 4, 0], "share a level table"),  # a weight on an axis's codes
            (None, "no column map"),
        ],
    )
    def test_hostile_column_map(self, snap, columns, match):
        """The map from a unit's six columns to its five code rows (the
        weights ``w ± 0`` share one) is checked at load like the codes:
        wrong length, out of range, non-integer, a row nothing maps to,
        columns of different tables on one row, or no map at all."""
        header, data = _read_header(snap)
        backend = header["state"]["executor"]["engines"][0]["ptile"]["backend"]
        assert header["arrays"][backend["columns"]]["shape"] == [4 * DIM + 2]
        if columns is None:
            del backend["columns"]
        else:
            values = np.array(columns)  # int64, or float64 for the float row
            data = data + bytes(-len(data) % 64)
            backend["columns"] = ref = f"mapped_codes#{len(header['arrays'])}"
            header["arrays"][ref] = {
                "offset": len(data), "dtype": values.dtype.str, "shape": [values.size],
            }
            data += values.tobytes()
        _write_header(snap, header, data)
        self.refused(snap, match)

    def test_coreset_segment_of_the_wrong_shape(self, snap):
        _ref, meta, _offset = _segment(snap, "coreset")
        n, size, dim = meta["shape"]
        _rewrite_header(snap, "coreset", f"[{n},{size},{dim}]", f"[{size},{n},{dim}]")
        self.refused(snap, "coreset segment does not match")

    @pytest.mark.parametrize("holder", ["executor"])
    @pytest.mark.parametrize("engine", ["rangetree", "columnar"])
    def test_header_naming_the_static_engine_is_refused_not_replanted(
        self, snap, holder, engine
    ):
        """Only the kd engine has a persisted form: the static ``rangetree``
        (it used to be rebuilt from the points) or the retired ``columnar``
        store as the executor's engine, which every unit serves with, is
        refused by name.  A kd file whose executor said ``columnar`` used to
        load and report that engine over kd shards."""
        header, data = _read_header(snap)
        state = header["state"][holder]
        assert state["engine"] == "kd"
        state["engine"] = engine
        _write_header(snap, header, data)
        self.refused(snap, f"'{engine}'")

    def test_coresets_are_views_of_one_segment(self, snap):
        index = load(snap).executor.units[0].engine.ptile_index
        first, last = index.coreset(0), index.coreset(N_DATASETS - 1)
        assert first.shape == (SAMPLE_SIZE, DIM) and not first.flags.writeable
        assert first.base is not None and first.base is last.base


class TestHeaderHoldsPerFileFacts:
    def test_header_length_does_not_grow_with_datasets_or_cache_entries(
        self, tmp_path
    ):
        """Datasets, synopses, unit ids, Ptile deltas and cache entries are
        columns: 16 times the datasets and over 8 times the cached leaves
        move the header by a few digits (segment offsets, sizes), never by
        an item's record."""
        header_bytes, entries = {}, {}
        for n in (16, 256):
            small = synthetic_data_lake(n, DIM, np.random.default_rng(SEED), median_size=20)
            svc = QueryService(
                repository=Repository.from_arrays(small), n_shards=2, seed=SEED,
                eps=EPS, sample_size=4, cache_capacity=n,
            )
            svc.search_batch(batched_query_workload(
                n, DIM, np.random.default_rng(SEED + 1), duplicate_leaf_rate=0.0
            ))
            path = tmp_path / f"{n}.snap"
            svc.save(path)
            summary = inspect(path)
            header_bytes[n], entries[n] = summary["header_bytes"], summary["cache_entries"]
            assert entries[n] == len(svc.cache)
            svc.close()
        assert entries[16] == 16 and entries[256] > 8 * 16
        assert abs(header_bytes[256] - header_bytes[16]) < 256, header_bytes


class TestErrorPaths:
    @pytest.fixture()
    def snap(self, lake, tmp_path):
        svc = QueryService(
            repository=Repository.from_arrays(lake), n_shards=2, seed=SEED,
            eps=EPS, sample_size=SAMPLE_SIZE
        )
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load(tmp_path / "nope.snap")

    def test_bad_magic(self, snap):
        blob = snap.read_bytes()
        snap.write_bytes(b"NOTASNAP" + blob[8:])
        with pytest.raises(SnapshotError, match="bad magic"):
            load(snap)

    # 1: pre-bitset-only files; 2: executor state still named a shard pool
    # width; 3: row-major points + int64 id matrix; 4: float64 kd columns;
    # 5: per-item JSON in the header; 6: the contract once per unit and in
    # the rebuild keywords, and every unit's generator state
    @pytest.mark.parametrize("version", [999, 1, 2, 3, 4, 5, 6])
    def test_version_mismatch(self, snap, version):
        blob = bytearray(snap.read_bytes())
        blob[8:12] = struct.pack("<I", version)
        snap.write_bytes(bytes(blob))
        for reader in (load, inspect, generation_of):
            with pytest.raises(SnapshotError, match=f"version {version} .*rebuild"):
                reader(snap)

    def test_truncated_data_section(self, snap):
        snap.write_bytes(snap.read_bytes()[: os.path.getsize(snap) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            load(snap)

    @pytest.mark.parametrize("length", [2**40, 2**64 - 1])
    def test_header_length_past_the_file(self, snap, length):
        """Read as a truncated header, not as an allocation of that size
        (a ``MemoryError`` / ``OverflowError`` before)."""
        blob = bytearray(snap.read_bytes())
        blob[16:24] = struct.pack("<Q", length)
        snap.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="truncated header"):
            generation_of(snap)

    def test_truncated_preamble(self, snap):
        snap.write_bytes(snap.read_bytes()[:16])
        with pytest.raises(SnapshotError, match="too short"):
            load(snap)

    def test_corrupt_header(self, snap):
        blob = bytearray(snap.read_bytes())
        hlen = struct.unpack_from("<Q", blob, 16)[0]
        blob[32 : 32 + hlen] = b"\xff" * hlen
        snap.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="corrupt header"):
            load(snap)

    def test_nesting_past_the_stack_is_refused(self, snap):
        """A header nested deeper than ``json`` or the key-shape walk can
        recurse: ``SnapshotError``, not a ``RecursionError`` that the
        fleet's pollers would not catch."""
        blob = snap.read_bytes()
        raw = b"[" * 100_000
        snap.write_bytes(blob[:16] + struct.pack("<QQ", len(raw), 64 * 1600) + raw)
        for reader in (generation_of, inspect, load):
            with pytest.raises(SnapshotError, match="corrupt header"):
                reader(snap)
        snap.write_bytes(blob)
        header, data = _read_header(snap)
        shape = "f"
        for _ in range(900):  # json reads it; a walk two frames a level does not
            shape = [shape]
        header["state"]["cache"]["key_shapes"] = [shape]
        _write_header(snap, header, data)
        with pytest.raises(SnapshotError, match="RecursionError"):
            load(snap)

    def test_a_header_without_its_generation_is_refused(self, snap):
        """It once read as generation 0: a fleet reader never followed the
        file, and a respawned writer restarted the count."""
        header, data = _read_header(snap)
        del header["generation"]
        _write_header(snap, header, data)
        for reader in (load, inspect, generation_of):
            with pytest.raises(SnapshotError, match="generation is required"):
                reader(snap)

    def test_magic_constant_is_pinned(self):
        # The on-disk format is a compatibility surface; changing the
        # magic silently would orphan every existing snapshot.
        assert MAGIC == b"REPROSNP"

    def test_header_is_json(self, snap):
        with open(snap, "rb") as f:
            pre = f.read(32)
            hlen = struct.unpack_from("<Q", pre, 16)[0]
            header = json.loads(f.read(hlen))
        assert header["kind"] == "query_service"
        assert set(header["arrays"]) and "state" in header


def _malformations(node, path=()):
    """Every single-site malformation of a JSON tree as ``(path, edit)``:
    drop each key, retype each scalar (and push each int out of range),
    truncate each list."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,), "drop"
            yield from _malformations(child, path + (key,))
    elif isinstance(node, list):
        if node:
            yield path, "truncate"
        for i, child in enumerate(node):
            yield from _malformations(child, path + (i,))
    else:
        yield path, "retype"
        if isinstance(node, int) and not isinstance(node, bool):
            yield path, "negate"


def _malformed(tree, path, edit):
    """A deep copy of ``tree`` with one malformation applied."""
    tree = json.loads(json.dumps(tree))
    *parents, last = path
    node = tree
    for step in parents:
        node = node[step]
    if edit == "drop":
        del node[last]
    elif edit == "truncate":
        node[last] = node[last][:-1]
    elif edit == "negate":
        node[last] = -1
    else:
        node[last] = 7 if isinstance(node[last], str) else "x"
    return tree


def _append_segment(header, data: bytes, hint: str, values) -> tuple[str, bytes]:
    """``(ref, data)``: ``values`` as a new segment at the end of the data
    section, registered in ``header``'s segment table."""
    data = data + bytes(-len(data) % 64)
    ref = f"{hint}#{len(header['arrays'])}"
    header["arrays"][ref] = {
        "offset": len(data), "dtype": values.dtype.str, "shape": list(values.shape),
    }
    return ref, data + values.tobytes()


def _column(header, data: bytes, ref: str) -> np.ndarray:
    """A writable copy of segment ``ref``."""
    meta = header["arrays"][ref]
    dtype = np.dtype(meta["dtype"])
    size = math.prod(meta["shape"]) * dtype.itemsize
    raw = data[meta["offset"] : meta["offset"] + size]
    return np.frombuffer(raw, dtype=dtype).reshape(meta["shape"]).copy()


def _with_column(header, data: bytes, ref: str, values) -> bytes:
    """``data`` with segment ``ref``'s bytes replaced (same size)."""
    at = header["arrays"][ref]["offset"]
    raw = np.ascontiguousarray(values).tobytes()
    return data[:at] + raw + data[at + len(raw):]


class TestGeneratedHeaderSweep:
    """Malformed state is a ``SnapshotError`` — what ``supervisor._watch``
    and ``_respawn_due`` catch — or a service that still answers; never a
    ``KeyError`` / ``TypeError`` / ``ValueError`` / ``IndexError`` out of
    the decoder, and never one deferred to the first query.  The cases are
    generated from the header tree and the columns of one saved service
    that has a built and an unbuilt shard, a delta shard, a tombstone and
    warm cache entries, so every branch of the state layout is in the
    tree."""

    @pytest.fixture(scope="class")
    def saved(self, lake, queries, tmp_path_factory):
        svc = QueryService(
            repository=Repository.from_arrays(lake[:5]), n_shards=2, seed=SEED,
            eps=EPS, sample_size=4, capacity=8, cache_capacity=8,
        )
        svc.add_datasets([lake[5]])
        svc.remove_datasets([1])
        answers(svc, queries[:3])  # builds the shards, warms the cache
        svc.executor.units[1].engine._ptile = None  # one shard stays lazy
        path = tmp_path_factory.mktemp("sweep") / "svc.snap"
        svc.save(path, generation=3)
        svc.close()
        return path, *_read_header(path)

    @staticmethod
    def _read_all(path, queries, mmap, label, escaped) -> int:
        """Run the three readers over one tampered file; returns how many
        refused it, appends what escaped as anything else."""
        refused = 0
        for reader in (generation_of, inspect, lambda p: load(p, mmap=mmap)):
            try:
                got = reader(path)
                if isinstance(got, QueryService):
                    answers(got, queries[:3])
            except SnapshotError:
                refused += 1
            except Exception as exc:  # noqa: BLE001 - the point of the test
                escaped.append((*label, type(exc).__name__, str(exc)[:80]))
        return refused

    def _sweep_tree(self, saved, queries, tmp_path, mmap, cases):
        pristine, header, data = saved
        path = tmp_path / "tampered.snap"
        path.write_bytes(pristine.read_bytes())
        escaped, refused = [], 0
        for where, edit in cases:
            _write_header(path, _malformed(header, where, edit), data)
            refused += self._read_all(path, queries, mmap, (where, edit), escaped)
        assert escaped == []
        return refused

    @pytest.mark.parametrize("mmap", [True, False])
    def test_no_malformation_escapes_as_anything_but_snapshot_error(
        self, saved, queries, tmp_path, mmap
    ):
        cases = list(_malformations(saved[1]))
        assert len(cases) > 400  # the sweep covers the tree, not a sample
        refused = self._sweep_tree(saved, queries, tmp_path, mmap, cases)
        assert refused > len(cases)  # most malformations are refused, by name

    #: Segment kinds whose values the reader checks by range.  Dataset
    #: points are checked only for being finite, which this sweep's values
    #: would not break: ``V6_COLUMN_ROWS`` write a NaN and an infinity
    #: there.  The names are one JSON text, not a column:
    #: ``V6_COLUMN_ROWS`` break it twice.
    CHECKED_KINDS = (
        "cache_keys", "cache_watermarks", "cache_words", "unit_ids", "ptile_deltas",
        "removed", "dataset_offsets", "synopsis_seeds", "synopsis_index",
    )

    def test_no_column_tampering_escapes_either(self, saved, queries, tmp_path):
        """The same contract for the values in the columns that replaced
        the per-item header records: the first, a middle and the last
        element of each, in turn, set to the dtype's largest value, to 0
        and to one past itself (an integer column: shape ids, watermarks,
        offsets, ids, seeds, bitmap words), or to NaN, 0.5, 2 and -1 (a
        float column: key scalars, Ptile deltas).  ``V6_COLUMN_ROWS`` pin
        each check by name.  One mode: both read a column's values alike."""
        pristine, header, data = saved
        path = tmp_path / "tampered.snap"
        path.write_bytes(pristine.read_bytes())
        escaped, refused, n_cases, swept = [], 0, 0, set()
        for ref in header["arrays"]:
            if ref.split("#")[0] not in self.CHECKED_KINDS:
                continue
            swept.add(ref.split("#")[0])
            column = _column(header, data, ref)
            if column.dtype.kind == "f":
                values = [float("nan"), 0.5, 2.0, -1.0]
            else:
                values = [np.iinfo(column.dtype).max, 0, None]
            for i in sorted({0, column.size // 2, column.size - 1} - {-1}):
                for value in values:
                    edited = column.copy()
                    edited[i] = edited[i] + 1 if value is None else value
                    _write_header(path, header, _with_column(header, data, ref, edited))
                    n_cases += 1
                    refused += self._read_all(path, queries, True, (ref, i, value), escaped)
        assert swept == set(self.CHECKED_KINDS) and n_cases > 90
        assert escaped == []
        # generation_of and inspect read no column, and a seed, a key's
        # float or an id kept in range still loads: load refuses the rest.
        assert refused > n_cases // 3

    #: Unit state the generated sweep cannot make (it only drops, truncates
    #: and retypes), each one edit of the saved executor state — shards
    #: ``[[0, 1, 2], [3, 4]]`` with shard 1 lazy, delta ``[5]``, dataset 1
    #: removed — as a unit's ``ids`` column; ``None`` drops the delta unit.
    #: Each loaded and then answered wrongly, or failed on the first
    #: query, before units were restored whole.
    UNIT_ROWS = {
        "descending-ids": (0, [2, 1, 0], "strictly ascending"),
        "dataset-in-two-units": (1, [2, 3, 4], "two units"),
        "live-dataset-in-no-unit": (1, [4], "not datasets 0..5"),
        "delta-ids-without-engine": ("delta", None, "not datasets 0..5"),
        "delta-engine-without-ids": ("delta", [], "empty"),
    }

    @pytest.mark.parametrize("row", sorted(UNIT_ROWS))
    def test_units_that_do_not_restore_whole_are_refused(self, saved, tmp_path, row):
        pristine, header, data = saved
        unit, ids, match = self.UNIT_ROWS[row]
        tampered = json.loads(json.dumps(header))
        executor = tampered["state"]["executor"]
        if ids is None:
            executor["delta_engine"] = None
        else:
            holder = executor["delta_engine" if unit == "delta" else "engines"]
            holder = holder if unit == "delta" else holder[unit]
            holder["ids"], data = _append_segment(
                tampered, data, "unit_ids", np.array(ids, dtype=np.uint8)
            )
        path = tmp_path / "tampered.snap"
        path.write_bytes(pristine.read_bytes())
        _write_header(path, tampered, data)
        with pytest.raises(SnapshotError, match=match):
            load(path)

    #: Cache entries that can only give wrong answers, and the rest of the
    #: columns' checks, by name: (segment kind and
    #: dtype, element, value, message).  Element ``"int-slot"`` is the Pref
    #: key's rank.
    V6_COLUMN_ROWS = {
        "watermark-past-the-datasets": (
            ("cache_watermarks", "|u1"), 0, 64, r"watermark is outside \[0, 6\]"
        ),
        "watermark-without-its-words": (
            ("cache_watermarks", "|u1"), 0, 65, "not the watermarks' words"
        ),
        "bit-past-the-watermark": (
            ("cache_words", "<u8"), 0, 1 << 63, "sets bits past its watermark"
        ),
        "shape-id-out-of-range": (
            ("cache_keys", "|u1"), 0, 2, r"cache shape ids holds a value outside \[0, 1\]"
        ),
        "non-integral-int-slot": (("cache_keys", "<f8"), "int-slot", 2.5, "holds 2.5"),
        "non-monotone-offsets": (
            ("dataset_offsets", None), 2, 0, "offsets are not strictly ascending"
        ),
        "offset-past-the-points": (
            ("dataset_offsets", None), 3, 10**4, "outside",
        ),
        "nan-point": (("dataset_points", None), 0, float("nan"), "not all finite"),
        "infinite-point": (("dataset_points", None), -1, -float("inf"), "not all finite"),
        "unit-id-past-the-datasets": (("unit_ids", "|u1"), 0, 6, "outside"),
        "delta-out-of-range": (("ptile_deltas", "<f8"), 0, 1.0, r"in \[0, 1\)"),
        "names-not-utf-8": (("dataset_names", "|u1"), 0, 0xFF, "UnicodeDecodeError"),
        "names-not-json": (("dataset_names", "|u1"), 0, ord("{"), "JSONDecodeError"),
    }

    @pytest.mark.parametrize("row", sorted(V6_COLUMN_ROWS))
    def test_version_6_columns_out_of_range_are_refused(self, saved, tmp_path, row):
        pristine, header, data = saved
        (kind, dtype), at, value, match = self.V6_COLUMN_ROWS[row]
        ref = next(
            r for r, m in header["arrays"].items()
            if r.split("#")[0] == kind and dtype in (None, m["dtype"])
        )
        if at == "int-slot":
            cache = header["state"]["cache"]
            ids = _column(header, data, cache["key_shape_ids"]).tolist()
            tags = [
                tag for i in ids
                for tag in re.findall(r'"([bfi])"', json.dumps(cache["key_shapes"][i]))
            ]
            at = tags.index("i")
        column = _column(header, data, ref)
        column[at] = value
        path = tmp_path / "tampered.snap"
        path.write_bytes(pristine.read_bytes())
        _write_header(path, header, _with_column(header, data, ref, column))
        for mmap in (True, False):
            with pytest.raises(SnapshotError, match=match):
                load(path, mmap=mmap)

    def test_a_shape_that_reads_fewer_slots_is_refused(self, saved, tmp_path):
        """A key shape one slot short leaves the scalars column one value
        per entry of that shape too long."""
        pristine, header, data = saved
        tampered = json.loads(json.dumps(header))
        shape = tampered["state"]["cache"]["key_shapes"][0]
        shape[-1] = shape[-1][:-1]  # the leaf's theta loses a flag
        path = tmp_path / "tampered.snap"
        path.write_bytes(pristine.read_bytes())
        _write_header(path, tampered, data)
        with pytest.raises(SnapshotError, match="one float64 value per slot"):
            load(path)

    #: dtype -> (another of the same item size, one of a different size).
    SWAPS = {"<f8": ("<i8", "<f4"), "<i8": ("<f8", "<i4"), "<u8": ("<f8", "<u4"),
             "<i4": ("<f4", "<i8"), "<u4": ("<i4", "<u2"), "<u2": ("<i2", "<u4"),
             "|u1": ("|b1", "<u2"), "|b1": ("|u1", "<u2")}

    @pytest.mark.parametrize("mmap", [True, False])
    def test_no_segment_tampering_escapes_either(self, saved, queries, tmp_path, mmap):
        """The same contract for the segment table and the data section:
        a file cut at every segment boundary and one byte either side,
        ``data_start`` moved, segments overlapping, re-typed, re-shaped or
        placed past the file."""
        pristine, header, data = saved
        blob = pristine.read_bytes()
        hlen, data_start = struct.unpack_from("<QQ", blob, 16)
        path = tmp_path / "tampered.snap"
        escaped, refused, n_cases = [], 0, 0

        def run(label, raw=None):
            nonlocal refused, n_cases
            if raw is not None:
                path.write_bytes(raw)
            n_cases += 1
            refused += self._read_all(path, queries, mmap, label, escaped)

        arrays = header["arrays"]
        assert {m["dtype"] for m in arrays.values()} <= set(self.SWAPS)
        cuts = set()
        for m in arrays.values():
            start = data_start + m["offset"]
            end = start + math.prod(m["shape"]) * np.dtype(m["dtype"]).itemsize
            cuts.update(c for edge in (start, end) for c in (edge - 1, edge, edge + 1))
        for cut in sorted(c for c in cuts if c < len(blob)):
            run(("cut", cut), blob[:cut])
        for moved in (0, 31, hlen, data_start - 64, data_start - 1, data_start + 1,
                      data_start + 64, len(blob), len(blob) + 64, 2**63):
            run(("data_start", moved),
                blob[:24] + struct.pack("<Q", moved) + blob[32:])
        refs = list(arrays)
        for ref, other in zip(refs, refs[1:] + refs[:1]):
            m = arrays[ref]
            edits = [("offset", arrays[other]["offset"]),  # two segments overlap
                     ("offset", m["offset"] + 1),
                     ("offset", len(data)), ("offset", len(data) + 2**40)]
            edits += [("dtype", d) for d in self.SWAPS[m["dtype"]]]
            for axis in range(len(m["shape"])):
                for step in (-1, 1):
                    shape = list(m["shape"])
                    shape[axis] += step
                    edits.append(("shape", shape))
            for field, value in edits:
                tampered = json.loads(json.dumps(header))
                tampered["arrays"][ref][field] = value
                _write_header(path, tampered, data)
                run((ref, field, value))
        assert n_cases > 300
        assert escaped == []
        assert refused > n_cases
