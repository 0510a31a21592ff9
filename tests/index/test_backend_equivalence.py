"""Cross-backend equivalence: the kd-tree and the range tree must agree.

This is the safety net of the pluggable-backend refactor: every registered
:class:`~repro.index.backend.RangeSearchBackend` is driven with the same
random mapped point sets, orthant queries and activation sequences, and
must give the key multisets of a brute-force scan of the active points
from ``report_many``, its key sets from ``report_groups_many``, its sizes
from ``count``, and a member of them from ``report_first``.  Where the
static range tree cannot follow (inserts, removals, bounds on the
kd-tree's coded levels), a scan of the live points or a float
:class:`~repro.index.columnar.ColumnarStore` over them is the independent
peer.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.index import ENGINES, QueryBox, build_backend, kd_tree
from repro.index.backend import DYNAMIC_ENGINES
from repro.index.columnar import ColumnarStore

#: ``small_leaves`` is set once per test, never by an example.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]

#: The dynamic point stores by name: the served kd engine, and the float
#: column store every kd insert lands in first (its side buffer), built
#: from the same ``(points, ids)``.
DYNAMIC_STORES = {
    "kd": lambda pts, ids: build_backend(pts, ids, "kd"),
    "columnar": ColumnarStore,
}


def random_orthant(rng: np.random.Generator, dim: int) -> QueryBox:
    """A random box mixing open/closed and one-sided constraints."""
    cons = []
    for _ in range(dim):
        lo, hi = sorted(rng.uniform(-0.2, 1.2, size=2))
        kind = rng.integers(0, 4)
        if kind == 0:
            lo = -np.inf
        elif kind == 1:
            hi = np.inf
        cons.append((float(lo), float(hi), bool(rng.integers(2)), bool(rng.integers(2))))
    return QueryBox(cons)


def build_all(pts, ids):
    return {e: build_backend(pts, list(ids), e) for e in ENGINES}


def n_visible(backend) -> int:
    """How many points queries see: the count of the whole space."""
    return backend.count(QueryBox.unbounded(backend.dim))


def scan(points, keys, box: QueryBox, active=None) -> list[int]:
    """The sorted keys of the (active) points inside ``box`` by a
    brute-force scan of every point: the reference of the batch kernels."""
    hit = box.batch.contains_points(np.asarray(points))[0]
    if active is not None:
        hit &= active
    return sorted(np.asarray(keys)[hit].tolist())


def keys_in(backend, box: QueryBox) -> list[int]:
    """The sorted keys ``report_many`` gives one box, one per point."""
    return sorted(np.asarray(backend.report_many([box])[0]).tolist())


def key_arrays(backend, boxes) -> list[list[int]]:
    """``report_groups_many(boxes)`` as lists, one per box, each checked to
    be a 1-D integer ``ndarray``, strictly ascending: the one form a
    batched answer takes.  Callers compare the lists with their reference
    (a scan's distinct keys, or an oracle's)."""
    out = backend.report_groups_many(boxes)
    assert len(out) == len(boxes)
    for keys in out:
        assert isinstance(keys, np.ndarray) and keys.ndim == 1, type(keys)
        assert keys.dtype.kind in "iu", keys.dtype
        assert bool(np.all(np.diff(keys.astype(np.int64)) > 0)), keys
    return [keys.tolist() for keys in out]


def assert_agree(backends: dict, box: QueryBox, points, keys, active=None) -> None:
    """Every backend answers ``box`` as a scan of the active points does."""
    ref = scan(points, keys, box, active)
    for e, b in backends.items():
        assert keys_in(b, box) == ref, f"report_many mismatch on {e}"
        assert key_arrays(b, [box]) == [sorted(set(ref))], f"groups mismatch on {e}"
        assert b.count(box) == len(ref), f"count mismatch on {e}"
        first = b.report_first(box)
        assert (first is None) == (not ref), f"report_first emptiness on {e}"
        if ref:
            assert first in ref, f"report_first membership on {e}"


class TestStaticEquivalence:
    @settings(max_examples=40, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 80), dim=st.integers(1, 4))
    def test_random_orthants(self, small_leaves, seed, n, dim):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(n, dim))
        ids = [i % 7 for i in range(n)]
        backends = build_all(pts, ids)
        for _ in range(5):
            assert_agree(backends, random_orthant(rng, dim), pts, ids)

    def test_duplicate_coordinates(self, small_leaves):
        # Ties on the split axis stress the tree partitioning.
        pts = np.array([[0.5, 0.5]] * 9 + [[0.25, 0.75]] * 4)
        ids = [i % 3 for i in range(13)]
        backends = build_all(pts, ids)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert_agree(backends, random_orthant(rng, 2), pts, ids)


class TestActivationEquivalence:
    @settings(max_examples=25, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 60), plain=st.booleans())
    def test_random_toggle_sequences(self, small_leaves, seed, n, plain):
        """Toggles are per group; with distinct keys every point is its
        own group, so that half of the cases toggles point by point."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(size=(n, dim))
        ids = list(range(n)) if plain else [i % 5 for i in range(n)]
        backends = build_all(pts, ids)
        size = {}
        for key in ids:
            size[key] = size.get(key, 0) + 1
        active = {g: True for g in size}
        for _ in range(30):
            g = ids[int(rng.integers(n))]
            for b in backends.values():
                toggle = b.deactivate_group if active[g] else b.activate_group
                assert toggle(g) == size[g]
            active[g] = not active[g]
            mask = np.array([active[key] for key in ids])
            if rng.integers(3) == 0:
                assert_agree(backends, random_orthant(rng, dim), pts, ids, mask)
        assert_agree(backends, QueryBox.unbounded(dim), pts, ids, mask)
        n_active = sum(size[g] for g in size if active[g])
        for e, b in backends.items():
            assert n_visible(b) == n_active, f"visible-point count mismatch on {e}"

    def test_report_loop_simulation(self, small_leaves, rng):
        """The Algorithm-2 pattern: report_first, hide the whole group."""
        pts = rng.uniform(size=(60, 3))
        ids = [i % 6 for i in range(60)]
        backends = build_all(pts, ids)
        box = QueryBox.closed([0.1] * 3, [0.9] * 3)
        expect = set(scan(pts, ids, box))
        for e, b in backends.items():
            got = set()
            while True:
                hit = b.report_first(box)
                if hit is None:
                    break
                got.add(hit)
                assert b.deactivate_group(hit) == 10
            for k in got:
                assert b.activate_group(k) == 10
            assert got == expect, e
            assert n_visible(b) == 60  # the loop restored every point

    def test_group_level_toggles_match_per_point_loops(self, small_leaves, rng):
        """``deactivate_group`` / ``activate_group`` are the bulk form of
        toggling every point of the group, on every backend: the loop side
        holds the same points under distinct keys (each its own group)."""
        pts = rng.uniform(size=(60, 3))
        ids = [i % 6 for i in range(60)]
        bulk, loop = build_all(pts, ids), build_all(pts, range(60))
        box = QueryBox.unbounded(3)
        for e in ENGINES:
            assert bulk[e].deactivate_group(2) == 10
            for i, key in enumerate(ids):
                if key == 2:
                    assert loop[e].deactivate_group(i) == 1
            assert n_visible(bulk[e]) == n_visible(loop[e]) == 50
            keys = sorted(i % 6 for i in keys_in(loop[e], box))
            assert keys_in(bulk[e], box) == keys
            assert bulk[e].deactivate_group(2) == 0  # already hidden: not counted
            assert bulk[e].deactivate_group(99) == 0  # absent group: no-op
            assert bulk[e].activate_group(99) == 0
            extra = 0
            if e in DYNAMIC_ENGINES:  # a half-hidden group counts its active half
                bulk[e].insert(rng.uniform(size=(1, 3)), [2])
                assert bulk[e].deactivate_group(2) == (extra := 1)
            assert bulk[e].activate_group(2) == 10 + extra
            assert bulk[e].activate_group(2) == 0  # already shown: not counted
            assert n_visible(bulk[e]) == 60 + extra
            assert key_arrays(bulk[e], [box]) == [list(range(6))]


class TestDynamicEquivalence:
    @settings(max_examples=20, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(0, 10_000), plain=st.booleans())
    def test_insert_remove_churn(self, small_leaves, seed, plain):
        """Every dynamic backend answers like a float store built fresh from
        the live rows under mixed churn — whole groups removed, or single
        points where every key is distinct; with shared keys, inserts add
        to stored groups."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(size=(20, dim))

        def make_id(i):
            return i if plain else i % 8

        ids = [make_id(i) for i in range(20)]
        backends = {
            e: build_backend(pts, list(ids), e)
            for e in DYNAMIC_ENGINES
        }
        rows = list(pts)
        live = list(ids)
        next_id = 20
        for _ in range(50):
            op = rng.integers(0, 3)
            if op == 0:
                pid = make_id(next_id)
                row = rng.uniform(size=(1, dim))
                for b in backends.values():
                    b.insert(row, [pid])
                rows.append(row[0])
                live.append(pid)
                next_id += 1
            elif op == 1 and len(live) > 1:
                group = live[int(rng.integers(len(live)))]
                kept = [i for i, key in enumerate(live) if key != group]
                for b in backends.values():
                    assert b.remove_group(group) == len(live) - len(kept)
                rows = [rows[i] for i in kept]
                live = [live[i] for i in kept]
            else:
                box = random_orthant(rng, dim)
                want = scan(np.reshape(rows, (-1, dim)), live, box)
                for e, b in backends.items():
                    assert keys_in(b, box) == want, e
                    assert key_arrays(b, [box]) == [sorted(set(want))], e
        box = QueryBox.unbounded(dim)
        final = {e: keys_in(b, box) for e, b in backends.items()}
        assert all(r == sorted(live) for r in final.values()), final


    @pytest.mark.parametrize("store", DYNAMIC_STORES)
    def test_repeated_key_in_a_batch_is_one_datasets_points(self, store):
        """An id is a dataset key, not a point's name: a key repeated
        inside one insert() is one dataset's points, and a later insert
        may add to a stored group — buffered or in the main structure."""
        b = DYNAMIC_STORES[store](np.array([[0.0], [1.0]]), [0, 0])
        box = QueryBox.unbounded(1)
        b.insert(np.array([[5.0], [6.0]]), ids=[1, 1])
        assert len(b) == n_visible(b) == 4
        assert keys_in(b, box) == [0, 0, 1, 1]
        b.insert(np.array([[7.0]]), ids=[1])
        b.insert(np.array([[8.0]]), ids=[0])
        assert keys_in(b, box) == [0, 0, 0, 1, 1, 1]
        assert keys_in(b, QueryBox.closed([4.5], [7.5])) == [1, 1, 1]
        assert b.deactivate_group(1) == 3
        assert keys_in(b, box) == [0, 0, 0]
        assert b.remove_group(0) == 3 and b.activate_group(1) == 3
        assert keys_in(b, box) == [1, 1, 1]

    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    def test_array_round_trip(self, small_leaves, engine, rng):
        """``from_arrays(to_arrays())`` — the persistence seam — keeps
        answers and activity, over read-only buffers, on every engine
        that has one: the dynamic ones."""
        from repro.index.backend import restore_backend

        ids = [i % 4 for i in range(40)] + [9]
        b = build_backend(rng.uniform(size=(41, 2)), ids, engine)
        b.insert(rng.uniform(size=(3, 2)), [5, 5, 5])
        b.remove_group(9)  # a tombstone in the main structure
        b.deactivate_group(2)
        arrays = b.to_arrays()
        for arr in arrays.values():
            arr.flags.writeable = False
        twin = restore_backend(arrays, engine)
        boxes = [QueryBox.unbounded(2)] + [random_orthant(rng, 2) for _ in range(5)]
        assert (len(twin), n_visible(twin)) == (len(b), n_visible(b))
        assert [sorted(r) for r in twin.report_many(boxes)] == [
            sorted(r) for r in b.report_many(boxes)
        ]
        assert twin.activate_group(2) == b.activate_group(2) == 10
        # A read-only twin copies before it writes.
        twin.insert(np.empty((0, 2)), [])
        twin.insert(rng.uniform(size=(1, 2)), [6])
        twin.remove_group(1)
        assert key_arrays(twin, boxes[:1]) == [[0, 2, 3, 5, 6]]

    def test_static_engine_has_no_persisted_form(self, rng):
        """The persistence pair is the dynamic engines' alone: the range
        tree defines neither half and ``restore_backend`` refuses its name
        instead of re-planting a tree from points."""
        from repro.errors import ConstructionError
        from repro.index.backend import restore_backend

        static = set(ENGINES) - set(DYNAMIC_ENGINES)
        assert static == {"rangetree"}
        tree = build_backend(rng.uniform(size=(8, 2)), None, "rangetree")
        assert not hasattr(tree, "to_arrays") and not hasattr(tree, "from_arrays")
        arrays = build_backend(rng.uniform(size=(8, 2)), None, "kd").to_arrays()
        with pytest.raises(ConstructionError, match="dynamic engine.*got 'rangetree'"):
            restore_backend(arrays, "rangetree")

    @pytest.mark.parametrize("name", ["columnar", "btree"])
    def test_restore_refuses_every_name_but_kd(self, name, rng):
        """Only the kd engine has a persisted form: beside the static range
        tree (above), arrays handed over under the retired columnar
        engine's name or an unknown one are refused by that name."""
        from repro.errors import ConstructionError
        from repro.index.backend import restore_backend

        arrays = build_backend(rng.uniform(size=(8, 2)), None, "kd").to_arrays()
        with pytest.raises(ConstructionError, match=f"dynamic engine.*got '{name}'"):
            restore_backend(arrays, name)

    @pytest.mark.parametrize("store", DYNAMIC_STORES)
    def test_remove_group(self, small_leaves, store, rng):
        ids = [i % 4 for i in range(40)]
        b = DYNAMIC_STORES[store](rng.uniform(size=(40, 2)), ids)
        assert b.deactivate_group(1) == 10
        b.insert(rng.uniform(size=(3, 2)), [1, 1, 5])
        assert b.remove_group(1) == 12  # hidden and buffered points included
        assert b.remove_group(1) == 0
        assert len(b) == 31 and n_visible(b) == 31
        assert key_arrays(b, [QueryBox.unbounded(2)]) == [[0, 2, 3, 5]]
        assert b.activate_group(1) == 0  # removed points never come back
        b.insert(rng.uniform(size=(1, 2)), [1])  # the key is free again
        assert keys_in(b, QueryBox.unbounded(2)).count(1) == 1

    @pytest.mark.parametrize("store", DYNAMIC_STORES)
    def test_every_group_removed_leaves_a_valid_empty_backend(
        self, small_leaves, store, rng
    ):
        """Regression: a kd-tree emptied by ``remove_group`` died in
        ``to_arrays()`` with numpy's "zero-size array to reduction
        operation minimum".  An emptied dynamic store — the kd engine or
        its side buffer — is a valid one: zero-row arrays, no answers,
        inserts welcome."""
        ids = [i % 4 for i in range(20)]
        b = DYNAMIC_STORES[store](rng.uniform(size=(20, 3)), ids)
        assert sum(b.remove_group(g) for g in range(4)) == 20
        arrays = b.to_arrays()
        assert all(arrays[name].shape == (0,) for name in ("group", "active"))
        boxes = [QueryBox.unbounded(3), random_orthant(rng, 3)]
        assert (len(b), n_visible(b)) == (0, 0)
        assert [r.tolist() for r in b.report_many(boxes)] == [[], []]
        assert key_arrays(b, boxes) == [[], []]
        assert b.report_first(boxes[0]) is None and b.count(boxes[0]) == 0
        assert b.deactivate_group(1) == b.activate_group(1) == b.remove_group(1) == 0
        b.insert(rng.uniform(size=(3, 3)), [1, 1, 7])
        assert key_arrays(b, boxes[:1]) == [[1, 7]]
        assert sorted(b.to_arrays()["group"].tolist()) == [1, 1, 7]

    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    def test_an_emptied_backend_round_trips_through_its_arrays(
        self, small_leaves, engine, rng
    ):
        """Regression: a kd-tree emptied by ``remove_group`` wrote arrays
        (zero rows, zero-level tables) that its own ``from_arrays``
        refused with "level tables do not match the code columns".  Every
        dynamic engine restores an emptied backend, read-only, to the same
        arrays, answering nothing and taking inserts."""
        from repro.index.backend import restore_backend

        b = build_backend(rng.uniform(size=(20, 3)), [i % 4 for i in range(20)], engine)
        for group in range(4):
            b.remove_group(group)
        arrays = b.to_arrays()
        for arr in arrays.values():
            arr.flags.writeable = False
        twin = restore_backend(arrays, engine)
        again = twin.to_arrays()
        assert again.keys() == arrays.keys()
        for name, arr in arrays.items():
            assert again[name].dtype == arr.dtype and np.array_equal(again[name], arr)
        boxes = [QueryBox.unbounded(3), random_orthant(rng, 3)]
        assert (len(twin), n_visible(twin)) == (0, 0)
        assert key_arrays(twin, boxes) == [[], []]
        assert twin.report_first(boxes[0]) is None
        twin.insert(rng.uniform(size=(3, 3)), [1, 1, 7])
        assert key_arrays(twin, boxes[:1]) == [[1, 7]]
        assert sorted(twin.to_arrays()["group"].tolist()) == [1, 1, 7]
        if engine == "kd":  # zero rows admit no level and no second node
            levels = {"levels": np.array([0.5]), "level_start": np.array([0, 1, 1, 1])}
            with pytest.raises(ValueError, match="level tables do not match"):
                restore_backend({**arrays, **levels}, engine)
            span = np.zeros((3, 2), dtype=np.int32)
            box = np.zeros((2, 2, 3), dtype=arrays["node_box"].dtype)
            with pytest.raises(ValueError, match="do not describe one kd-tree"):
                restore_backend({**arrays, "node_span": span, "node_box": box}, engine)


class TestBatchKernels:
    """The multi-box kernels must equal a brute-force scan on every
    backend: ``report_many(boxes)`` each box's keys of the active points
    inside it, one per point, and ``report_groups_many`` their distinct
    keys."""

    @settings(max_examples=30, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 80),
        dim=st.integers(1, 4),
        q=st.integers(0, 12),
    )
    def test_report_many_equals_per_box_loop(self, small_leaves, seed, n, dim, q):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(n, dim))
        ids = [i % 7 for i in range(n)]
        backends = build_all(pts, ids)
        boxes = [random_orthant(rng, dim) for _ in range(q)]
        want = [scan(pts, ids, box) for box in boxes]
        for e, b in backends.items():
            batch = [sorted(r) for r in b.report_many(boxes)]
            assert batch == want, f"report_many mismatch on {e}"
            assert [len(r) for r in batch] == [b.count(box) for box in boxes], e
            assert key_arrays(b, boxes) == [
                sorted(set(keys)) for keys in want
            ], f"report_groups_many mismatch on {e}"

    @settings(max_examples=20, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
    def test_batch_kernels_respect_activation(self, small_leaves, seed, n):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(size=(n, dim))
        ids = [i % 5 for i in range(n)]
        backends = build_all(pts, ids)
        for group in (0, 3):
            for b in backends.values():
                b.deactivate_group(group)
        boxes = [random_orthant(rng, dim) for _ in range(6)]
        ref = [sorted(r) for r in backends["kd"].report_many(boxes)]
        for e, b in backends.items():
            assert [sorted(r) for r in b.report_many(boxes)] == ref, e

    def test_batch_kernels_cover_kd_side_buffer(self, small_leaves, rng):
        """Inserted-but-not-rebuilt points must appear in batch answers."""
        pts = rng.uniform(size=(30, 2))
        ids = [i % 3 for i in range(30)]
        tree = build_backend(pts, list(ids), "kd")
        more = rng.uniform(size=(10, 2))
        tree.insert(more, [i % 3 for i in range(30, 40)])
        assert tree._buf is not None
        boxes = [random_orthant(rng, 2) for _ in range(8)]
        want = [scan(np.vstack([pts, more]), np.arange(40) % 3, box) for box in boxes]
        assert [sorted(r) for r in tree.report_many(boxes)] == want
        assert key_arrays(tree, boxes) == [sorted(set(keys)) for keys in want]

    def test_empty_batch(self, rng):
        pts = rng.uniform(size=(5, 2))
        for e in ENGINES:
            b = build_backend(pts, list(range(5)), e)
            assert b.report_many([]) == []
            assert b.report_groups_many([]) == []

    @pytest.mark.parametrize("store", ["kd", "kd+buffer", "columnar", "rangetree"])
    def test_each_box_answers_one_ascending_key_array(self, small_leaves, store, rng):
        """The batched answer's one form on every backend, a kd-tree with an
        empty and a non-empty side buffer included: keys past one byte, an
        empty box and a box holding everything."""
        pts = rng.uniform(size=(60, 2))
        ids = [300 + 7 * (i % 9) for i in range(60)]
        if store == "columnar":
            b = ColumnarStore(pts, ids=ids)
        else:
            b = build_backend(pts, ids, store.split("+")[0])
        if store == "kd+buffer":
            more, more_ids = rng.uniform(size=(6, 2)), [2, 2, 900, 301, 301, 5]
            b.insert(more, more_ids)
            assert b._buf is not None and len(b._buf)
            pts, ids = np.vstack([pts, more]), ids + more_ids
        elif store == "kd":
            assert b._buf is None or not len(b._buf)
        boxes = [
            QueryBox.closed([2.0, 2.0], [3.0, 3.0]),
            QueryBox.unbounded(2),
            *(random_orthant(rng, 2) for _ in range(6)),
        ]
        got = key_arrays(b, boxes)
        assert got == [sorted(set(scan(pts, ids, box))) for box in boxes]
        assert got[0] == []
        assert got[1] == sorted(set(ids))
        assert any(0 < len(keys) < len(got[1]) for keys in got[2:])


class TestProtocolSurface:
    def test_static_backend_refuses_dynamics(self, rng):
        from repro.errors import CapabilityError

        assert "rangetree" not in DYNAMIC_ENGINES
        b = build_backend(rng.uniform(size=(5, 2)), list(range(5)), "rangetree")
        with pytest.raises(CapabilityError):
            b.insert(np.zeros((1, 2)), ["x"])
        with pytest.raises(CapabilityError):
            b.remove_group(0)

    @pytest.mark.parametrize("store", DYNAMIC_STORES)
    def test_dynamic_backends_accept_inserts(self, store, rng):
        b = DYNAMIC_STORES[store](rng.uniform(size=(5, 2)), list(range(5)))
        b.insert(np.full((1, 2), 0.5), [7])
        assert 7 in b.report_groups_many([QueryBox.unbounded(2)])[0]
        assert b.remove_group(7) == 1 and len(b) == 5

    @pytest.mark.parametrize("name", ["btree", "columnar"])
    def test_unknown_engine_rejected(self, name, rng):
        """``columnar`` is no engine name: the float store is kd's side
        buffer and the tests' oracle, built directly."""
        from repro.errors import ConstructionError

        with pytest.raises(ConstructionError, match=f"unknown engine '{name}'"):
            build_backend(rng.uniform(size=(5, 2)), list(range(5)), name)

    @pytest.mark.parametrize("store", DYNAMIC_STORES)
    def test_construction_leaves_no_per_point_objects(self, store, rng):
        """Bytes per mapped point are the constant of the paper's space
        bound: a built backend holds its points plus a few flat columns —
        no tuple, dict entry or node object per point."""
        n = 50_000
        pts = rng.uniform(size=(n, 10))
        ids = np.arange(n) // 500
        tracemalloc.start()
        try:
            backend = DYNAMIC_STORES[store](pts, ids)
            snapshot = tracemalloc.take_snapshot()
            live, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(backend) == n
        assert live <= 1.5 * pts.nbytes
        busiest = max(snapshot.statistics("lineno"), key=lambda st: st.count)
        assert busiest.count < n, busiest

    @pytest.mark.parametrize("store", DYNAMIC_STORES)
    def test_remove_semantics_aligned(self, store, rng):
        """Every dynamic store: removing a deactivated point works,
        double-remove and unknown-group remove are no-ops returning 0."""
        b = DYNAMIC_STORES[store](rng.uniform(size=(6, 2)), list(range(6)))
        assert b.deactivate_group(2) == 1
        assert b.remove_group(2) == 1  # removal of a hidden point is legitimate
        assert keys_in(b, QueryBox.unbounded(2)) == [0, 1, 3, 4, 5]
        assert (len(b), n_visible(b)) == (5, 5)
        assert b.remove_group(2) == 0
        assert b.remove_group(99) == 0


# ----------------------------------------------------------------------
# The kd-tree stores ranks in per-column level tables; a float
# ColumnarStore is the oracle for every bound that can fall on, between or
# beyond the levels.
# ----------------------------------------------------------------------
def boundary_values(levels) -> np.ndarray:
    """Every stored value, its ``nextafter`` neighbours both ways, ±inf."""
    v = np.asarray(levels, dtype=float)
    return np.unique(
        np.concatenate(
            [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf), [-np.inf, np.inf]]
        )
    )


def boundary_boxes(levels, dim: int, rng: np.random.Generator) -> list:
    """Axis 0 swept over every (lo, hi, open, open) combination of the
    boundary values — open-at-own-infinity included — with the other axes
    free, then random boxes constraining every axis from the same set."""
    values = boundary_values(levels)
    free = [(-np.inf, np.inf, False, False)] * (dim - 1)
    boxes = [
        QueryBox([(float(lo), float(hi), lo_open, hi_open)] + free)
        for lo in values
        for hi in values
        for lo_open in (False, True)
        for hi_open in (False, True)
    ]
    for _ in range(300):
        lo, hi = rng.choice(values, size=(2, dim))
        boxes.append(
            QueryBox(
                [
                    (float(a), float(b), bool(rng.integers(2)), bool(rng.integers(2)))
                    for a, b in zip(lo, hi)
                ]
            )
        )
    return boxes


def assert_matches_oracle(backend, oracle, boxes: list) -> None:
    want = [sorted(r) for r in oracle.report_many(boxes)]
    assert [sorted(r) for r in backend.report_many(boxes)] == want
    assert key_arrays(backend, boxes) == [sorted(set(r)) for r in want]
    for box, ids in list(zip(boxes, want))[::5]:
        assert backend.count(box) == len(ids)
        first = backend.report_first(box)
        assert first in ids if ids else first is None


class TestCodedBoundaries:
    LEVELS = [-1.0, 0.0, 0.25, 0.5, 1.0]
    DIM = 3

    def test_bounds_on_between_and_beyond_the_levels(self, small_leaves, rng):
        from repro.index.backend import restore_backend

        n = 200
        pts = rng.choice(self.LEVELS, size=(n, self.DIM))
        ids = [i % 5 for i in range(n)]
        kd = build_backend(pts, ids, "kd")
        oracle = ColumnarStore(pts, ids=ids)
        assert kd._pts.dtype == np.uint8 and kd._box.dtype == np.uint8
        assert [t.tolist() for t in kd._tables] == [self.LEVELS] * self.DIM
        boxes = boundary_boxes(self.LEVELS, self.DIM, rng)
        assert_matches_oracle(kd, oracle, boxes)
        ordered = [b for b in boxes if (b.lo <= b.hi).all()]  # its Interval insists
        assert_matches_oracle(build_backend(pts, ids, "rangetree"), oracle, ordered[::3])
        kd.deactivate_group(2)
        oracle.deactivate_group(2)
        assert_matches_oracle(kd, oracle, boxes)

        # New values between, below and above the old levels: first in the
        # float side buffer (main tree and buffer answer together) ...
        fresh = [-2.0, 0.125, float(np.nextafter(0.25, np.inf)), 3.0]
        levels = self.LEVELS + fresh
        more = rng.choice(levels, size=(30, self.DIM))
        more_ids = [5 + i % 2 for i in range(30)]
        for b in (kd, oracle):
            b.insert(more, more_ids)
        assert kd._buf is not None and len(kd._tables[0]) == len(self.LEVELS)
        boxes = boundary_boxes(levels, self.DIM, rng)
        assert_matches_oracle(kd, oracle, boxes)

        # ... then re-encoded by the buffer-triggered rebuild, where they
        # interleave the old levels.
        grown = rng.choice(levels, size=(40, self.DIM))
        grown_ids = [7] * 40
        for b in (kd, oracle):
            b.insert(grown, grown_ids)
        assert kd._buf is None
        assert [t.tolist() for t in kd._tables] == [sorted(levels)] * self.DIM
        assert kd.activate_group(2) == oracle.activate_group(2) == 40
        assert_matches_oracle(kd, oracle, boxes)

        # Tombstones are folded in by to_arrays; the twin adopts the codes.
        assert kd.remove_group(0) == oracle.remove_group(0) == 40
        assert_matches_oracle(kd, oracle, boxes)
        twin = restore_backend(kd.to_arrays(), "kd")
        assert twin._pts.dtype == np.uint8 and len(twin) == len(oracle)
        assert_matches_oracle(twin, oracle, boxes)

    @pytest.mark.parametrize(
        "n_levels, dtype",
        [(255, np.uint8), (256, np.uint8), (257, np.uint16),
         (65_535, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
    )
    def test_code_dtype_follows_the_longest_table(
        self, n_levels, dtype, rng, monkeypatch
    ):
        """The code dtype is read off the data: the smallest unsigned type
        that holds the longest column table's top rank."""
        wide = rng.permutation(n_levels).astype(float)
        pts = np.column_stack((wide, rng.choice([0.0, 1.0], size=n_levels)))
        ids = np.arange(n_levels) % 3
        monkeypatch.setattr(kd_tree, "DEFAULT_LEAF_SIZE", 64)
        kd = build_backend(pts, ids, "kd")
        oracle = ColumnarStore(pts, ids=ids)
        assert kd._pts.dtype == kd._box.dtype == dtype
        assert kd.to_arrays()["codes"].dtype == dtype
        top = float(n_levels - 1)
        boxes = [
            QueryBox([(lo, hi, lo_open, hi_open), (-np.inf, np.inf, False, False)])
            for lo, hi in [(top, top), (top - 1, np.inf), (-np.inf, 0.0), (0.0, top),
                           (254.0, 257.0), (np.nextafter(top, np.inf), np.inf)]
            for lo_open in (False, True)
            for hi_open in (False, True)
        ]
        assert [kd.count(b) for b in boxes] == [oracle.count(b) for b in boxes]
        assert [sorted(r) for r in kd.report_many(boxes)] == [
            sorted(r) for r in oracle.report_many(boxes)
        ]


# ----------------------------------------------------------------------
# A key column is as wide as its largest key: the smallest unsigned dtype,
# widened by the insert that brings a larger key, narrowed again by the
# rebuild that drops it.
# ----------------------------------------------------------------------
class TestKeyDtypeBoundaries:
    DIM = 2

    @staticmethod
    def assert_same_answers(backends: dict, boxes: list) -> None:
        ref = [sorted(r) for r in backends["kd"].report_many(boxes)]
        for e, b in backends.items():
            assert [sorted(r) for r in b.report_many(boxes)] == ref, e
            assert key_arrays(b, boxes) == [sorted(set(r)) for r in ref], e

    def check(self, backends: dict, live: list, rng) -> None:
        """Answers agree with a range tree over the live points, and every
        key column is in the dtype its largest live key needs (a kd-tree's
        main column once its side buffer is folded in)."""
        pts, ids = map(np.concatenate, zip(*live))
        want = np.min_scalar_type(int(ids.max()))
        oracle = build_backend(pts, ids, "rangetree")
        assert oracle._group.dtype == want
        boxes = [QueryBox.unbounded(self.DIM)]
        boxes += [random_orthant(rng, self.DIM) for _ in range(8)]
        self.assert_same_answers({**backends, "rangetree": oracle}, boxes)
        for e, b in backends.items():
            if getattr(b, "_buf", None) is None:
                assert b._group.dtype == want, e

    @pytest.mark.parametrize("top", [255, 256, 65_535, 65_536, 2**31 - 1])
    def test_key_dtype_follows_the_largest_key(self, small_leaves, top, rng):
        from repro.index.backend import restore_backend

        keys = np.array([i % 5 for i in range(59)] + [top])
        base = (rng.uniform(size=(60, self.DIM)), keys)
        backends = {
            "kd": build_backend(*base, "kd"), "columnar": ColumnarStore(*base)
        }
        dtype = np.min_scalar_type(top)
        assert all(b._group.dtype == dtype for b in backends.values())
        live = [base]
        self.check(backends, live, rng)

        # A key one past the dtype (the widest dtype keeps the int32 top):
        # first into the kd side buffer and a grown columnar store ...
        wide = min(int(np.iinfo(dtype).max) + 1, 2**31 - 1)
        for m in (4, 70):
            more = (rng.uniform(size=(m, self.DIM)), np.full(m, wide))
            for b in backends.values():
                b.insert(*more)
            live.append(more)
            if m == 4:
                kd = backends["kd"]
                assert kd._buf is not None and kd._group.dtype == dtype
                assert kd._buf._group.dtype == np.min_scalar_type(wide)
                assert backends["columnar"]._group.dtype == np.min_scalar_type(wide)
            else:  # ... then the buffer-triggered rebuild
                assert backends["kd"]._buf is None
            self.check(backends, live, rng)

        # Removing the wide key and folding the kd tombstones in narrows
        # again (the float store copies its survivors down at once).
        if wide != top:
            for b in backends.values():
                assert b.remove_group(wide) == 74
            live = live[:1]
            backends["kd"]._rebuild()
            self.check(backends, live, rng)

        # The persistence seam keeps the narrow column and the answers.
        twin = restore_backend(backends["kd"].to_arrays(), "kd")
        self.check({"kd": twin}, live, rng)
        self.assert_same_answers({**backends, "twin": twin}, [QueryBox.unbounded(self.DIM)])

    def test_keys_past_a_narrow_column_touch_nothing(self, small_leaves, rng):
        pts, ids = rng.uniform(size=(40, self.DIM)), [i % 5 for i in range(39)] + [255]
        backends = build_all(pts, ids)
        for e, b in backends.items():
            assert b._group.dtype == np.uint8, e
            assert b.deactivate_group(300) == b.activate_group(300) == 0, e
            if e in DYNAMIC_ENGINES:
                assert b.remove_group(256) == 0, e
            assert (len(b), n_visible(b)) == (40, 40), e
        assert_agree(backends, QueryBox.unbounded(self.DIM), pts, ids)

    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    @pytest.mark.parametrize(
        "retype",
        [lambda g: g.astype(np.float64) + 0.5, lambda g: g.astype(np.int64),
         lambda g: g.astype(np.int32) - 1, lambda g: g.astype(np.uint32) + 2**31,
         lambda g: g.astype(np.int32)],
        ids=["float64", "int64", "negative-int32", "uint32-past-int32", "int32"],
    )
    def test_from_arrays_refuses_keys_no_file_holds(self, engine, retype, rng):
        """Regression: ``from_arrays`` adopted any key dtype — a float64
        column loaded and ``report_groups`` answered ``{0.5, 1.5, 2.5}``.
        Accepted: unsigned of at most 4 bytes with every key below 2^31.
        The signed ``int32`` column of files before narrow keys is refused,
        even with every key in range."""
        from repro.index.backend import restore_backend

        ids = [i % 3 for i in range(12)]
        arrays = build_backend(rng.uniform(size=(12, 2)), ids, engine).to_arrays()
        keys = arrays["group"]
        assert keys.dtype == np.uint8
        with pytest.raises(ValueError):
            restore_backend({**arrays, "group": retype(keys)}, engine)
