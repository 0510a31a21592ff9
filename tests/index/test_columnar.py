"""Tests for the float column store behind kd's side buffer and oracle."""

import numpy as np
import pytest

from repro.index.columnar import ColumnarStore
from repro.index.query_box import QueryBox


def naive_report(points, box):
    return sorted(np.flatnonzero(box.batch.contains_points(points)).tolist())


def keys_in(tree, box) -> list[int]:
    """The keys of the active points in one box, one per point, from the
    batch kernel (a single box is a batch of one)."""
    return tree.report_many([box])[0].tolist()


class TestQueries:
    def test_report_matches_naive(self, rng):
        pts = rng.uniform(size=(300, 4))
        store = ColumnarStore(pts)
        box = QueryBox.closed([0.2] * 4, [0.8] * 4)
        assert sorted(keys_in(store, box)) == naive_report(pts, box)

    def test_count_and_first(self, rng):
        pts = rng.uniform(size=(200, 2))
        store = ColumnarStore(pts)
        box = QueryBox.closed([0.0, 0.0], [0.4, 0.4])
        truth = naive_report(pts, box)
        assert store.count(box) == len(truth)
        first = store.report_first(box)
        assert (first is None) == (not truth)
        if truth:
            assert first in truth

    def test_open_bounds(self):
        store = ColumnarStore(np.array([[0.0], [1.0], [2.0]]))
        assert keys_in(store, QueryBox([(0.0, 2.0, True, True)])) == [1]

    def test_report_groups_is_group_by(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        store = ColumnarStore(pts, ids=[7, 7, 8, 9])
        box = QueryBox.closed([0.5], [2.5])
        assert store.report_groups_many([box])[0].tolist() == [7, 8]
        assert store.deactivate_group(7) == 2
        assert store.report_groups_many([box])[0].tolist() == [8]

    def test_dim_mismatch(self):
        store = ColumnarStore(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            keys_in(store, QueryBox.closed([0.0], [1.0]))

    @pytest.mark.parametrize(
        "ids",
        [["x", "y"], [0.5, 1.5], [(1, 2), (4, 5)], [(1, 2, 3), (4, 5, 6)],
         [2**31, 0], [-1, 0], [0]],
    )
    def test_non_integer_ids_rejected(self, ids):
        with pytest.raises(ValueError):
            ColumnarStore(np.zeros((2, 1)), ids=ids)


class TestActivation:
    def test_roundtrip(self, rng):
        pts = rng.uniform(size=(100, 2))
        store = ColumnarStore(pts)
        box = QueryBox.unbounded(2)
        for i in range(10):
            store.deactivate_group(i)
        assert store.count(QueryBox.unbounded(store.dim)) == 90
        assert sorted(keys_in(store, box)) == list(range(10, 100))
        for i in range(10):
            store.activate_group(i)
        assert sorted(keys_in(store, box)) == list(range(100))


class TestDynamics:
    def test_insert_visible_and_grouped(self, rng):
        store = ColumnarStore(rng.uniform(size=(20, 2)), ids=[0] * 20)
        store.insert(np.array([[0.5, 0.5]]), ids=[9])
        box = QueryBox.closed([0.45, 0.45], [0.55, 0.55])
        assert 9 in keys_in(store, box)
        assert 9 in store.report_groups_many([box])[0]

    def test_insert_adds_to_a_stored_group(self):
        store = ColumnarStore(np.zeros((2, 1)))
        store.insert(np.array([[1.0]]), ids=[0])
        assert sorted(keys_in(store, QueryBox.unbounded(1))) == [0, 0, 1]
        assert store.remove_group(0) == 2 and len(store) == 1

    def test_remove_is_permanent(self, rng):
        store = ColumnarStore(rng.uniform(size=(30, 2)))
        assert store.remove_group(5) == 1
        assert 5 not in keys_in(store, QueryBox.unbounded(2))
        assert len(store) == 29
        assert store.activate_group(5) == 0  # removed points never come back
        assert 5 not in keys_in(store, QueryBox.unbounded(2))
        # The freed id is re-insertable immediately.
        store.insert(np.array([[0.5, 0.5]]), ids=[5])
        assert 5 in keys_in(store, QueryBox.unbounded(2))

    def test_remove_group_equals_a_fresh_store_over_the_survivors(self, rng):
        """``remove_group`` copies the surviving rows down in order, keeps
        their activity and re-narrows the key column: the store is then a
        fresh one over the survivors, array for array."""
        pts = rng.uniform(size=(43, 2))
        keys = np.array([i % 4 for i in range(40)] + [300, 300, 1])
        store = ColumnarStore(pts[:40], ids=keys[:40])
        store.insert(pts[40:], ids=keys[40:])  # key 300 widens the column
        assert store._group.dtype == np.uint16
        store.deactivate_group(2)
        assert store.remove_group(300) == 2 and store.remove_group(0) == 10
        kept = (keys != 300) & (keys != 0)
        fresh = ColumnarStore(pts[kept], ids=keys[kept])
        fresh.deactivate_group(2)
        got, want = store.to_arrays(), fresh.to_arrays()
        assert got["group"].dtype == want["group"].dtype == np.uint8
        for name in ("points", "group", "active"):
            np.testing.assert_array_equal(got[name], want[name])
        assert len(store) == len(fresh) == 31

    def test_capacity_growth_keeps_old_points(self, rng):
        store = ColumnarStore(rng.uniform(size=(3, 1)))
        for i in range(200):
            store.insert(np.array([[float(i)]]), ids=[1000 + i])
        assert len(store) == 203
        assert store.count(QueryBox.unbounded(1)) == 203


class TestBatchKernels:
    """``report_many`` / ``report_groups_many`` are one scan over a batch of
    boxes — the kd-tree runs them over its side buffer on every batch —
    and answer like a brute-force scan, activity and inserts included."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_batch_equals_per_box_loop(self, dim, rng):
        pts = rng.uniform(size=(60, dim))
        store = ColumnarStore(pts, ids=[i % 7 for i in range(60)])
        store.deactivate_group(3)
        more = rng.uniform(size=(5, dim))
        store.insert(more, ids=[9] * 5)
        points = np.vstack([pts, more])
        keys = np.array([i % 7 for i in range(60)] + [9] * 5)
        boxes = [QueryBox.unbounded(dim)]
        for _ in range(6):
            lo = rng.uniform(0.0, 0.5, size=dim)
            boxes.append(QueryBox.closed(lo, lo + rng.uniform(0.2, 0.6, size=dim)))
        want = [
            keys[box.batch.contains_points(points)[0] & (keys != 3)].tolist()
            for box in boxes
        ]
        assert [r.tolist() for r in store.report_many(boxes)] == want
        groups = store.report_groups_many(boxes)
        assert all(
            keys.dtype.kind in "iu" and bool(np.all(np.diff(keys.astype(np.int64)) > 0))
            for keys in groups
        )
        assert [keys.tolist() for keys in groups] == [sorted(set(w)) for w in want]
        assert 3 not in groups[0]
        assert store.report_many([]) == store.report_groups_many([]) == []
