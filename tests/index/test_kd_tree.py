"""Tests for the dynamic kd-tree engine."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.index import kd_tree
from repro.index.kd_tree import (
    DynamicKDTree,
    MIN_BUFFER_FOR_REBUILD,
    REBUILD_FRACTION,
)
from repro.index.columnar import ColumnarStore
from repro.index.query_box import QueryBox

#: ``small_leaves`` is set once per test, never by an example.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]


def naive_report(points, box):
    return sorted(np.flatnonzero(box.batch.contains_points(points)).tolist())


def keys_in(tree, box) -> list[int]:
    """The keys of the active points in one box, one per point, from the
    batch kernel (a single box is a batch of one)."""
    return tree.report_many([box])[0].tolist()


class TestQueries:
    def test_report_matches_naive(self, rng):
        pts = rng.uniform(size=(300, 4))
        tree = DynamicKDTree(pts)
        box = QueryBox.closed([0.2] * 4, [0.8] * 4)
        assert sorted(keys_in(tree, box)) == naive_report(pts, box)

    def test_count(self, rng):
        pts = rng.uniform(size=(200, 2))
        tree = DynamicKDTree(pts)
        box = QueryBox.closed([0.0, 0.0], [0.4, 0.4])
        assert tree.count(box) == len(naive_report(pts, box))

    def test_report_first_membership(self, rng):
        pts = rng.uniform(size=(200, 3))
        tree = DynamicKDTree(pts)
        box = QueryBox.closed([0.4] * 3, [0.6] * 3)
        truth = naive_report(pts, box)
        first = tree.report_first(box)
        assert (first is None) == (not truth)
        if truth:
            assert first in truth

    def test_open_bounds(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        tree = DynamicKDTree(pts)
        box = QueryBox([(0.0, 2.0, True, True)])
        assert keys_in(tree, box) == [1]

    def test_custom_ids(self):
        tree = DynamicKDTree(np.array([[0.0], [5.0], [5.5]]), ids=[7, 8, 8])
        assert keys_in(tree, QueryBox.closed([4.0], [6.0])) == [8, 8]
        assert tree.report_first(QueryBox.closed([-1.0], [1.0])) == 7

    def test_dim_mismatch(self):
        tree = DynamicKDTree(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            keys_in(tree, QueryBox.closed([0.0], [1.0]))

    @settings(max_examples=30, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120), dim=st.integers(1, 5))
    def test_property_report(self, small_leaves, seed, n, dim):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(n, dim))
        tree = DynamicKDTree(pts)
        lo = rng.uniform(0, 1, size=dim)
        hi = rng.uniform(0, 1, size=dim)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        box = QueryBox.closed(lo, hi)
        assert sorted(keys_in(tree, box)) == naive_report(pts, box)


class TestActivation:
    def test_deactivate_activate_roundtrip(self, rng):
        pts = rng.uniform(size=(100, 2))
        tree = DynamicKDTree(pts)
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        truth = naive_report(pts, box)
        for i in truth[:10]:
            tree.deactivate_group(i)
        assert sorted(keys_in(tree, box)) == truth[10:]
        assert tree.count(QueryBox.unbounded(tree.dim)) == 90
        for i in truth[:10]:
            tree.activate_group(i)
        assert sorted(keys_in(tree, box)) == truth

    def test_report_first_skips_inactive(self, rng):
        pts = rng.uniform(size=(60, 2))
        tree = DynamicKDTree(pts)
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        for i in range(60):
            got = tree.report_first(box)
            assert got is not None
            tree.deactivate_group(got)
        assert tree.report_first(box) is None


class TestDynamics:
    def test_insert_visible(self, rng):
        pts = rng.uniform(size=(20, 2))
        tree = DynamicKDTree(pts)
        tree.insert(np.array([[0.5, 0.5]]), ids=[777])
        box = QueryBox.closed([0.45, 0.45], [0.55, 0.55])
        assert 777 in keys_in(tree, box)

    def test_insert_adds_to_a_stored_group(self):
        tree = DynamicKDTree(np.zeros((2, 1)))
        tree.insert(np.array([[1.0]]), ids=[0])
        assert sorted(keys_in(tree, QueryBox.closed([-1.0], [2.0]))) == [0, 0, 1]
        assert tree.deactivate_group(0) == 2

    def test_buffer_rebuild_preserves_state(self, rng):
        pts = rng.uniform(size=(50, 2))
        tree = DynamicKDTree(pts)
        tree.deactivate_group(3)
        # Insert enough to force a rebuild.
        extra = rng.uniform(size=(100, 2))
        tree.insert(extra, ids=range(1000, 1100))
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        got = keys_in(tree, box)
        assert 3 not in got
        assert len(got) == 50 - 1 + 100

    def test_remove_permanent(self, rng):
        pts = rng.uniform(size=(30, 2))
        tree = DynamicKDTree(pts)
        assert tree.remove_group(5) == 1
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        assert 5 not in keys_in(tree, box)
        # Force rebuild; the removed id must stay gone and be re-insertable.
        tree.insert(rng.uniform(size=(100, 2)), ids=range(1000, 1100))
        assert 5 not in keys_in(tree, box)

    def test_deactivate_buffered_point(self, rng):
        tree = DynamicKDTree(np.zeros((4, 1)))
        tree.insert(np.array([[9.0]]), ids=[99])
        assert tree.deactivate_group(99) == 1
        assert keys_in(tree, QueryBox.closed([8.0], [10.0])) == []
        assert tree.activate_group(99) == 1
        assert keys_in(tree, QueryBox.closed([8.0], [10.0])) == [99]

    def test_report_groups(self, rng):
        pts = rng.uniform(size=(40, 2))
        tree = DynamicKDTree(pts, ids=[i % 4 for i in range(40)])
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        assert tree.report_groups_many([box])[0].tolist() == [0, 1, 2, 3]
        assert tree.deactivate_group(0) == 10
        assert tree.report_groups_many([box])[0].tolist() == [1, 2, 3]

    @settings(max_examples=15, deadline=None, suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(0, 10_000))
    def test_churn_consistency(self, small_leaves, seed):
        """Random insert/remove/deactivate churn stays consistent with naive."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(30, 2))
        tree = DynamicKDTree(pts)
        alive = {i: pts[i] for i in range(30)}
        active = set(alive)
        next_id = 30
        for _ in range(40):
            op = rng.integers(0, 3)
            if op == 0:  # insert
                p = rng.uniform(size=(1, 2))
                tree.insert(p, ids=[next_id])
                alive[next_id] = p[0]
                active.add(next_id)
                next_id += 1
            elif op == 1 and active:  # remove
                victim = sorted(active)[int(rng.integers(len(active)))]
                tree.remove_group(victim)
                del alive[victim]
                active.discard(victim)
            elif op == 2 and active:  # toggle activation
                victim = sorted(active)[int(rng.integers(len(active)))]
                tree.deactivate_group(victim)
                tree.activate_group(victim)
        box = QueryBox.closed([0.2, 0.2], [0.9, 0.9])
        expected = sorted(
            k for k in active if box.contains_point(alive[k])
        )
        assert sorted(keys_in(tree, box)) == expected


class TestAmortizedRebuild:
    """The side buffer outgrowing REBUILD_FRACTION must trigger a rebuild
    that preserves activation state and honors removals."""

    @staticmethod
    def _grow_past_threshold(tree, rng, first_id):
        """Insert just enough points to cross the rebuild threshold."""
        threshold = max(
            MIN_BUFFER_FOR_REBUILD, int(REBUILD_FRACTION * tree._group.size)
        )
        ids = list(range(first_id, first_id + threshold))
        tree.insert(rng.uniform(size=(threshold, tree.dim)), ids=ids)
        return ids

    def test_rebuild_absorbs_buffer(self, rng):
        pts = rng.uniform(size=(50, 2))
        tree = DynamicKDTree(pts)
        new_ids = self._grow_past_threshold(tree, rng, 1000)
        # Buffer was folded into the main tree: every id is tree-resident.
        assert tree._buf is None
        assert set(new_ids) <= set(tree._group.tolist())
        assert len(tree) == 50 + len(new_ids)
        assert tree.count(QueryBox.unbounded(tree.dim)) == 50 + len(new_ids)

    def test_below_the_threshold_inserts_wait_in_a_column_store(self, rng):
        """Until the threshold, inserted rows are a float ColumnarStore
        beside the main tree, in arrival order, and every query adds its
        answers to the tree's; the row that reaches it replants both."""
        pts = rng.uniform(size=(50, 2))
        tree = DynamicKDTree(pts)
        threshold = max(MIN_BUFFER_FOR_REBUILD, int(REBUILD_FRACTION * 50))
        new = rng.uniform(size=(threshold - 1, 2))
        ids = list(range(1000, 1000 + len(new)))
        tree.insert(new, ids=ids)
        assert isinstance(tree._buf, ColumnarStore)
        buffered = tree._buf.to_arrays()
        np.testing.assert_array_equal(buffered["points"], new.T)
        assert buffered["group"].tolist() == ids
        keys = np.array(list(range(50)) + ids)
        box = QueryBox.closed([0.2, 0.2], [0.8, 0.8])
        want = keys[naive_report(np.vstack([pts, new]), box)].tolist()
        assert sorted(keys_in(tree, box)) == want
        tree.insert(rng.uniform(size=(1, 2)), ids=[2000])
        assert tree._buf is None and len(tree) == 50 + threshold

    def test_activation_state_survives_rebuild(self, rng):
        pts = rng.uniform(size=(50, 2))
        tree = DynamicKDTree(pts)
        tree.deactivate_group(7)
        tree.deactivate_group(11)
        # Deactivate one *buffered* point, then push past the threshold.
        tree.insert(rng.uniform(size=(1, 2)), ids=[500])
        tree.deactivate_group(500)
        new_ids = self._grow_past_threshold(tree, rng, 1000)
        assert tree._buf is None  # rebuild happened
        box = QueryBox.unbounded(2)
        got = set(keys_in(tree, box))
        assert {7, 11, 500} & got == set()
        assert set(new_ids) <= got
        assert tree.count(QueryBox.unbounded(tree.dim)) == len(tree) - 3
        # Toggles still work post-rebuild (paths/leaf assignment rebuilt).
        assert tree.activate_group(7) == 1
        assert 7 in set(keys_in(tree, box))
        assert tree.activate_group(501) == 0  # never stored

    def test_removed_ids_dropped_and_reusable(self, rng):
        pts = rng.uniform(size=(50, 2))
        tree = DynamicKDTree(pts)
        tree.remove_group(3)
        tree.insert(rng.uniform(size=(1, 2)), ids=[500])
        tree.remove_group(500)
        new_ids = self._grow_past_threshold(tree, rng, 1000)
        assert tree._buf is None
        assert len(tree) == 50 - 2 + len(new_ids) + 1
        box = QueryBox.unbounded(2)
        got = set(keys_in(tree, box))
        assert 3 not in got and 500 not in got
        # Removed ids are gone from the structure entirely post-rebuild...
        assert tree.deactivate_group(500) == 0
        # ... and re-insertable as fresh points.
        tree.insert(np.array([[0.5, 0.5]]), ids=[500])
        assert 500 in set(keys_in(tree, box))

    def test_report_first_correct_across_rebuild(self, small_leaves, rng):
        pts = rng.uniform(size=(60, 2))
        tree = DynamicKDTree(pts)
        self._grow_past_threshold(tree, rng, 1000)
        box = QueryBox.closed([0.2, 0.2], [0.8, 0.8])
        expected = set(keys_in(tree, box))
        seen = set()
        while True:
            hit = tree.report_first(box)
            if hit is None:
                break
            seen.add(hit)
            tree.deactivate_group(hit)
        assert seen == expected
        for pid in seen:
            tree.activate_group(pid)
        assert set(keys_in(tree, box)) == expected


class TestRebuildEquivalence:
    """``_rebuild`` merges level tables and remaps codes; the oracle is
    what it used to do — decode every live row back to float64, append the
    buffer, plant a fresh tree — and the arrays must come out equal."""

    @staticmethod
    def _decoded(tree):
        """Float rows, keys and activity of everything the tree holds:
        live main rows in tree order, then the side buffer."""
        live = ~tree._dead
        codes = tree._pts[live][:, tree._columns]  # one column per table
        rows = [np.column_stack([t[c] for t, c in zip(tree._tables, codes.T)])]
        keys = [tree._group[live]]
        active = [tree._active[live]]
        if tree._buf is not None:
            buf = tree._buf.to_arrays()
            rows.append(buf["points"].T)
            keys.append(buf["group"])
            active.append(buf["active"])
        return np.vstack(rows), np.concatenate(keys), np.concatenate(active)

    @staticmethod
    def _fresh_arrays(rows, keys, active):
        fresh = DynamicKDTree(rows, ids=keys)
        for group in np.unique(keys[~active]).tolist():
            fresh.deactivate_group(group)
        return fresh.to_arrays()

    @staticmethod
    def _assert_equal(got, want):
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("seed", range(6))
    def test_merged_rebuild_equals_decode_and_reencode(self, small_leaves, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        # A shared alphabet of ``levels`` values a column: old and new rows
        # reuse levels, add levels between them, and — past 256 — widen
        # the codes from uint8 to uint16 across the rebuild.
        levels = (30, 300)[seed % 2]
        draw = lambda n: rng.integers(0, levels, size=(n, dim)) / levels  # noqa: E731
        ids = [i % 9 for i in range(400)]
        tree = DynamicKDTree(draw(400) * 0.5, ids=ids)
        assert tree._pts.dtype == np.uint8

        # Tombstones + hidden groups + a buffer that stays under the threshold.
        tree.remove_group(2)
        tree.deactivate_group(4)
        tree.insert(draw(20), [20 + i % 3 for i in range(20)])
        tree.deactivate_group(21)
        tree.remove_group(22)
        assert tree._buf is not None and tree._n_dead
        want = self._fresh_arrays(*self._decoded(tree))
        self._assert_equal(tree.to_arrays(), want)  # to_arrays folds the buffer in
        assert tree._buf is None and tree._n_dead == 0

        # An insert that overflows the buffer rebuilds on its own.
        rows, keys, active = self._decoded(tree)
        extra = max(MIN_BUFFER_FOR_REBUILD, int(REBUILD_FRACTION * len(tree)))
        new_rows = draw(extra)
        new_keys = 30 + np.arange(extra) % 4
        want = self._fresh_arrays(
            np.vstack((rows, new_rows)), np.concatenate((keys, new_keys)),
            np.concatenate((active, np.ones(extra, dtype=bool))),
        )
        tree.insert(new_rows, new_keys)
        assert tree._buf is None
        self._assert_equal(tree.to_arrays(), want)
        assert want["codes"].dtype == (np.uint8, np.uint16)[seed % 2]


def mapped_points(rng, n, dim, deltas):
    """Rows laid out like mapped points: ``dim`` coordinates from a small
    alphabet, then ``w + delta`` and ``w - delta`` of a count weight
    ``w``, with ``deltas[g]`` for the rows of group ``g``, and a copy of
    coordinate 0 at the end.  Returns ``(points, keys)``."""
    keys = np.arange(n) % len(deltas)
    coords = rng.integers(0, 6, size=(n, dim)) / 6
    weight = rng.integers(0, 9, size=n) / 8
    delta = np.asarray(deltas, dtype=float)[keys]
    return np.column_stack([coords, weight + delta, weight - delta, coords[:, 0]]), keys


def boxes_over(rng, points, count):
    """Random orthant boxes whose bounds are mostly the points' own values
    (so closed and open sides land on levels), plus, for every pair of
    equal columns, one box no point satisfies: ``x_i >= v`` and ``x_j < v``."""
    k = points.shape[1]
    boxes = []
    for _ in range(count):
        cons = []
        for j in range(k):
            lo, hi = sorted(
                rng.choice(points[:, j], size=2) if rng.integers(3) else rng.uniform(-0.2, 1.2, 2)
            )
            kind = rng.integers(0, 4)
            lo, hi = (-np.inf if kind == 0 else lo), (np.inf if kind == 1 else hi)
            cons.append((float(lo), float(hi), bool(rng.integers(2)), bool(rng.integers(2))))
        boxes.append(QueryBox(cons))
    for i in range(k):
        for j in range(i + 1, k):
            if np.array_equal(points[:, i], points[:, j]):
                cons = [(-np.inf, np.inf, False, False)] * k
                v = float(np.median(points[:, i]))
                cons[i], cons[j] = (v, np.inf, False, False), (-np.inf, v, False, True)
                boxes.append(QueryBox(cons))
    return boxes


def assert_as_oracle(tree, oracle, boxes):
    """``report_first``, ``count``, ``report_many`` and
    ``report_groups_many`` of the tree against the float column store."""
    for box, keys in zip(boxes, oracle.report_many(boxes)):
        want = sorted(keys.tolist())
        assert tree.count(box) == len(want)
        first = tree.report_first(box)
        assert first in want if want else first is None
    assert_many_as_oracle(tree, oracle, boxes)


def assert_many_as_oracle(tree, oracle, boxes):
    """The multi-box kernels of the tree against the float column store."""
    assert [sorted(keys.tolist()) for keys in tree.report_many(boxes)] == [
        sorted(keys.tolist()) for keys in oracle.report_many(boxes)
    ]
    groups = tree.report_groups_many(boxes)
    assert all(
        keys.dtype.kind in "iu" and bool(np.all(np.diff(keys.astype(np.int64)) > 0))
        for keys in groups
    )
    assert [keys.tolist() for keys in groups] == [
        keys.tolist() for keys in oracle.report_groups_many(boxes)
    ]


class TestWalkBudget:
    """``MULTIBOX_BROADCAST_CUTOFF`` is a cost setting: at 0 the multi-box
    walk descends to every leaf, at ``2**62`` it scans the whole tree from
    the root, and both answer as the float store does — over hidden
    groups, tombstoned rows and a side buffer."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("budget", [0, 2**62])
    def test_either_extreme_answers_as_the_oracle(
        self, small_leaves, monkeypatch, seed, budget
    ):
        rng = np.random.default_rng(seed)
        points, keys = mapped_points(rng, 300, 2, (0.0, 0.05, 0.0, 0.1))
        tree, oracle = DynamicKDTree(points, ids=keys), ColumnarStore(points, ids=keys)
        assert tree.deactivate_group(1) == oracle.deactivate_group(1) > 0
        assert tree.remove_group(2) == oracle.remove_group(2) > 0
        extra, _ = mapped_points(rng, 20, 2, (0.05,))
        tree.insert(extra, np.full(20, 9))
        oracle.insert(extra, np.full(20, 9))
        assert tree._buf is not None and tree._n_dead  # still unfolded
        boxes = boxes_over(rng, np.vstack([points, extra]), 40)

        monkeypatch.setattr(kd_tree, "MULTIBOX_BROADCAST_CUTOFF", budget)
        scans = []
        walk = tree._walk_many

        def spy(batch, on_full, on_scan):
            def scan(start, inside, alive):
                scans.append((start, start + inside.shape[1]))
                on_scan(start, inside, alive)

            walk(batch, on_full, scan)

        monkeypatch.setattr(tree, "_walk_many", spy)
        assert_many_as_oracle(tree, oracle, boxes)
        leaves = {tree._slice(node) for node in np.flatnonzero(tree._right == 0)}
        if budget:
            assert set(scans) == {(0, tree._group.size)}
        else:
            assert scans and set(scans) <= leaves


class TestSharedCodeColumns:
    """A column whose level table and codes equal an earlier column's —
    ``w + delta`` and ``w - delta`` at ``delta = 0``, a copied coordinate —
    is stored once; queries intersect the bounds of the columns sharing
    it, so answers equal the float store's over all ``k`` columns."""

    DIM = 2

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "deltas, shared",
        [
            ((0.0, 0.0, 0.0), [0, 1, 2, 2, 0]),  # exact: both weights, and the copy
            ((0.0, 0.05, 0.0), [0, 1, 2, 3, 0]),  # one group's delta parts them
            ((0.1, 0.05, 0.02), [0, 1, 2, 3, 0]),
        ],
    )
    def test_answers_match_the_float_store(self, small_leaves, seed, deltas, shared):
        rng = np.random.default_rng(seed)
        points, keys = mapped_points(rng, 300, self.DIM, deltas)
        tree, oracle = DynamicKDTree(points, ids=keys), ColumnarStore(points, ids=keys)
        assert tree._columns.tolist() == shared
        assert tree._pts.shape == (300, max(shared) + 1)
        assert tree._box.shape[2] == max(shared) + 1
        boxes = boxes_over(rng, points, 40)
        assert_as_oracle(tree, oracle, boxes)
        # Hidden groups are hidden in the shared walk too.
        assert tree.deactivate_group(1) == oracle.deactivate_group(1) > 0
        assert_as_oracle(tree, oracle, boxes)

    def test_blocks_sharing_one_code_array_store_it_once(self, small_leaves, rng):
        """The Ptile builders hand both weight columns over as codes into
        one lattice table; a block may pass the very same array twice."""
        points, keys = mapped_points(rng, 200, self.DIM, (0.0,))
        ranks, tables = [], []
        for column in points.T:
            table, rank = np.unique(column, return_inverse=True)
            tables.append(table)
            ranks.append(rank.astype(np.uint8))

        def block(rows):
            part = [rank[rows] for rank in ranks]
            part[self.DIM + 1] = part[self.DIM]  # one object for both weights
            return part, tables, keys[rows]

        tree = DynamicKDTree.from_blocks([block(slice(0, 120)), block(slice(120, None))])
        plain = DynamicKDTree(points, ids=keys)
        for name, arr in plain.to_arrays().items():
            assert np.array_equal(tree.to_arrays()[name], arr), name
        assert tree._columns.tolist() == [0, 1, 2, 2, 0]

    def test_a_delta_insert_parts_the_columns_and_a_removal_rejoins_them(
        self, small_leaves, rng
    ):
        points, keys = mapped_points(rng, 200, self.DIM, (0.0, 0.0))
        tree, oracle = DynamicKDTree(points, ids=keys), ColumnarStore(points, ids=keys)
        assert tree._columns.tolist() == [0, 1, 2, 2, 0]
        extra, _ = mapped_points(rng, 80, self.DIM, (0.05,))
        extra_keys = np.full(80, 7)
        tree.insert(extra, extra_keys)  # past the buffer threshold: rebuilds
        oracle.insert(extra, extra_keys)
        assert tree._buf is None
        assert tree._columns.tolist() == [0, 1, 2, 3, 0]  # the copy stays shared
        assert tree._pts.shape == (280, 4)
        boxes = boxes_over(rng, np.vstack([points, extra]), 40)
        assert_as_oracle(tree, oracle, boxes)

        assert tree.remove_group(7) == oracle.remove_group(7) == 80
        tree._rebuild()
        assert tree._columns.tolist() == [0, 1, 2, 2, 0]
        assert tree._pts.shape == (200, 3)
        assert_as_oracle(tree, oracle, boxes)

    def test_shared_columns_rebuild_to_the_decoded_tree(self, small_leaves, rng):
        """A rebuild over shared columns and a buffer equals planting the
        decoded rows afresh, array for array."""
        points, keys = mapped_points(rng, 200, self.DIM, (0.0,))
        tree = DynamicKDTree(points, ids=keys)
        extra, _ = mapped_points(rng, 10, self.DIM, (0.0,))
        tree.insert(extra, np.full(10, 3))
        tree.remove_group(0)
        assert tree._buf is not None and tree._n_dead
        oracle = TestRebuildEquivalence
        want = oracle._fresh_arrays(*oracle._decoded(tree))
        oracle._assert_equal(tree.to_arrays(), want)
        assert want["columns"].tolist() == [0, 1, 2, 2, 0]

    def test_arrays_without_a_column_map_are_one_column_a_row(self, small_leaves, rng):
        """Files from builds before shared columns hold one code row and one
        node-box column per column and no ``columns``: they are refused,
        not read as the identity map."""
        points, keys = mapped_points(rng, 200, self.DIM, (0.0,))
        tree = DynamicKDTree(points, ids=keys)
        arrays = tree.to_arrays()
        columns = arrays.pop("columns")
        arrays["codes"] = arrays["codes"][columns]
        arrays["node_box"] = arrays["node_box"][:, :, columns]
        with pytest.raises(ValueError, match="no column map"):
            DynamicKDTree.from_arrays(arrays)

    @pytest.mark.parametrize(
        "columns, match",
        [
            (np.array([0, 1, 2, 2]), "level tables do not match"),  # one short
            (np.array([0, 1, 2, 2, 0, 0]), "level tables do not match"),  # one long
            (np.array([0, 1, 2, 3, 0]), "first-use order"),  # past the code rows
            (np.array([0, 1, -1, 2, 0]), "first-use order"),
            (np.array([0.0, 1.0, 2.0, 2.0, 0.0]), "integer vector"),
            (np.array([[0, 1, 2, 2, 0]]), "integer vector"),
            (np.array([0, 2, 2, 2, 0]), "first-use order"),  # row 1 holds nothing
            (np.array([1, 0, 2, 2, 1]), "first-use order"),
            (np.array([0, 1, 2, 2, 2]), "share a level table"),
            (np.array([0, 1, 2, 0, 0]), "share a level table"),
        ],
    )
    def test_hostile_column_maps_are_refused(self, rng, columns, match):
        points, keys = mapped_points(rng, 100, self.DIM, (0.0,))
        arrays = DynamicKDTree(points, ids=keys).to_arrays()
        assert arrays["columns"].tolist() == [0, 1, 2, 2, 0]
        with pytest.raises(ValueError, match=match):
            DynamicKDTree.from_arrays({**arrays, "columns": columns})
