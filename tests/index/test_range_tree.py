"""Tests for the classic multi-level RangeTree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ptile_range import PtileRangeIndex
from repro.errors import ConstructionError
from repro.index import range_tree
from repro.index.query_box import QueryBox
from repro.index.range_tree import RangeTree
from repro.synopsis.exact import ExactSynopsis


def naive_report(points, box):
    return sorted(np.flatnonzero(box.batch.contains_points(points)).tolist())


def keys_in(rt, box) -> list[int]:
    """The keys of the active points in one box, one per point, from the
    batch kernel (a single box is a batch of one)."""
    return rt.report_many([box])[0]


class TestBasics:
    def test_1d(self):
        rt = RangeTree(np.array([[0.0], [1.0], [2.0]]))
        assert sorted(keys_in(rt, QueryBox.closed([0.5], [2.5]))) == [1, 2]

    def test_2d(self, rng):
        pts = rng.uniform(size=(100, 2))
        rt = RangeTree(pts)
        box = QueryBox.closed([0.2, 0.2], [0.7, 0.7])
        assert sorted(keys_in(rt, box)) == naive_report(pts, box)

    def test_3d(self, rng):
        pts = rng.uniform(size=(60, 3))
        rt = RangeTree(pts)
        box = QueryBox.closed([0.1, 0.1, 0.1], [0.8, 0.8, 0.8])
        assert sorted(keys_in(rt, box)) == naive_report(pts, box)

    def test_count(self, rng):
        pts = rng.uniform(size=(80, 2))
        rt = RangeTree(pts)
        box = QueryBox.closed([0.0, 0.0], [0.5, 0.5])
        assert rt.count(box) == len(naive_report(pts, box))

    def test_report_first_in_truth(self, rng):
        pts = rng.uniform(size=(80, 2))
        rt = RangeTree(pts)
        box = QueryBox.closed([0.3, 0.3], [0.6, 0.6])
        truth = naive_report(pts, box)
        first = rt.report_first(box)
        assert (first is None) == (not truth)
        if truth:
            assert first in truth

    def test_custom_ids(self):
        rt = RangeTree(np.array([[0.0, 0.0], [1.0, 1.0], [1.2, 0.9]]), ids=[4, 9, 9])
        box = QueryBox.closed([0.5, 0.5], [1.5, 1.5])
        assert keys_in(rt, box) == [9, 9]
        assert rt.report_first(box) == 9
        assert rt.report_groups_many([box])[0].tolist() == [9]

    def test_dim_mismatch_raises(self):
        rt = RangeTree(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            keys_in(rt, QueryBox.closed([0.0], [1.0]))

    def test_repeated_key_is_one_group(self):
        """Levels key their points by row, so a shared dataset key toggles
        as one group and reports once per point."""
        rt = RangeTree(np.array([[0.0], [0.0], [2.0]]), ids=[3, 3, 5])
        box = QueryBox.closed([-1.0], [3.0])
        assert sorted(keys_in(rt, box)) == [3, 3, 5] and rt.count(box) == 3
        assert rt.deactivate_group(3) == 2 and keys_in(rt, box) == [5]
        assert rt.activate_group(3) == 2 and rt.count(QueryBox.unbounded(rt.dim)) == 3

    def test_non_integer_ids_rejected(self):
        with pytest.raises(ValueError):
            RangeTree(np.zeros((2, 1)), ids=["x", "y"])

    def test_open_bounds(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        rt = RangeTree(pts)
        box = QueryBox([(0.0, 1.0, True, True), (-1.0, 2.0, False, False)])
        assert keys_in(rt, box) == []


class TestBuildBound:
    @staticmethod
    def held_entries(tree: RangeTree) -> int:
        """The sorted-list entries a built tree holds, walked node by node."""
        total, stack = 0, [tree._root]
        while stack:
            node = stack.pop()
            assoc = node.assoc
            total += (
                TestBuildBound.held_entries(assoc) if isinstance(assoc, RangeTree)
                else len(assoc)
            )
            stack.extend(child for child in (node.left, node.right) if child)
        return total

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (7, 1), (13, 2), (9, 3), (6, 5)])
    def test_the_count_is_what_a_build_holds(self, rng, n, k):
        tree = RangeTree(rng.uniform(size=(n, k)))
        assert self.held_entries(tree) == range_tree._assoc_entries(n, k)

    def test_an_oversized_build_is_refused_before_it_allocates(self, rng, monkeypatch):
        """A Ptile build on the range tree past the bound is a
        ``ConstructionError`` that names the count and points to ``kd``;
        no level of the tree is planted."""
        monkeypatch.setattr(range_tree, "MAX_ASSOC_ENTRIES", 10_000, raising=True)
        planted = []
        monkeypatch.setattr(RangeTree, "_plant", lambda *args: planted.append(args))
        synopses = [ExactSynopsis(rng.uniform(size=(50, 1))) for _ in range(4)]
        with pytest.raises(ConstructionError, match=r"entries, past MAX_ASSOC_ENTRIES = 10,000.*'kd'"):
            PtileRangeIndex(synopses, sample_size=6, engine="rangetree")
        assert planted == []
        # The same lake on kd builds.
        PtileRangeIndex(synopses, sample_size=6, engine="kd")


class TestActivation:
    def test_deactivate_then_activate(self, rng):
        pts = rng.uniform(size=(50, 2))
        rt = RangeTree(pts)
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        truth = naive_report(pts, box)
        assert rt.deactivate_group(truth[0]) == 1
        assert sorted(keys_in(rt, box)) == truth[1:]
        assert rt.activate_group(truth[0]) == 1
        assert sorted(keys_in(rt, box)) == truth

    def test_deactivate_all(self, rng):
        pts = rng.uniform(size=(10, 2))
        rt = RangeTree(pts)
        for i in range(10):
            rt.deactivate_group(i)
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        assert keys_in(rt, box) == []
        assert rt.report_first(box) is None
        assert rt.count(box) == 0


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        dim=st.integers(1, 3),
    )
    def test_report_matches_naive(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(n, dim))
        rt = RangeTree(pts)
        lo = rng.uniform(0, 1, size=dim)
        hi = rng.uniform(0, 1, size=dim)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        box = QueryBox.closed(lo, hi)
        assert sorted(keys_in(rt, box)) == naive_report(pts, box)
        assert rt.count(box) == len(naive_report(pts, box))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_open_bounds_match_naive(self, seed):
        rng = np.random.default_rng(seed)
        # Grid-valued points so open/closed bounds actually matter.
        pts = rng.integers(0, 4, size=(40, 2)).astype(float)
        rt = RangeTree(pts)
        cons = []
        for _ in range(2):
            a, b = sorted(rng.integers(0, 4, size=2).tolist())
            cons.append((float(a), float(b), bool(rng.integers(2)), bool(rng.integers(2))))
        box = QueryBox(cons)
        assert sorted(keys_in(rt, box)) == naive_report(pts, box)
