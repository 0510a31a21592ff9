"""Tests for QueryBox open/closed semantics and bbox pruning tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index.query_box import BoxBatch, QueryBox


class TestPointMembership:
    def test_closed(self):
        box = QueryBox.closed([0.0], [1.0])
        assert box.contains_point([0.0]) and box.contains_point([1.0])

    def test_open_lo(self):
        box = QueryBox([(0.0, 1.0, True, False)])
        assert not box.contains_point([0.0]) and box.contains_point([1.0])

    def test_open_hi(self):
        box = QueryBox([(0.0, 1.0, False, True)])
        assert box.contains_point([0.0]) and not box.contains_point([1.0])

    def test_unbounded(self):
        box = QueryBox.unbounded(3)
        assert box.contains_point([1e9, -1e9, 0.0])

    def test_vectorized_matches_scalar(self, rng):
        box = QueryBox([(0.2, 0.8, True, False), (0.1, 0.9, False, True)])
        pts = rng.uniform(size=(50, 2))
        (mask,) = box.batch.contains_points(pts)
        for p, m in zip(pts, mask):
            assert box.contains_point(p) == bool(m)

    def test_the_one_row_batch_is_built_once(self):
        box = QueryBox.closed([0.0, 0.0], [1.0, 1.0])
        assert box.batch is box.batch
        assert box.batch.n_boxes == 1 and box.batch.dim == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QueryBox([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            QueryBox([(math.nan, 1.0, False, False)])


class TestBBoxTests:
    """Soundness of the pruning predicates used by tree traversals."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bbox_predicates_sound(self, seed):
        rng = np.random.default_rng(seed)
        # Integer grid so open/closed boundary coincidences are common.
        pts = rng.integers(0, 4, size=(20, 2)).astype(float)
        blo, bhi = pts.min(axis=0), pts.max(axis=0)
        cons = []
        for _ in range(2):
            a, b = sorted(rng.integers(0, 4, size=2).tolist())
            cons.append((float(a), float(b), bool(rng.integers(2)), bool(rng.integers(2))))
        batch = QueryBox(cons).batch
        (inside,) = batch.contains_points(pts)
        if not batch.intersects_bbox(blo, bhi)[0]:
            assert not inside.any(), "pruned a bbox containing matches"
        if batch.contains_bbox(blo, bhi)[0]:
            assert inside.all(), "claimed full containment wrongly"

    def test_disjoint_open_boundary(self):
        # Box is [0, 1); bbox starts exactly at 1 -> no overlap.
        batch = QueryBox([(0.0, 1.0, False, True)]).batch
        assert not batch.intersects_bbox(np.array([1.0]), np.array([2.0]))[0]

    def test_touching_closed_boundary(self):
        batch = QueryBox([(0.0, 1.0, False, False)]).batch
        assert batch.intersects_bbox(np.array([1.0]), np.array([2.0]))[0]


# ----------------------------------------------------------------------
# The kernel against the flag-by-flag definition it replaced
# ----------------------------------------------------------------------
def oracle_contains_points(lo, hi, lo_open, hi_open, pts):
    """``(Q, n)`` membership from ``(Q, k)`` constraint stacks, by flags."""
    p = pts[None, :, :]
    lo, hi = lo[:, None, :], hi[:, None, :]
    ok = np.where(lo_open[:, None, :], p > lo, p >= lo)
    ok &= np.where(hi_open[:, None, :], p < hi, p <= hi)
    return ok.all(axis=2)


def oracle_intersects_bbox(lo, hi, lo_open, hi_open, blo, bhi):
    ok = np.where(lo_open, bhi > lo, bhi >= lo)
    ok &= np.where(hi_open, blo < hi, blo <= hi)
    return ok.all(axis=1)


def oracle_contains_bbox(lo, hi, lo_open, hi_open, blo, bhi):
    ok = np.where(lo_open, blo > lo, blo >= lo)
    ok &= np.where(hi_open, bhi < hi, bhi <= hi)
    return ok.all(axis=1)


#: Few distinct values, so a point sits exactly on a bound (or on one of
#: its ``nextafter`` neighbours) in most draws, and either infinity can
#: meet either open flag.
_GRID = np.array([-np.inf, -1.0, 0.0, 0.25, 0.5, 1.0, np.inf])
VALUES = np.unique(
    np.concatenate(
        [_GRID, np.nextafter(_GRID[1:-1], np.inf), np.nextafter(_GRID[1:-1], -np.inf)]
    )
)


def random_constraints(rng, q, k):
    lo = rng.choice(_GRID, size=(q, k))
    hi = rng.choice(_GRID, size=(q, k))
    # Orthant-style rows leave one side of each column unconstrained.
    orthant = rng.random(q) < 0.5
    side = rng.random((q, k)) < 0.5
    lo[orthant[:, None] & side] = -np.inf
    hi[orthant[:, None] & ~side] = np.inf
    return lo, hi, rng.random((q, k)) < 0.5, rng.random((q, k)) < 0.5


def boxes_of(lo, hi, lo_open, hi_open):
    return [
        QueryBox(list(zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())))
        for a, b, c, d in zip(lo, hi, lo_open, hi_open)
    ]


class TestKernelAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 1_000_000),
        k=st.integers(1, 10),
        q=st.integers(1, 6),
        n=st.sampled_from([0, 1, 7, 40]),
    )
    def test_scalar_and_batch_match_flagged_predicates(self, seed, k, q, n):
        rng = np.random.default_rng(seed)
        cons = random_constraints(rng, q, k)
        boxes = boxes_of(*cons)
        batch = BoxBatch(boxes)
        pts = rng.choice(VALUES, size=(n, k))
        blo = rng.choice(VALUES, size=k)
        bhi = np.maximum(blo, rng.choice(VALUES, size=k))

        want = oracle_contains_points(*cons, pts)
        want_hit = oracle_intersects_bbox(*cons, blo, bhi)
        want_full = oracle_contains_bbox(*cons, blo, bhi)

        got = batch.contains_points(pts)
        assert got.dtype == bool and got.shape == (q, n)
        assert np.array_equal(got, want)
        # The kd-tree and the columnar store keep points column-major.
        assert np.array_equal(batch.contains_points(np.asfortranarray(pts)), want)
        assert np.array_equal(batch.intersects_bbox(blo, bhi), want_hit)
        assert np.array_equal(batch.contains_bbox(blo, bhi), want_full)

        # A single box is its own one-row batch.
        for i, box in enumerate(boxes):
            one = box.batch.contains_points(pts)
            assert one.dtype == bool and one.shape == (1, n)
            assert np.array_equal(one[0], want[i])
            fortran = box.batch.contains_points(np.asfortranarray(pts))
            assert np.array_equal(fortran[0], want[i])
            assert [box.contains_point(p) for p in pts] == want[i].tolist()
            assert box.batch.intersects_bbox(blo, bhi).tolist() == [want_hit[i]]
            assert box.batch.contains_bbox(blo, bhi).tolist() == [want_full[i]]

        # Row subsets: any order, repeats allowed, possibly empty.
        rows = rng.integers(0, q, size=int(rng.integers(0, 2 * q + 1)))
        assert np.array_equal(batch.contains_points(pts, rows), want[rows])
        assert np.array_equal(batch.intersects_bbox(blo, bhi, rows), want_hit[rows])
        assert np.array_equal(batch.contains_bbox(blo, bhi, rows), want_full[rows])

    def test_open_bound_at_its_own_infinity_is_empty(self):
        pts = np.array([[-np.inf], [0.0], [np.inf]])
        for cons in [(np.inf, np.inf, True, False), (-np.inf, -np.inf, False, True)]:
            box = QueryBox([cons])
            assert not box.batch.contains_points(pts).any()
            assert not any(box.contains_point(p) for p in pts)
        # ... while the closed bound keeps the infinity itself.
        closed = QueryBox([(np.inf, np.inf, False, False)])
        assert closed.batch.contains_points(pts).tolist() == [[False, False, True]]

    def test_unconstrained_batch(self):
        batch = BoxBatch([QueryBox.unbounded(3)] * 2)
        assert batch.contains_points(np.zeros((4, 3))).all()
        assert batch.contains_points(np.zeros((0, 3))).shape == (2, 0)

    def test_single_box_shares_the_batch_kernel(self):
        """One box is the q = 1 batch: no ``(n, k)`` temporary (the old
        scalar kernel built two), an unconstrained side is not compared."""
        n, k = 8192, 10
        rng = np.random.default_rng(1)
        box = QueryBox(
            [(0.3, np.inf, False, False) if j % 2 else (-np.inf, 0.7, False, True)
             for j in range(k)]
        )
        pts = rng.random((n, k))
        box.batch.contains_points(pts[:8])
        tracemalloc.start()
        try:
            out = box.batch.contains_points(pts)
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, n) and peak <= 2 * n + 4096
        assert QueryBox.unbounded(k).batch.contains_points(pts).all()
        assert QueryBox.unbounded(k).batch.contains_points(np.zeros((0, k))).shape == (1, 0)

    def test_no_q_by_n_by_k_temporary(self):
        q, n, k = 16, 8192, 10
        rng = np.random.default_rng(0)
        # An orthant batch: every column constrained on exactly one side.
        lo = np.where(np.arange(k) % 2 == 0, rng.random((q, k)), -np.inf)
        hi = np.where(np.arange(k) % 2 == 0, np.inf, rng.random((q, k)))
        flags = rng.random((2, q, k)) < 0.5
        batch = BoxBatch(boxes_of(lo, hi, flags[0], flags[1]))
        pts = rng.random((n, k))
        batch.contains_points(pts[:8])  # warm numpy's own caches
        tracemalloc.start()
        try:
            out = batch.contains_points(pts)
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The result plus one scratch matrix of its size; the flagged
        # (q, n, k) formulation peaked near 40x the result.
        assert out.nbytes == q * n
        assert peak <= 2 * out.nbytes + 4096


class TestCodedBoxes:
    """``BoxBatch.coded()`` moves boxes onto rank-coded columns: the same
    members, the same bbox verdicts, on small unsigned integers."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 1_000_000),
        k=st.integers(1, 10),
        q=st.integers(1, 6),
        dtype=st.sampled_from([np.uint8, np.uint16, np.uint32]),
    )
    def test_same_members_and_bbox_verdicts_as_the_float_box(self, seed, k, q, dtype):
        rng = np.random.default_rng(seed)
        cons = random_constraints(rng, q, k)
        boxes = boxes_of(*cons)
        tables = [
            np.unique(rng.choice(VALUES, size=int(rng.integers(1, 12)))) for _ in range(k)
        ]
        n = 40
        codes = np.stack(
            [rng.integers(0, t.size, size=n) for t in tables], axis=1
        ).astype(dtype)
        pts = np.stack([t[c] for t, c in zip(tables, codes.T)], axis=1)
        want = oracle_contains_points(*cons, pts)

        batch, keep = BoxBatch(boxes).coded(tables, dtype)
        assert batch.elo.dtype == batch.ehi.dtype == dtype
        assert batch.n_boxes == keep.size
        got = np.zeros((q, n), dtype=bool)
        got[keep] = batch.contains_points(np.asfortranarray(codes))
        assert np.array_equal(got, want)
        assert not want[np.setdiff1d(np.arange(q), keep)].any()

        # A bbox whose corners are levels gets the float box's verdicts.
        sub = codes[: int(rng.integers(1, n + 1))]
        clo, chi = sub.min(axis=0), sub.max(axis=0)
        blo = np.array([t[c] for t, c in zip(tables, clo)])
        bhi = np.array([t[c] for t, c in zip(tables, chi)])
        full = BoxBatch(boxes)
        assert np.array_equal(
            batch.intersects_bbox(clo, chi), full.intersects_bbox(blo, bhi)[keep]
        )
        assert np.array_equal(
            batch.contains_bbox(clo, chi), full.contains_bbox(blo, bhi)[keep]
        )
        # A single box codes as its one-row batch: kept or dropped alone.
        for i, box in enumerate(boxes):
            coded, kept = box.batch.coded(tables, dtype)
            assert (kept.size == 0) == (i not in keep)
            if kept.size:
                assert coded.elo.dtype == dtype
                assert np.array_equal(coded.contains_points(codes)[0], want[i])
                assert np.array_equal(
                    coded.intersects_bbox(clo, chi), box.batch.intersects_bbox(blo, bhi)
                )
                assert np.array_equal(
                    coded.contains_bbox(clo, chi), box.batch.contains_bbox(blo, bhi)
                )

    def test_open_bound_at_its_own_infinity_is_dropped(self):
        tables = [np.array([-np.inf, 0.0, np.inf])]
        for cons in [(np.inf, np.inf, True, False), (-np.inf, -np.inf, False, True)]:
            batch, keep = QueryBox([cons]).batch.coded(tables, np.uint8)
            assert keep.size == 0 and batch.contains_points(np.zeros((3, 1), np.uint8)).shape == (0, 3)
        # ... while the closed bound keeps the infinity itself.
        coded, _ = QueryBox([(np.inf, np.inf, False, False)]).batch.coded(tables, np.uint8)
        assert (coded.elo.tolist(), coded.ehi.tolist()) == ([[2]], [[2]])

    def test_top_rank_of_a_full_dtype_is_representable(self):
        """256 levels in ``uint8``: the free upper bound is rank 255, and a
        bound past every level is a dropped box, not a wrapped 256."""
        tables = [np.arange(256.0)]
        coded, _ = QueryBox([(-np.inf, np.inf, False, False)]).batch.coded(tables, np.uint8)
        assert (coded.elo.tolist(), coded.ehi.tolist()) == ([[0]], [[255]])
        for cons in [(255.0, np.inf, True, False), (255.5, 300.0, False, False)]:
            _, keep = QueryBox([cons]).batch.coded(tables, np.uint8)
            assert keep.size == 0
