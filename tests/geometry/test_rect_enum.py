"""Tests for combinatorial rectangle enumeration and maximal pairs.

Includes the equivalence check behind the maximal-pair pruning of
``repro.geometry.rect_enum``: the pruned pair set equals the paper's
definition restricted to query-matchable pairs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import rect_enum
from repro.geometry.rect_enum import (
    RectangleGrid,
    _row_counts,
    enumerate_generalized_pairs,
    enumerate_maximal_pairs,
    enumerate_maximal_pairs_naive,
    enumerate_rectangles,
    generalized_pairs_arrays,
    rectangles_arrays,
)
from repro.geometry.rectangle import Rectangle


def fig1_grid_s1():
    """S_1 = {1, 7, 9} from the paper's Figure 1."""
    return RectangleGrid(np.array([[1.0], [7.0], [9.0]]))


def fig1_grid_s2():
    """S_2 = {2, 4, 6, 10} from the paper's Figure 1."""
    return RectangleGrid(np.array([[2.0], [4.0], [6.0], [10.0]]))


class TestGrid:
    def test_coords_sorted_unique(self, rng):
        pts = rng.integers(0, 5, size=(20, 2)).astype(float)
        grid = RectangleGrid(pts)
        for h in range(2):
            assert np.all(np.diff(grid.coords[h]) > 0)

    def test_bounding_box_coords_added(self):
        grid = RectangleGrid(np.array([[1.0], [2.0]]), Rectangle([0.0], [3.0]))
        assert grid.coords[0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_points_outside_box(self):
        with pytest.raises(ValueError):
            RectangleGrid(np.array([[5.0]]), Rectangle([0.0], [3.0]))

    def test_count_and_mass(self):
        grid = fig1_grid_s2()
        # [4, 6] contains {4, 6}: 2 of 4 points.
        assert grid.count((1,), (2,)) == 2
        assert grid.mass((1,), (2,)) == pytest.approx(0.5)

    def test_n_rectangles_formula(self):
        grid = fig1_grid_s1()  # m=3 -> 3*4/2 = 6
        assert grid.n_rectangles() == 6
        assert len(list(grid.index_rectangles())) == 6


class TestEnumerateRectangles:
    def test_fig1_example_r1(self):
        """The paper's worked example: R_1 for S_1 = {1,7,9}."""
        rects = enumerate_rectangles(fig1_grid_s1())
        as_pairs = {(r.lo[0], r.hi[0]): w for r, w in rects}
        expected = {(1, 1), (7, 7), (9, 9), (1, 7), (1, 9), (7, 9)}
        assert set(as_pairs) == {(float(a), float(b)) for a, b in expected}
        # The paper: weight of [1, 7] is 2/3.
        assert as_pairs[(1.0, 7.0)] == pytest.approx(2 / 3)

    def test_fig1_example_r2_size(self):
        assert len(enumerate_rectangles(fig1_grid_s2())) == 10

    def test_2d_counts(self, rng):
        pts = rng.uniform(size=(4, 2))
        grid = RectangleGrid(pts)
        rects = enumerate_rectangles(grid)
        assert len(rects) == grid.n_rectangles()
        for rect, w in rects:
            assert w == pytest.approx(rect.count_inside(pts) / 4)


class TestMaximalPairs:
    def test_fig1_pairs(self):
        """The paper's Section 4.3 example with B = [0, 11]."""
        box = Rectangle([0.0], [11.0])
        g1 = RectangleGrid(np.array([[1.0], [7.0], [9.0]]), box)
        pairs = {
            ((i.lo[0], i.hi[0]), (o.lo[0], o.hi[0]))
            for i, o, _w in enumerate_maximal_pairs(g1)
        }
        assert ((7.0, 7.0), (1.0, 9.0)) in pairs  # the paper's example pair
        g2 = RectangleGrid(np.array([[2.0], [4.0], [6.0], [10.0]]), box)
        pairs2 = {
            ((i.lo[0], i.hi[0]), (o.lo[0], o.hi[0]))
            for i, o, _w in enumerate_maximal_pairs(g2)
        }
        assert ((4.0, 6.0), (2.0, 10.0)) in pairs2
        # ([6,6], [2,10]) must NOT be a pair: [4,6] sits strictly between.
        assert ((6.0, 6.0), (2.0, 10.0)) not in pairs2

    def test_pair_weights_are_inner_mass(self):
        box = Rectangle([0.0], [11.0])
        grid = RectangleGrid(np.array([[1.0], [7.0], [9.0]]), box)
        for inner, _outer, w in enumerate_maximal_pairs(grid):
            assert w == pytest.approx(inner.count_inside(grid.points) / 3)

    def test_outer_strictly_contains_inner(self, rng):
        pts = rng.uniform(0.2, 0.8, size=(5, 2))
        grid = RectangleGrid(pts, Rectangle([0.0, 0.0], [1.0, 1.0]))
        for inner, outer, _w in enumerate_maximal_pairs(grid):
            assert inner.strictly_inside(outer)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 5),
        dim=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    def test_pruning_equivalence(self, n, dim, seed):
        """Pair pruning: pruned set == paper's matchable pairs."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.1, 0.9, size=(n, dim))
        box = Rectangle([0.0] * dim, [1.0] * dim)
        grid = RectangleGrid(pts, box)
        fast = {
            (tuple(i.lo), tuple(i.hi), tuple(o.lo), tuple(o.hi))
            for i, o, _w in enumerate_maximal_pairs(grid)
        }
        naive = {
            (tuple(i.lo), tuple(i.hi), tuple(o.lo), tuple(o.hi))
            for i, o, _w in enumerate_maximal_pairs_naive(grid, matchable_only=True)
        }
        assert fast == naive

    def test_naive_unrestricted_is_superset(self, rng):
        pts = rng.uniform(0.2, 0.8, size=(3, 1))
        grid = RectangleGrid(pts, Rectangle([0.0], [1.0]))
        matchable = len(enumerate_maximal_pairs_naive(grid, matchable_only=True))
        everything = len(enumerate_maximal_pairs_naive(grid, matchable_only=False))
        assert everything >= matchable


def stacked_rectangles(grid):
    """``enumerate_rectangles`` output stacked into ``(lo, hi, mass)``."""
    rects = enumerate_rectangles(grid)
    n, d = len(rects), grid.dim
    return (
        np.asarray([r.lo for r, _w in rects], dtype=float).reshape(n, d),
        np.asarray([r.hi for r, _w in rects], dtype=float).reshape(n, d),
        np.asarray([w for _r, w in rects], dtype=float).reshape(n),
    )


def stacked_generalized_pairs(grid):
    """``enumerate_generalized_pairs`` output stacked into five arrays."""
    pairs = enumerate_generalized_pairs(grid)
    n, d = len(pairs), grid.dim
    mats = [
        np.asarray([p[c] for p in pairs], dtype=float).reshape(n, d)
        for c in range(4)
    ]
    return (*mats, np.asarray([p[4] for p in pairs], dtype=float).reshape(n))


def reference_rows(stack, box):
    """The block enumerator's oracle: ``enumerate_generalized_pairs`` run
    per coreset of the stack, rows stacked in order."""
    per_coreset = [
        stacked_generalized_pairs(RectangleGrid(pts, bounding_box=box))
        for pts in stack
    ]
    return [np.concatenate(column) for column in zip(*per_coreset)]


def reference_rectangles(stack):
    """The stacked ``rectangles_arrays``' oracle: ``enumerate_rectangles``
    run per coreset of the stack, rows stacked in order."""
    per_coreset = [stacked_rectangles(RectangleGrid(pts)) for pts in stack]
    return [np.concatenate(column) for column in zip(*per_coreset)]


def assert_rows_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


class TestVectorizedArrays:
    """The block-operation enumerators must match the reference enumerators
    exactly — same row order, bitwise-equal floats."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_sets=st.integers(1, 12),
        size=st.integers(1, 6),
        dim=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        digits=st.integers(0, 2),
    )
    def test_rectangles_match_reference(self, n_sets, size, dim, seed, digits):
        """A ``(K, s, d)`` stack yields every coreset's rectangles, in
        order, bitwise equal to ``enumerate_rectangles`` run per coreset."""
        rng = np.random.default_rng(seed)
        # Rounding to 0-2 digits makes duplicate samples common: the stack
        # mixes coordinate counts.
        stack = np.round(rng.uniform(0.0, 1.0, size=(n_sets, size, dim)), digits)
        got = rectangles_arrays(stack, None)
        assert_rows_equal(got, reference_rectangles(stack))
        assert _row_counts(stack, None, False).sum() == got[-1].size

    @settings(max_examples=40, deadline=None)
    @given(
        n_sets=st.integers(1, 6),
        size=st.integers(1, 6),
        dim=st.integers(1, 2),
        seed=st.integers(0, 10_000),
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_rectangle_row_range_is_that_slice_of_the_rows(
        self, n_sets, size, dim, seed, cut
    ):
        rng = np.random.default_rng(seed)
        stack = np.round(rng.uniform(0.0, 1.0, size=(n_sets, size, dim)), 1)
        whole = rectangles_arrays(stack, None)
        start, stop = sorted(int(c * whole[-1].size) for c in cut)
        part = rectangles_arrays(stack, (start, stop))
        assert_rows_equal(part, [column[start:stop] for column in whole])

    def test_rectangle_guard_names_the_oversized_coreset(self, monkeypatch):
        stack = np.full((5, 3, 1), 0.5)
        stack[:, 0] = 0.3  # two coordinates: three rectangles
        stack[2] = [[0.2], [0.4], [0.6]]  # the one 3-coordinate grid: six
        assert _row_counts(stack, None, False).tolist() == [3, 3, 6, 3, 3]
        monkeypatch.setattr(rect_enum, "MAX_RECTANGLES_PER_CORESET", 5)
        with pytest.raises(ValueError, match="coreset 2 would induce 6 rectangles"):
            rectangles_arrays(stack, (0, 3))
        with pytest.raises(ValueError, match="coreset 2 would induce 6 rectangles"):
            _row_counts(stack, None, False)

    @settings(max_examples=60, deadline=None)
    @given(
        n_sets=st.integers(1, 20),
        size=st.integers(1, 6),
        dim=st.integers(1, 2),
        seed=st.integers(0, 10_000),
        digits=st.integers(0, 2),
        with_box=st.booleans(),
    )
    def test_generalized_pairs_match_reference(
        self, n_sets, size, dim, seed, digits, with_box
    ):
        """A ``(K, s, d)`` stack yields every coreset's rows, in order,
        bitwise equal to ``enumerate_generalized_pairs`` run per coreset."""
        rng = np.random.default_rng(seed)
        # Rounding to 0-2 digits makes duplicate samples and samples on a
        # box endpoint (0.0 / 1.0) common: the stack mixes count groups.
        stack = np.round(rng.uniform(0.0, 1.0, size=(n_sets, size, dim)), digits)
        box = Rectangle([0.0] * dim, [1.0] * dim) if with_box else None
        got = generalized_pairs_arrays(stack, box, None)
        assert_rows_equal(got, reference_rows(stack, box))
        assert _row_counts(stack, box, True).sum() == got[-1].size

    @settings(max_examples=40, deadline=None)
    @given(
        n_sets=st.integers(1, 6),
        size=st.integers(1, 6),
        dim=st.integers(1, 2),
        seed=st.integers(0, 10_000),
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_row_range_is_that_slice_of_the_rows(self, n_sets, size, dim, seed, cut):
        """A range may begin and end inside a coreset: the product
        position addresses a row, so any range is that slice."""
        rng = np.random.default_rng(seed)
        stack = np.round(rng.uniform(0.0, 1.0, size=(n_sets, size, dim)), 1)
        box = Rectangle([0.0] * dim, [1.0] * dim)
        whole = generalized_pairs_arrays(stack, box, None)
        start, stop = sorted(int(c * whole[-1].size) for c in cut)
        part = generalized_pairs_arrays(stack, box, (start, stop))
        assert_rows_equal(part, [column[start:stop] for column in whole])

    def test_a_stack_mixes_distinct_count_groups(self):
        stack = np.array(
            [
                [[0.2], [0.4], [0.6]],  # 5 coordinates with the box
                [[0.3], [0.3], [0.7]],  # a duplicate: 4
                [[0.0], [0.5], [1.0]],  # two on the box: 3
                [[0.1], [0.8], [0.9]],  # 5 again, after the others
            ]
        )
        box = Rectangle([0.0], [1.0])
        assert _row_counts(stack, box, True).tolist() == [10, 6, 3, 10]
        assert_rows_equal(
            generalized_pairs_arrays(stack, box, None), reference_rows(stack, box)
        )

    @pytest.mark.parametrize("rows", [(0, 10), (-1, 2), (3, 2)])
    def test_row_range_must_lie_within_the_stack(self, rows):
        stack = np.array([[[0.2], [0.4]], [[0.3], [0.3]]])  # 6 + 3 rows
        with pytest.raises(ValueError):
            generalized_pairs_arrays(stack, Rectangle([0.0], [1.0]), rows)

    def test_guard_names_the_oversized_coreset_inside_a_block(self, monkeypatch):
        """The size guard is per coreset, not on the block's total."""
        stack = np.full((6, 4, 1), 0.5)
        stack[:, 0] = 0.3  # two coordinates and the box: 4, six pairs
        stack[3] = [[0.2], [0.4], [0.6], [0.8]]  # the one 6-coordinate grid
        box = Rectangle([0.0], [1.0])
        assert _row_counts(stack, box, True).tolist() == [6, 6, 6, 15, 6, 6]
        monkeypatch.setattr(rect_enum, "MAX_RECTANGLES_PER_CORESET", 14)
        with pytest.raises(ValueError, match="coreset 3 would induce 15 "):
            generalized_pairs_arrays(stack, box, None)
        with pytest.raises(ValueError, match="coreset 3 would induce 15 "):
            _row_counts(stack, box, True)

    def test_containment_error_names_the_coreset_inside_a_block(self):
        stack = np.full((5, 3, 2), 0.5)
        stack[2, 1] = [0.5, 1.5]
        box = Rectangle([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="coreset 2 of the stack"):
            generalized_pairs_arrays(stack, box, None)

    def test_rectangles_agree_with_object_enumerator(self, rng):
        pts = rng.uniform(size=(4, 2))
        lo, hi, mass = rectangles_arrays(pts[None], None)
        rects = enumerate_rectangles(RectangleGrid(pts))
        assert lo.shape == (len(rects), 2)
        for p, (rect, w) in enumerate(rects):
            assert np.array_equal(lo[p], rect.lo)
            assert np.array_equal(hi[p], rect.hi)
            assert mass[p] == w

    def test_zero_pairs_yield_shaped_empty_matrices(self):
        """Regression: a degenerate grid axis produces zero generalized
        pairs, and the arrays must be shaped ``(0, d)`` — not the ragged
        1-d array ``np.asarray([])`` used to produce."""
        pts, box = np.array([[0.5], [0.5]]), Rectangle([0.5], [0.5])
        in_lo, in_hi, out_lo, out_hi, w = generalized_pairs_arrays(
            pts[None], box, None
        )
        for mat in (in_lo, in_hi, out_lo, out_hi):
            assert mat.shape == (0, 1)
        assert w.shape == (0,)
        # the reference enumerator agrees that there are no pairs
        assert enumerate_generalized_pairs(RectangleGrid(pts, box)) == []

    def test_guard_applies_to_vectorized_path(self, rng):
        """The size guard is arithmetic: it refuses an oversized coreset
        before any per-axis option table is allocated."""
        pts = rng.uniform(size=(2000, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                rectangles_arrays(pts[None], None)
            with pytest.raises(ValueError):
                generalized_pairs_arrays(pts[None], None, None)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024


class TestGuards:
    def test_enumeration_cap(self, rng):
        pts = rng.uniform(size=(2000, 2))
        grid = RectangleGrid(pts)
        with pytest.raises(ValueError):
            list(grid.index_rectangles())

    def test_expand_requires_interior(self):
        grid = fig1_grid_s1()
        with pytest.raises(ValueError):
            grid.expand_once((0,), (1,))
