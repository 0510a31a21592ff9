"""Tests for the shared Ptile machinery (_ptile_common)."""

import numpy as np
import pytest

from repro.core._ptile_common import (
    DEFAULT_POINT_BUDGET,
    draw_coreset,
    max_sample_for_budget,
    range_point_matrix,
    resolve_deltas,
    resolve_sample_size,
    threshold_point_matrix,
)
from repro.errors import ConstructionError
from repro.index.backend import build_engine
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.kernel import DirectionQuantileSynopsis


class TestResolveDeltas:
    def test_global_override(self, rng):
        syns = [ExactSynopsis(rng.uniform(size=(5, 1))) for _ in range(3)]
        assert resolve_deltas(syns, 0.2) == [0.2, 0.2, 0.2]

    def test_per_synopsis(self, rng):
        syns = [ExactSynopsis(rng.uniform(size=(5, 1)))]
        assert resolve_deltas(syns, None) == [0.0]

    def test_bad_global(self, rng):
        syns = [ExactSynopsis(rng.uniform(size=(5, 1)))]
        with pytest.raises(ConstructionError):
            resolve_deltas(syns, 1.0)
        with pytest.raises(ConstructionError):
            resolve_deltas(syns, -0.1)

    def test_unsupported_synopsis(self, rng):
        syns = [DirectionQuantileSynopsis(rng.uniform(size=(100, 2)), rng=rng)]
        with pytest.raises(ConstructionError):
            resolve_deltas(syns, None)


class TestSampleSizeResolution:
    def test_budget_bound(self):
        for dim in (1, 2, 3):
            s = max_sample_for_budget(dim, DEFAULT_POINT_BUDGET)
            # The induced rectangle count must respect the budget.
            per_axis = s * (s + 1) / 2
            assert per_axis ** dim <= DEFAULT_POINT_BUDGET * 4  # headroom
            assert s >= 2

    def test_budget_shrinks_with_dim(self):
        assert max_sample_for_budget(1, 4096) > max_sample_for_budget(2, 4096)

    def test_explicit_size_wins(self):
        assert resolve_sample_size(0.1, None, 10, 7, dim=1) == 7

    def test_explicit_size_validated(self):
        with pytest.raises(ConstructionError):
            resolve_sample_size(0.1, None, 10, 1, dim=1)

    def test_theoretical_capped_by_budget(self):
        tight = resolve_sample_size(0.01, 0.01, 100, None, dim=2)
        assert tight <= max_sample_for_budget(2, DEFAULT_POINT_BUDGET)

    def test_loose_eps_below_cap(self):
        loose = resolve_sample_size(0.5, 0.5, 2, None, dim=1)
        assert loose < max_sample_for_budget(1, DEFAULT_POINT_BUDGET)


class TestDrawCoreset:
    def test_shape(self, rng):
        syn = ExactSynopsis(rng.uniform(size=(100, 2)))
        core = draw_coreset(syn, 16, rng)
        assert core.shape == (16, 2)


class TestBuildEngine:
    @staticmethod
    def _mapped(rng, n, k):
        """One single-dataset stream of ``(points, ids)``."""
        return [(rng.uniform(size=(n, k)), np.arange(n))]

    def test_kd(self, rng):
        engine = build_engine(self._mapped(rng, 10, 2), "kd")
        assert len(engine) == 10

    def test_rangetree(self, rng):
        engine = build_engine(self._mapped(rng, 10, 2), "rangetree")
        assert len(engine) == 10

    def test_unknown(self, rng):
        with pytest.raises(ConstructionError):
            build_engine(self._mapped(rng, 5, 1), "btree")


class TestPointMatrixAssembly:
    """One-shot mapped-point assembly, including the zero-pair crash path."""

    def test_range_matrix_layout_matches_row_concat(self, rng):
        d, n = 2, 7
        in_lo = rng.uniform(size=(n, d))
        in_hi = rng.uniform(size=(n, d))
        out_lo = rng.uniform(size=(n, d))
        out_hi = rng.uniform(size=(n, d))
        w = rng.uniform(size=n)
        mat = range_point_matrix(in_lo, in_hi, out_lo, out_hi, w, 0.05)
        assert mat.shape == (n, 4 * d + 2)
        for p in range(n):
            row = np.concatenate(
                [in_lo[p], out_lo[p], in_hi[p], out_hi[p],
                 [w[p] + 0.05, w[p] - 0.05]]
            )
            assert np.array_equal(mat[p], row)

    def test_threshold_matrix_layout_matches_row_concat(self, rng):
        d, n = 3, 5
        lo = rng.uniform(size=(n, d))
        hi = rng.uniform(size=(n, d))
        w = rng.uniform(size=n)
        mat = threshold_point_matrix(lo, hi, w, 0.1)
        assert mat.shape == (n, 2 * d + 1)
        for p in range(n):
            assert np.array_equal(
                mat[p], np.concatenate([lo[p], hi[p], [w[p] + 0.1]])
            )

    def test_zero_pairs_give_shaped_empty_matrix(self):
        """Regression: zero maximal pairs must yield a (0, 4d+2) matrix,
        not the ragged 1-d array ``np.asarray([])`` produced before."""
        d = 2
        empty = np.empty((0, d))
        mat = range_point_matrix(empty, empty, empty, empty, np.empty(0), 0.0)
        assert mat.shape == (0, 4 * d + 2)
        thr = threshold_point_matrix(empty, empty, np.empty(0), 0.0)
        assert thr.shape == (0, 2 * d + 1)

    def test_empty_matrix_stacks_with_populated(self, rng):
        """The crash path: vstack of a zero-pair dataset's matrix with a
        populated one must produce a well-shaped combined matrix."""
        d = 1
        empty = range_point_matrix(
            np.empty((0, d)), np.empty((0, d)), np.empty((0, d)),
            np.empty((0, d)), np.empty(0), 0.0,
        )
        full = range_point_matrix(
            rng.uniform(size=(3, d)), rng.uniform(size=(3, d)),
            rng.uniform(size=(3, d)), rng.uniform(size=(3, d)),
            rng.uniform(size=3), 0.0,
        )
        stacked = np.vstack([empty, full])
        assert stacked.shape == (3, 4 * d + 2)

    def test_degenerate_bounding_box_raises_cleanly(self):
        """An all-degenerate box yields zero pairs for every dataset; the
        range index must refuse with a ConstructionError, not crash on a
        ragged array deep inside the backend."""
        from repro.core.ptile_range import PtileRangeIndex
        from repro.geometry.rectangle import Rectangle

        data = np.full((20, 1), 0.5)
        syns = [ExactSynopsis(data) for _ in range(3)]
        with pytest.raises(ConstructionError):
            PtileRangeIndex(
                syns, eps=0.3, sample_size=4,
                bounding_box=Rectangle([0.5], [0.5]),
                rng=np.random.default_rng(0),
            )
