"""Tests for the shared Ptile machinery (_ptile_common)."""

import numpy as np
import pytest

from repro.core._ptile_common import (
    DEFAULT_POINT_BUDGET,
    draw_coreset,
    max_sample_for_budget,
    resolve_deltas,
    resolve_sample_size,
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
        """One single-dataset stream of one ``(codes, tables, ids)`` piece."""
        codes = [rng.permutation(n) for _ in range(k)]
        tables = [np.sort(rng.uniform(size=n)) for _ in range(k)]
        return [(codes, tables, np.arange(n))]

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
    """The zero-pair crash path of mapped-point assembly."""

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
