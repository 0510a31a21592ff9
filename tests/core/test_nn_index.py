"""Tests for the Section 6 nearest-neighbor extension index."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nn_index import NearestNeighborIndex
from repro.errors import ConstructionError, QueryError
from repro.synopsis.cover import CoverSynopsis

RADIUS = 0.05


@pytest.fixture
def planted(rng):
    """Datasets clustered at increasing distance from the origin corner."""
    datasets = []
    for i in range(12):
        center = np.full(2, 0.1 + i * 0.07)
        datasets.append(
            np.clip(rng.normal(center, 0.02, size=(300, 2)), 0.0, 1.0)
        )
    return datasets


@pytest.fixture
def index(planted):
    return NearestNeighborIndex([CoverSynopsis(p, RADIUS) for p in planted])


def exact_dist(pts, q):
    return float(np.linalg.norm(pts - q, axis=1).min())


class TestGuarantees:
    @pytest.mark.parametrize("tau", [0.05, 0.15, 0.3])
    def test_recall(self, index, planted, tau, rng):
        for _ in range(5):
            q = rng.uniform(0.0, 1.0, size=2)
            truth = {i for i, p in enumerate(planted) if exact_dist(p, q) <= tau}
            assert truth <= index.query(q, tau).index_set

    @pytest.mark.parametrize("tau", [0.1, 0.25])
    def test_precision_additive_2r(self, index, planted, tau, rng):
        for _ in range(5):
            q = rng.uniform(0.0, 1.0, size=2)
            for j in index.query(q, tau).indexes:
                assert exact_dist(planted[j], q) <= tau + 2 * RADIUS + 1e-9

    def test_no_duplicates(self, index, rng):
        q = rng.uniform(size=2)
        res = index.query(q, 2.0)
        assert len(res.indexes) == len(res.index_set) == 12

    def test_zero_tau(self, index, planted):
        q = planted[3][0]  # an actual data point; may or may not be a cover pt
        res = index.query(q, 0.0)
        assert 3 in res.index_set  # dist 0 <= 0 + r slack

    def test_record_times(self, index, rng):
        res = index.query(rng.uniform(size=2), 0.5, record_times=True)
        assert len(res.emit_times) == res.out_size


def exact_answer(covers: dict, q, tau):
    """What the index must return, from the covers alone: every key whose
    whole cover comes within ``tau + r_j`` (ascending), and how many keys
    have a cover point in the closed L-inf box of half-width
    ``tau + max_j r_j`` around ``q``."""
    reach = tau + max(c.radius for c in covers.values())
    lo, hi = q - reach, q + reach
    reported = [
        k for k in sorted(covers)
        if exact_dist(covers[k].cover_points, q) <= tau + covers[k].radius
    ]
    candidates = sum(
        bool(((c.cover_points >= lo) & (c.cover_points <= hi)).all(axis=1).any())
        for c in covers.values()
    )
    return reported, candidates


def random_cover(rng, dim):
    lo = rng.uniform(-0.2, 0.8, size=dim)
    pts = lo + rng.uniform(0.0, 0.6, size=(int(rng.integers(1, 40)), dim))
    return CoverSynopsis(pts, float(rng.uniform(0.01, 0.3)))


class TestExactAnswers:
    """The answer is exact with respect to the covers, not just within the
    recall/precision bounds: the box prefilter loses nothing, and each
    candidate is measured against its whole cover."""

    def assert_exact(self, index, covers, q, tau):
        res = index.query(q, tau)
        reported, candidates = exact_answer(covers, q, tau)
        assert res.indexes == reported
        assert res.stats["candidates"] == candidates

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), n=st.integers(1, 8))
    def test_random_lakes_through_inserts_and_deletes(self, seed, dim, n):
        rng = np.random.default_rng(seed)
        covers = dict(enumerate(random_cover(rng, dim) for _ in range(n)))
        index = NearestNeighborIndex(covers.values())
        for step in range(12):
            q = rng.uniform(-0.3, 1.3, size=dim)
            self.assert_exact(index, covers, q, float(rng.uniform(0.0, 0.6)))
            if step % 4 == 1:
                cover = random_cover(rng, dim)
                covers[index.insert_cover(cover)] = cover
            elif step % 4 == 3 and len(covers) > 1:
                victim = sorted(covers)[int(rng.integers(len(covers)))]
                index.delete_cover(victim)
                del covers[victim]

    def test_nearest_cover_point_outside_the_box(self):
        """Reach is ``0.5 + 0.05``: dataset 1 has a cover point inside the
        box, so it is a candidate, but its nearest one, at distance 0.6,
        lies outside it.  It is counted and not reported; dataset 0 is."""
        covers = {
            0: CoverSynopsis(np.array([[0.1, 0.0]]), 0.05),
            1: CoverSynopsis(np.array([[0.54, 0.54], [0.6, 0.0]]), 0.05),
        }
        index = NearestNeighborIndex(covers.values())
        q = np.zeros(2)
        res = index.query(q, 0.5)
        assert (res.indexes, res.stats["candidates"]) == ([0], 2)
        self.assert_exact(index, covers, q, 0.5)
        # A wider tau puts that point in the box and within tau + r_1.
        self.assert_exact(index, covers, q, 0.56)
        assert index.query(q, 0.56).indexes == [0, 1]


class TestDynamics:
    def test_insert_and_delete(self, index, rng):
        far = np.full((50, 2), 0.95) + rng.uniform(-0.01, 0.01, (50, 2))
        key = index.insert_cover(CoverSynopsis(far, RADIUS))
        q = np.array([0.95, 0.95])
        assert key in index.query(q, 0.05).index_set
        index.delete_cover(key)
        assert key not in index.query(q, 0.05).index_set
        with pytest.raises(KeyError):
            index.delete_cover(key)


class TestValidation:
    def test_empty(self):
        with pytest.raises(ConstructionError):
            NearestNeighborIndex([])

    def test_dim_mismatch(self, rng):
        with pytest.raises(ConstructionError):
            NearestNeighborIndex(
                [
                    CoverSynopsis(rng.uniform(size=(5, 1)), 0.1),
                    CoverSynopsis(rng.uniform(size=(5, 2)), 0.1),
                ]
            )

    def test_bad_query(self, index):
        with pytest.raises(QueryError):
            index.query(np.zeros(3), 0.1)
        with pytest.raises(QueryError):
            index.query(np.zeros(2), -1.0)

    def test_metadata(self, index):
        assert index.n_datasets == 12
        assert index.max_radius == RADIUS
        assert index.radius_of(0) == RADIUS
