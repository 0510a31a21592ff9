"""score_batch must agree with per-vector score for every synopsis type."""

import numpy as np
import pytest

from repro.synopsis import (
    DirectionQuantileSynopsis,
    EpsilonSampleSynopsis,
    ExactSynopsis,
    GMMSynopsis,
    HistogramSynopsis,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    return rng.uniform(-0.5, 0.5, size=(800, 2))


@pytest.fixture(scope="module")
def directions():
    rng = np.random.default_rng(18)
    v = rng.normal(size=(12, 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def synopses(data):
    rng = np.random.default_rng(19)
    return {
        "exact": ExactSynopsis(data),
        "sample": EpsilonSampleSynopsis.from_points(data, size=200, rng=rng),
        "hist": HistogramSynopsis(data, bins=12),
        "gmm": GMMSynopsis(data, n_components=2, rng=rng, n_iter=15),
        "kernel": DirectionQuantileSynopsis(data, eps_dir=0.2, rng=rng),
    }


@pytest.mark.parametrize("kind", ["exact", "sample", "hist", "gmm", "kernel"])
def test_batch_matches_scalar(data, directions, kind):
    syn = synopses(data)[kind]
    for k in (1, 10, 100):
        batch = syn.score_batch(directions, k)
        scalar = np.array([syn.score(v, k) for v in directions])
        assert np.allclose(batch, scalar, atol=1e-9)


def test_batch_k_beyond_size(data, directions):
    syn = ExactSynopsis(data)
    out = syn.score_batch(directions, data.shape[0] + 1)
    assert np.all(np.isneginf(out))


def test_batch_single_vector(data):
    syn = ExactSynopsis(data)
    v = np.array([1.0, 0.0])
    assert syn.score_batch(v, 5).shape == (1,)
    assert syn.score_batch(v, 5)[0] == pytest.approx(syn.score(v, 5))


def test_batch_rejects_zero_vector(data):
    syn = ExactSynopsis(data)
    with pytest.raises(ValueError):
        syn.score_batch(np.zeros((2, 2)), 1)


class TestExactScoreBlocks:
    """``ExactSynopsis.score_batch`` projects in direction blocks; the
    reference is the one-shot formula it replaced."""

    @staticmethod
    def one_shot(points, vectors, k):
        units = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        order = points.shape[0] - k
        return np.partition(points @ units.T, order, axis=0)[order]

    @pytest.mark.parametrize("n, d, m, k", [(800, 2, 12, 10), (150, 4, 5000, 5), (7, 3, 999, 7)])
    def test_a_net_that_fits_one_block_is_the_same_matmul(self, n, d, m, k):
        rng = np.random.default_rng(n + m)
        points, vectors = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        got = ExactSynopsis(points).score_batch(vectors, k)
        assert np.array_equal(got, self.one_shot(points, vectors, k))

    @pytest.mark.parametrize("budget", [1, 1 << 10, 1 << 14])
    def test_split_nets_agree_and_stay_within_the_budget(self, budget, monkeypatch):
        """Across blocks a BLAS may round an element differently where a
        tile ends — an ulp of the projection, bounded here from the dtype —
        and no block (the matrices handed to ``partition``) exceeds the
        element budget by more than the alignment.

        A block is counted where the budget bites, at the selection: a
        product of the points carries their subclass whichever side of
        ``@`` they are on, and the spy records each matrix partitioned."""
        from repro.synopsis import exact

        rng = np.random.default_rng(budget)
        n, d, m, k = 150, 4, 3001, 5
        points, vectors = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        want = self.one_shot(points, vectors, k)
        seen = []

        class Spy(np.ndarray):
            def partition(self, *args, **kwargs):
                seen.append(self.size)
                return super().partition(*args, **kwargs)

        syn = ExactSynopsis(points)
        syn._points = points.view(Spy)
        monkeypatch.setattr(exact, "SCORE_BLOCK_ELEMENTS", budget)
        got = syn.score_batch(vectors, k)
        ulp = np.finfo(float).eps * np.linalg.norm(points, axis=1).max()
        assert np.abs(got - want).max() <= 4 * ulp
        assert np.mean(got == want) > 0.99
        assert len(seen) > 1
        assert max(seen) <= max(budget, n * exact.SCORE_BLOCK_ALIGN)
