"""Tests for ε-nets of unit vectors (Section 2)."""


import numpy as np
import pytest

from repro.geometry.epsilon_net import (
    _dedupe,
    build_epsilon_net,
    covering_angle_bound,
    nearest_net_vector,
    net_covering_angle,
)


class TestConstruction:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_unit_norm(self, dim):
        net = build_epsilon_net(dim, 0.3)
        assert np.allclose(np.linalg.norm(net, axis=1), 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_centrally_symmetric(self, dim):
        net = build_epsilon_net(dim, 0.3)
        keys = {tuple(np.round(v, 8)) for v in net}
        assert all(tuple(np.round(-v, 8)) in keys for v in net)

    def test_d1_is_pm_one(self):
        net = build_epsilon_net(1, 0.5)
        assert sorted(net.ravel().tolist()) == [-1.0, 1.0]

    def test_smaller_eps_more_vectors(self):
        assert len(build_epsilon_net(2, 0.05)) > len(build_epsilon_net(2, 0.3))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            build_epsilon_net(2, 0.0)
        with pytest.raises(ValueError):
            build_epsilon_net(2, 1.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            build_epsilon_net(0, 0.3)

    def test_high_dim_guard(self):
        with pytest.raises(ValueError):
            build_epsilon_net(8, 0.01)


class TestCoverage:
    """The paper's definition: every unit vector within the angle bound."""

    @pytest.mark.parametrize("dim,eps", [(2, 0.3), (2, 0.1), (3, 0.3), (4, 0.5)])
    def test_covering_angle(self, dim, eps, rng):
        net = build_epsilon_net(dim, eps)
        bound = covering_angle_bound(eps)
        worst = net_covering_angle(net, trials=400, rng=rng)
        assert worst <= bound + 1e-9

    def test_angle_bound_is_order_eps(self):
        # arccos(1/sqrt(1+eps^2)) ~ eps for small eps.
        assert covering_angle_bound(0.1) == pytest.approx(0.0997, abs=1e-3)


class TestNearest:
    def test_exact_member(self):
        net = build_epsilon_net(2, 0.2)
        idx = nearest_net_vector(net, net[7])
        assert np.allclose(net[idx], net[7])

    def test_normalizes_query(self):
        net = build_epsilon_net(2, 0.2)
        a = nearest_net_vector(net, np.array([10.0, 0.0]))
        b = nearest_net_vector(net, np.array([1.0, 0.0]))
        assert a == b

    def test_rejects_zero_vector(self):
        net = build_epsilon_net(2, 0.2)
        with pytest.raises(ValueError):
            nearest_net_vector(net, np.zeros(2))

    def test_rejects_wrong_dim(self):
        net = build_epsilon_net(2, 0.2)
        with pytest.raises(ValueError):
            nearest_net_vector(net, np.ones(3))

    def test_lemma_5_1_projection_error(self, rng):
        """|w(p, v) - w(p, u)| <= eps for unit-ball points, snapped u."""
        eps = 0.2
        net = build_epsilon_net(3, eps)
        for _ in range(50):
            p = rng.normal(size=3)
            p = p / np.linalg.norm(p) * rng.uniform(0, 1)  # in unit ball
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            u = net[nearest_net_vector(net, v)]
            assert abs(p @ v - p @ u) <= eps + 1e-9


class TestDedupe:
    """``_dedupe`` keeps what ``np.unique(rounded, axis=0,
    return_index=True)`` keeps — each rounding's first row, in order —
    bit for bit, sign bits of ``-0.0`` included."""

    @staticmethod
    def reference(vectors):
        _, keep = np.unique(np.round(vectors, 9), axis=0, return_index=True)
        return vectors[np.sort(keep)]

    @staticmethod
    def assert_same(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lattice_directions_and_their_mirror(self, dim, k):
        axes = [np.arange(-k, k + 1, dtype=float)] * dim
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        grid = grid[np.any(grid != 0.0, axis=1)]
        dirs = grid / np.linalg.norm(grid, axis=1, keepdims=True)
        self.assert_same(_dedupe(dirs), self.reference(dirs))
        kept = self.reference(dirs)
        mirrored = np.vstack([kept, -kept])  # what _symmetrize hands over
        assert np.signbit(mirrored[mirrored == 0.0]).any()
        self.assert_same(_dedupe(mirrored), self.reference(mirrored))

    def test_near_duplicates_and_signed_zeros(self, rng):
        base = rng.integers(-2, 3, size=(200, 3)).astype(float)
        noisy = base + rng.choice([0.0, 1e-12, -1e-12], size=base.shape)
        vectors = np.vstack([noisy, -noisy, base * -0.0])
        self.assert_same(_dedupe(vectors), self.reference(vectors))
