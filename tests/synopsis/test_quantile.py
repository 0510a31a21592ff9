"""Tests for the equi-depth quantile histogram synopsis."""

import numpy as np
import pytest

from repro.geometry.rectangle import Rectangle
from repro.synopsis import quantile
from repro.synopsis.quantile import QuantileHistogramSynopsis
from repro.workloads.queries import random_rectangles


@pytest.fixture(scope="module")
def independent_data():
    rng = np.random.default_rng(31)
    return rng.uniform(size=(6000, 2))


@pytest.fixture(scope="module")
def syn(independent_data):
    return QuantileHistogramSynopsis(
        independent_data, rng=np.random.default_rng(1)
    )


class TestMass:
    def test_independent_attributes_accurate(self, syn):
        assert syn.mass(Rectangle([0.0, 0.0], [0.5, 0.5])) == pytest.approx(
            0.25, abs=0.03
        )

    def test_error_within_measured_delta(self, independent_data, syn):
        rng = np.random.default_rng(6)
        for rect in random_rectangles(30, 2, rng):
            exact = rect.count_inside(independent_data) / independent_data.shape[0]
            assert abs(syn.mass(rect) - exact) <= syn.delta_ptile + 0.01

    def test_correlated_attributes_get_large_delta(self):
        """Independence assumption fails on correlated data — and the
        measured delta must say so."""
        rng = np.random.default_rng(9)
        x = rng.uniform(size=6000)
        correlated = np.column_stack([x, x + rng.normal(0, 0.01, 6000)])
        syn_corr = QuantileHistogramSynopsis(correlated, rng=rng)
        assert syn_corr.delta_ptile > 0.1

    def test_out_of_range(self, syn):
        assert syn.mass(Rectangle([2.0, 2.0], [3.0, 3.0])) == 0.0
        assert syn.mass(Rectangle([-1, -1], [2, 2])) == pytest.approx(1.0)

    def test_dim_mismatch(self, syn):
        with pytest.raises(ValueError):
            syn.mass(Rectangle([0.0], [1.0]))


class TestSample:
    def test_marginals_match(self, independent_data, syn, rng):
        s = syn.sample(4000, rng)
        for h in range(2):
            assert np.mean(s[:, h] <= 0.3) == pytest.approx(0.3, abs=0.04)

    def test_shape(self, syn, rng):
        assert syn.sample(10, rng).shape == (10, 2)


class TestScore:
    def test_independent_data_score(self, independent_data, syn):
        v = np.array([1.0, 0.0])
        exact = np.sort(independent_data[:, 0])[-60]
        assert abs(syn.score(v, 60) - exact) <= syn.delta_pref + 0.02

    def test_deterministic(self, syn):
        v = np.array([0.6, 0.8])
        assert syn.score(v, 10) == syn.score(v, 10)

    def test_k_beyond_population(self, syn, independent_data):
        assert syn.score(np.array([1.0, 0.0]), independent_data.shape[0] + 1) == float(
            "-inf"
        )


class TestValidation:
    def test_bad_args(self, rng):
        with pytest.raises(ValueError):
            QuantileHistogramSynopsis(np.empty((0, 2)), rng=rng)
        with pytest.raises(ValueError):
            QuantileHistogramSynopsis(rng.uniform(size=(10, 1)), n_quantiles=1, rng=rng)

    def test_metadata(self, syn):
        assert syn.dim == 2 and syn.n_points == 6000 and syn.n_quantiles == 64


class TestVectorizedCdf:
    """The all-axes-at-once CDF must match the per-axis np.interp loop."""

    def _reference_cdf(self, syn, axis, value):
        knots = syn._knots[axis]
        if value < knots[0]:
            return 0.0
        if value >= knots[-1]:
            return 1.0
        return float(np.interp(value, knots, syn._levels))

    @pytest.mark.parametrize("kind", ["uniform", "normal", "duplicates"])
    def test_matches_interp_reference(self, kind, rng, monkeypatch):
        if kind == "uniform":
            data = rng.uniform(size=(600, 3))
        elif kind == "normal":
            data = rng.normal(size=(600, 3))
        else:  # discrete values -> heavy duplicate knots
            data = rng.integers(0, 4, size=(600, 3)).astype(float)
        monkeypatch.setattr(quantile, "PROBE_RECTS", 4)
        syn = QuantileHistogramSynopsis(data, n_quantiles=16, rng=rng)
        probes = rng.uniform(data.min() - 0.5, data.max() + 0.5, size=(80, 3))
        # Exact knot values are the duplicate-resolution edge case.
        knot_probes = np.stack(
            [rng.choice(syn._knots[h], size=16) for h in range(3)], axis=1
        )
        for v in np.vstack([probes, knot_probes]):
            got = syn._marginal_cdf_all(v)
            want = [self._reference_cdf(syn, h, v[h]) for h in range(3)]
            assert np.allclose(got, want, atol=1e-12)

    def test_mass_is_product_of_marginals(self, syn, rng):
        from repro.geometry.rectangle import Rectangle

        for _ in range(20):
            a, b = rng.uniform(size=(2, 2))
            rect = Rectangle(np.minimum(a, b), np.maximum(a, b))
            want = 1.0
            for h in range(2):
                want *= max(
                    0.0,
                    self._reference_cdf(syn, h, float(rect.hi[h]))
                    - self._reference_cdf(syn, h, float(rect.lo[h])),
                )
            assert abs(syn.mass(rect) - want) < 1e-12
