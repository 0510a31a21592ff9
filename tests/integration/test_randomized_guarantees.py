"""Property-based end-to-end guarantee checks on random instances.

Hypothesis drives random repositories, random query rectangles and random
thetas through the full audit of :mod:`repro.evaluation`: for every
structure, recall must be perfect and every false positive must sit inside
the documented slack band.  These are the strongest correctness tests in
the suite — any soundness bug in the coreset/mapping/engine stack surfaces
here.

Every ``@given`` here is derandomized: the coresets are random draws, and a
legitimate probability-phi bad eps-sample (seed 3746 of the range test, say)
would otherwise turn tier-1 red by chance.  The examples are fixed, not
fewer, and every assertion stands.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pref_index import PrefIndex
from repro.core.ptile_range import PtileRangeIndex
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.evaluation import (
    audit_interval_query,
    exact_pref_scores,
    exact_ptile_masses,
)
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.sample import EpsilonSampleSynopsis


def random_repository(rng, n_datasets, dim):
    datasets = []
    for _ in range(n_datasets):
        kind = rng.integers(3)
        n = int(rng.integers(50, 300))
        if kind == 0:
            pts = rng.uniform(size=(n, dim))
        elif kind == 1:
            center = rng.uniform(0.2, 0.8, size=dim)
            pts = np.clip(rng.normal(center, 0.1, size=(n, dim)), 0, 1)
        else:
            pts = np.abs(rng.normal(0.0, 0.3, size=(n, dim))) % 1.0
        datasets.append(pts)
    return datasets


class TestPtileThresholdRandomized:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), a=st.floats(0.0, 0.95))
    def test_guarantees(self, seed, a):
        rng = np.random.default_rng(seed)
        datasets = random_repository(rng, 8, 1)
        index = PtileThresholdIndex(
            [ExactSynopsis(d) for d in datasets],
            eps=0.2,
            sample_size=24,
            rng=np.random.default_rng(seed + 1),
        )
        lo, hi = sorted(rng.uniform(0, 1, size=2).tolist())
        rect = Rectangle([lo], [max(hi, lo + 1e-6)])
        report = audit_interval_query(
            exact_ptile_masses(datasets, rect),
            index.query(rect, a).index_set,
            Interval(a, 1.0),
            slack_of=lambda j: 2 * index.eps_effective,
        )
        assert report.guarantees_hold, (report.missed, report.slack_violations)


class TestPtileRangeRandomized:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        a=st.floats(0.0, 0.9),
        width=st.floats(0.0, 1.0),
    )
    def test_guarantees(self, seed, a, width):
        rng = np.random.default_rng(seed)
        datasets = random_repository(rng, 6, 1)
        index = PtileRangeIndex(
            [ExactSynopsis(d) for d in datasets],
            eps=0.2,
            sample_size=16,
            rng=np.random.default_rng(seed + 1),
        )
        lo, hi = sorted(rng.uniform(0, 1, size=2).tolist())
        rect = Rectangle([lo], [max(hi, lo + 1e-6)])
        theta = Interval(a, min(1.0, a + width))
        report = audit_interval_query(
            exact_ptile_masses(datasets, rect),
            index.query(rect, theta).index_set,
            theta,
            slack_of=lambda j: 2 * index.eps_effective,
        )
        assert report.guarantees_hold, (report.missed, report.slack_violations)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_guarantees_2d(self, seed):
        rng = np.random.default_rng(seed)
        datasets = random_repository(rng, 5, 2)
        index = PtileRangeIndex(
            [ExactSynopsis(d) for d in datasets],
            eps=0.3,
            sample_size=5,
            rng=np.random.default_rng(seed + 1),
        )
        lo = rng.uniform(0, 0.5, size=2)
        hi = lo + rng.uniform(0.1, 0.5, size=2)
        rect = Rectangle(lo, hi)
        theta = Interval(0.2, 0.7)
        report = audit_interval_query(
            exact_ptile_masses(datasets, rect),
            index.query(rect, theta).index_set,
            theta,
            slack_of=lambda j: 2 * index.eps_effective,
        )
        assert report.guarantees_hold, (report.missed, report.slack_violations)


class TestPtileFederatedRandomized:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_guarantees_with_sample_synopses(self, seed):
        rng = np.random.default_rng(seed)
        datasets = random_repository(rng, 6, 1)
        syns = [
            EpsilonSampleSynopsis.from_points(d, size=120, rng=rng) for d in datasets
        ]
        index = PtileRangeIndex(
            syns, eps=0.2, sample_size=16, rng=np.random.default_rng(seed + 1)
        )
        rect = Rectangle([0.2], [0.7])
        theta = Interval(0.25, 0.75)
        report = audit_interval_query(
            exact_ptile_masses(datasets, rect),
            index.query(rect, theta).index_set,
            theta,
            slack_of=lambda j: 2 * index.eps_effective + 2 * index.delta_of(j),
        )
        assert report.guarantees_hold, (report.missed, report.slack_violations)


class TestPrefRandomized:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), a=st.floats(-0.5, 0.8))
    def test_guarantees(self, seed, a):
        rng = np.random.default_rng(seed)
        datasets = [
            np.clip(rng.normal(rng.uniform(-0.4, 0.4, 2), 0.2, size=(100, 2)), -1, 1)
            for _ in range(8)
        ]
        k = int(rng.integers(1, 10))
        index = PrefIndex([ExactSynopsis(d) for d in datasets], k=k, eps=0.15)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        report = audit_interval_query(
            exact_pref_scores(datasets, u, k),
            index.query(u, a).index_set,
            Interval.at_least(a),
            slack_of=lambda j: 2 * index.eps,
        )
        assert report.guarantees_hold, (report.missed, report.slack_violations)
