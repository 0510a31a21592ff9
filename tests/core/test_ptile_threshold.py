"""Theorem 4.4 guarantee tests for PtileThresholdIndex."""

import numpy as np
import pytest

from repro.core.ptile_threshold import PtileThresholdIndex
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.sample import EpsilonSampleSynopsis

QUERY = Rectangle([0.0], [0.5])


@pytest.fixture
def planted(rng):
    """Datasets with planted masses 1/13 .. 12/13 in [0, 0.5]."""
    datasets, masses = [], []
    for i in range(12):
        frac = (i + 1) / 13
        n_in = int(400 * frac)
        pts = np.vstack(
            [
                rng.uniform(0.0, 0.5, size=(n_in, 1)),
                rng.uniform(0.5001, 1.0, size=(400 - n_in, 1)),
            ]
        )
        datasets.append(pts)
        masses.append(n_in / 400)
    return datasets, masses


@pytest.fixture
def index(planted, rng):
    datasets, _ = planted
    return PtileThresholdIndex(
        [ExactSynopsis(p) for p in datasets], eps=0.1, sample_size=48, rng=rng
    )


class TestGuarantees:
    @pytest.mark.parametrize("a_theta", [0.2, 0.5, 0.8])
    def test_recall(self, index, planted, a_theta):
        _, masses = planted
        truth = {i for i, m in enumerate(masses) if m >= a_theta}
        got = index.query(QUERY, a_theta).index_set
        assert truth <= got

    @pytest.mark.parametrize("a_theta", [0.3, 0.6])
    def test_precision_bound(self, index, planted, a_theta):
        """Lemma 4.2: every reported j has M_R(P_j) >= a - 2eps' - 2delta."""
        _, masses = planted
        slack = 2 * index.eps_effective  # delta = 0 (exact synopses)
        for j in index.query(QUERY, a_theta).indexes:
            assert masses[j] >= a_theta - slack - 1e-9

    def test_no_duplicates(self, index):
        res = index.query(QUERY, 0.1)
        assert len(res.indexes) == len(set(res.indexes))

    def test_structure_restored_after_query(self, index):
        first = index.query(QUERY, 0.4).index_set
        second = index.query(QUERY, 0.4).index_set
        assert first == second

    def test_zero_threshold_reports_everything(self, index):
        assert index.query(QUERY, 0.0).out_size == 12

    def test_impossible_threshold_near_one(self, index, planted):
        _, masses = planted
        got = index.query(QUERY, 1.0).index_set
        # Only near-full-mass datasets may appear (within the slack).
        for j in got:
            assert masses[j] >= 1.0 - 2 * index.eps_effective - 1e-9

    def test_query_expression_threshold_only(self, index):
        res = index.query_expression(QUERY, Interval(0.4, 1.0))
        assert res.index_set == index.query(QUERY, 0.4).index_set
        with pytest.raises(QueryError):
            index.query_expression(QUERY, Interval(0.2, 0.6))


class TestFederated:
    def test_recall_with_sample_synopses(self, planted, rng):
        datasets, masses = planted
        syns = [
            EpsilonSampleSynopsis.from_points(p, size=150, rng=rng) for p in datasets
        ]
        index = PtileThresholdIndex(syns, eps=0.1, sample_size=48, rng=rng)
        a_theta = 0.5
        truth = {i for i, m in enumerate(masses) if m >= a_theta}
        assert truth <= index.query(QUERY, a_theta).index_set

    def test_precision_uses_per_dataset_delta(self, planted, rng):
        datasets, masses = planted
        syns = [
            EpsilonSampleSynopsis.from_points(p, size=150, rng=rng) for p in datasets
        ]
        index = PtileThresholdIndex(syns, eps=0.1, sample_size=48, rng=rng)
        a_theta = 0.6
        for j in index.query(QUERY, a_theta).indexes:
            slack = 2 * index.eps_effective + 2 * index.delta_of(j)
            assert masses[j] >= a_theta - slack - 1e-9

    def test_global_delta_override(self, planted, rng):
        datasets, _ = planted
        syns = [EpsilonSampleSynopsis.from_points(p, size=100, rng=rng) for p in datasets]
        index = PtileThresholdIndex(syns, eps=0.1, delta=0.3, sample_size=24, rng=rng)
        assert all(index.delta_of(k) == 0.3 for k in index.keys)


class TestDynamics:
    def test_insert_visible(self, index, rng):
        # A dataset entirely inside the query region.
        new = ExactSynopsis(rng.uniform(0.0, 0.5, size=(200, 1)))
        key = index.insert_synopsis(new)
        assert key in index.query(QUERY, 0.9).index_set

    def test_delete_hides(self, index):
        res = index.query(QUERY, 0.2)
        victim = res.indexes[0]
        index.delete_synopsis(victim)
        assert victim not in index.query(QUERY, 0.2).index_set

    def test_delete_unknown_raises(self, index):
        with pytest.raises(KeyError):
            index.delete_synopsis(999)

    def test_insert_dim_mismatch(self, index, rng):
        with pytest.raises(ConstructionError):
            index.insert_synopsis(ExactSynopsis(rng.uniform(size=(10, 2))))

    def test_rangetree_engine_rejects_dynamics(self, planted, rng):
        datasets, _ = planted
        index = PtileThresholdIndex(
            [ExactSynopsis(p) for p in datasets[:4]],
            eps=0.2,
            sample_size=8,
            engine="rangetree",
            rng=rng,
        )
        with pytest.raises(ConstructionError):
            index.insert_synopsis(ExactSynopsis(datasets[0]))


class TestEngines:
    def test_rangetree_matches_kd(self, planted):
        datasets, _ = planted
        syns = [ExactSynopsis(p) for p in datasets[:6]]
        kd = PtileThresholdIndex(
            syns, eps=0.2, sample_size=10, engine="kd", rng=np.random.default_rng(5)
        )
        rt = PtileThresholdIndex(
            syns, eps=0.2, sample_size=10, engine="rangetree", rng=np.random.default_rng(5)
        )
        for a in (0.1, 0.4, 0.7):
            assert kd.query(QUERY, a).index_set == rt.query(QUERY, a).index_set

    def test_unknown_engine(self, planted, rng):
        datasets, _ = planted
        with pytest.raises(ConstructionError):
            PtileThresholdIndex(
                [ExactSynopsis(datasets[0])], engine="btree", rng=rng
            )


class TestValidation:
    def test_bad_a_theta(self, index):
        with pytest.raises(QueryError):
            index.query(QUERY, 1.5)

    def test_dim_mismatch_query(self, index):
        with pytest.raises(QueryError):
            index.query(Rectangle([0.0, 0.0], [1.0, 1.0]), 0.5)

    def test_bad_eps(self, planted, rng):
        datasets, _ = planted
        with pytest.raises(ConstructionError):
            PtileThresholdIndex([ExactSynopsis(datasets[0])], eps=0.0, rng=rng)

    def test_empty_synopses(self, rng):
        with pytest.raises(ConstructionError):
            PtileThresholdIndex([], rng=rng)

    def test_mixed_dims(self, rng):
        with pytest.raises(ConstructionError):
            PtileThresholdIndex(
                [
                    ExactSynopsis(rng.uniform(size=(5, 1))),
                    ExactSynopsis(rng.uniform(size=(5, 2))),
                ],
                rng=rng,
            )


class TestDiagnostics:
    def test_coreset_mass_close_to_true(self, index, planted):
        _, masses = planted
        for key in index.keys:
            est = index.coreset_mass(key, QUERY)
            assert abs(est - masses[key]) <= index.eps_effective + 1e-9

    def test_record_times(self, index):
        res = index.query(QUERY, 0.2, record_times=True)
        assert res.start_time is not None and res.end_time is not None
        assert len(res.emit_times) == res.out_size
        assert res.max_delay() is not None
        # The timed ReportFirst loop and the untimed batch walk are two
        # walks over one tree: they report the same datasets.
        assert sorted(res.indexes) == index.query(QUERY, 0.2).indexes
        assert res.out_size > 0

    def test_2d_guarantees(self, rng):
        datasets = []
        masses = []
        region = Rectangle([0.0, 0.0], [0.5, 0.5])
        for i in range(8):
            frac = (i + 1) / 9
            n_in = int(300 * frac)
            inside = rng.uniform(0.0, 0.5, size=(n_in, 2))
            outside = rng.uniform(0.51, 1.0, size=(300 - n_in, 2))
            datasets.append(np.vstack([inside, outside]))
            masses.append(n_in / 300)
        idx = PtileThresholdIndex(
            [ExactSynopsis(p) for p in datasets], eps=0.15, sample_size=8, rng=rng
        )
        got = idx.query(region, 0.5).index_set
        truth = {i for i, m in enumerate(masses) if m >= 0.5}
        assert truth <= got
        slack = 2 * idx.eps_effective
        assert all(masses[j] >= 0.5 - slack - 1e-9 for j in got)
