"""Theorem 4.11 guarantee tests for PtileRangeIndex."""

import numpy as np
import pytest

from repro.core.ptile_range import PtileRangeIndex
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.index.query_box import QueryBox
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.sample import EpsilonSampleSynopsis

QUERY = Rectangle([0.0], [0.5])


@pytest.fixture
def planted(rng):
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
    return PtileRangeIndex(
        [ExactSynopsis(p) for p in datasets], eps=0.1, sample_size=32, rng=rng
    )


class TestGuarantees:
    @pytest.mark.parametrize("theta", [(0.2, 0.5), (0.4, 0.7), (0.0, 0.3)])
    def test_recall(self, index, planted, theta):
        _, masses = planted
        iv = Interval(*theta)
        truth = {i for i, m in enumerate(masses) if m in iv}
        assert truth <= index.query(QUERY, iv).index_set

    @pytest.mark.parametrize("theta", [(0.3, 0.6), (0.5, 0.8)])
    def test_two_sided_precision(self, index, planted, theta):
        """Lemma 4.8: a - 2eps' <= M_R(P_j) <= b + 2eps' for exact synopses."""
        _, masses = planted
        a, b = theta
        slack = 2 * index.eps_effective
        for j in index.query(QUERY, Interval(a, b)).indexes:
            assert a - slack - 1e-9 <= masses[j] <= b + slack + 1e-9

    def test_no_duplicates_lemma_4_9(self, index):
        res = index.query(QUERY, Interval(0.0, 1.0))
        assert len(res.indexes) == len(set(res.indexes))
        assert res.out_size == 12

    def test_upper_bound_actually_filters(self, index, planted):
        """Unlike the threshold structure, high-mass datasets are excluded."""
        _, masses = planted
        got = index.query(QUERY, Interval(0.0, 0.25)).index_set
        heavy = {i for i, m in enumerate(masses) if m > 0.25 + 2 * index.eps_effective}
        assert not (got & heavy)

    def test_structure_restored_after_query(self, index):
        iv = Interval(0.2, 0.6)
        assert index.query(QUERY, iv).index_set == index.query(QUERY, iv).index_set

    @pytest.mark.parametrize(
        "engine, sample_size", [("kd", 32), ("rangetree", 5)]
    )
    def test_timed_loop_equals_batched_mode(self, planted, engine, sample_size):
        """Algorithm 4's loop — ReportFirst, then one ``deactivate_group``
        per reported dataset — reports what the one-pass group-by reports
        and puts every hidden point back."""
        datasets, _ = planted
        idx = PtileRangeIndex(
            [ExactSynopsis(p) for p in datasets[:6]],
            eps=0.1,
            sample_size=sample_size,
            engine=engine,
            rng=np.random.default_rng(4),
        )
        whole = QueryBox.unbounded(idx._tree.dim)
        n_active = idx._tree.count(whole)
        assert n_active == idx.n_mapped_points
        for theta in (Interval(0.0, 1.0), Interval(0.2, 0.5), Interval(0.9, 1.0)):
            batched = idx.query(QUERY, theta)
            timed = idx.query(QUERY, theta, record_times=True)
            assert sorted(timed.indexes) == batched.indexes
            assert len(timed.emit_times) == len(timed.indexes)
            assert timed.stats["loop_iterations"] == len(timed.indexes) + 1
            assert idx._tree.count(whole) == n_active
        everything = idx.query(QUERY, Interval(0.0, 1.0), record_times=True)
        assert everything.stats["deleted_points"] == n_active

    def test_figure_2_scenario(self, planted, rng):
        """The Section 4.3 counterexample: the threshold structure's logic
        (any sufficiently-heavy sub-rectangle qualifies) over-reports on
        two-sided intervals; the maximal-pair structure does not."""
        datasets, masses = planted
        syns = [ExactSynopsis(p) for p in datasets]
        heavy = [i for i, m in enumerate(masses) if m > 0.9]
        assert heavy, "fixture should contain a near-full-mass dataset"
        range_idx = PtileRangeIndex(syns, eps=0.1, sample_size=32, rng=rng)
        got = range_idx.query(QUERY, Interval(0.1, 0.3)).index_set
        slack = 2 * range_idx.eps_effective
        assert all(masses[j] <= 0.3 + slack + 1e-9 for j in got)


class TestFederated:
    def test_recall_and_precision(self, planted, rng):
        datasets, masses = planted
        syns = [
            EpsilonSampleSynopsis.from_points(p, size=150, rng=rng) for p in datasets
        ]
        index = PtileRangeIndex(syns, eps=0.1, sample_size=32, rng=rng)
        iv = Interval(0.3, 0.7)
        truth = {i for i, m in enumerate(masses) if m in iv}
        got = index.query(QUERY, iv).index_set
        assert truth <= got
        for j in got:
            slack = 2 * index.eps_effective + 2 * index.delta_of(j)
            assert 0.3 - slack - 1e-9 <= masses[j] <= 0.7 + slack + 1e-9


class TestBoundingBox:
    def test_auto_box_contains_coresets(self, index):
        for key in index.keys:
            assert index.bounding_box.contains_points(index.coreset(key)).all()

    def test_explicit_box_too_small_rejected(self, planted, rng):
        datasets, _ = planted
        with pytest.raises(ConstructionError):
            PtileRangeIndex(
                [ExactSynopsis(p) for p in datasets],
                sample_size=16,
                bounding_box=Rectangle([0.4], [0.6]),
                rng=rng,
            )

    def test_box_error_names_the_dataset_inside_a_block(self, rng):
        """Datasets are enumerated many to a block; the refusal still
        names the one whose coreset leaves the box."""
        arrays = [rng.uniform(size=(40, 1)) for _ in range(10)]
        arrays[7] = rng.uniform(1.5, 2.0, size=(40, 1))
        with pytest.raises(ConstructionError, match="dataset 7;"):
            PtileRangeIndex(
                [ExactSynopsis(a) for a in arrays], sample_size=6,
                bounding_box=Rectangle([0.0], [1.0]), rng=rng,
            )

    def test_query_clipped_to_box(self, index):
        """Oversized query rectangles behave like the box-clipped ones."""
        wide = index.query(Rectangle([-100.0], [0.5]), Interval(0.3, 0.8))
        narrow = index.query(Rectangle([index.bounding_box.lo[0]], [0.5]),
                             Interval(0.3, 0.8))
        assert wide.index_set == narrow.index_set


class TestDynamics:
    def test_insert_then_query(self, index, rng):
        new = ExactSynopsis(rng.uniform(0.0, 0.5, size=(200, 1)))
        key = index.insert_synopsis(new)
        assert key in index.query(QUERY, Interval(0.8, 1.0)).index_set

    def test_refused_insert_leaves_no_phantom_dataset(self, rng):
        """Mapping runs before registration: a coreset outside the box is
        refused and leaves no key behind (it used to leave key 4 with no
        mapped points, and hand the next insert key 5)."""
        arrays = [rng.uniform(size=(60, 1)) for _ in range(4)]
        index = PtileRangeIndex(
            [ExactSynopsis(a) for a in arrays], eps=0.2, sample_size=8,
            bounding_box=Rectangle([0.0], [1.0]), rng=rng,
        )
        n_points = index.n_mapped_points
        with pytest.raises(ConstructionError, match="dataset 4;"):
            index.insert_synopsis(ExactSynopsis(rng.uniform(2.0, 3.0, size=(60, 1))))
        assert index.n_datasets == 4 and index.keys == [0, 1, 2, 3]
        assert index.n_mapped_points == n_points
        assert index.insert_synopsis(ExactSynopsis(arrays[0])) == 4

    def test_delete(self, index):
        res = index.query(QUERY, Interval(0.0, 1.0))
        victim = res.indexes[0]
        index.delete_synopsis(victim)
        assert victim not in index.query(QUERY, Interval(0.0, 1.0)).index_set
        with pytest.raises(KeyError):
            index.delete_synopsis(victim)

    def test_correctness_preserved_after_churn(self, planted, rng):
        datasets, masses = planted
        index = PtileRangeIndex(
            [ExactSynopsis(p) for p in datasets], eps=0.15, sample_size=16, rng=rng
        )
        index.delete_synopsis(0)
        index.delete_synopsis(5)
        keys = [index.insert_synopsis(ExactSynopsis(datasets[0]))]
        iv = Interval(0.3, 0.7)
        got = index.query(QUERY, iv).index_set
        truth = {i for i, m in enumerate(masses) if m in iv and i not in (0, 5)}
        if masses[0] in iv:
            truth |= set(keys)
        assert truth <= got


class TestValidation:
    def test_theta_disjoint_from_unit(self, index):
        with pytest.raises(QueryError):
            index.query(QUERY, Interval(1.5, 2.0))

    def test_dim_mismatch(self, index):
        with pytest.raises(QueryError):
            index.query(Rectangle([0, 0], [1, 1]), Interval(0.0, 1.0))

    def test_threshold_index_equivalence(self, planted):
        """theta = [a, 1] on the range structure matches the threshold
        structure built from the same coresets (same rng seed)."""
        datasets, _ = planted
        syns = [ExactSynopsis(p) for p in datasets]
        thr = PtileThresholdIndex(
            syns, eps=0.15, sample_size=24, rng=np.random.default_rng(9)
        )
        rng_idx = PtileRangeIndex(
            syns, eps=0.15, sample_size=24, rng=np.random.default_rng(9)
        )
        for a in (0.2, 0.5, 0.8):
            assert (
                thr.query(QUERY, a).index_set
                == rng_idx.query(QUERY, Interval(a, 1.0)).index_set
            )
