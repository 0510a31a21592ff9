"""End-to-end tests for DatasetSearchEngine."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import DatasetSearchEngine
from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import And, Or, Predicate, pred
from repro.core.ptile_exact_1d import ExactPtile1DIndex
from repro.core.ptile_range import PtileRangeIndex
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.core.pref_index import pref_threshold
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.sample import EpsilonSampleSynopsis

REGION = Rectangle([0.0, 0.0], [0.5, 0.5])


@pytest.fixture
def repo(rng):
    arrays = []
    for i in range(10):
        center = rng.uniform(0.2, 0.8, size=2)
        arrays.append(np.clip(rng.normal(center, 0.15, size=(250, 2)), 0.0, 1.0))
    return Repository.from_arrays(arrays)


@pytest.fixture
def engine(repo, rng):
    return DatasetSearchEngine(repository=repo, eps=0.15, sample_size=10, rng=rng)


class TestRouting:
    def test_percentile_leaf(self, engine):
        expr = pred(PercentileMeasure(REGION), 0.3)
        q = engine.evaluate_quality(expr)
        assert q["recall"] == 1.0

    def test_percentile_range_leaf(self, engine):
        expr = pred(PercentileMeasure(REGION), 0.2, 0.6)
        assert engine.evaluate_quality(expr)["recall"] == 1.0

    def test_preference_leaf(self, engine):
        expr = pred(PreferenceMeasure(np.array([1.0, 1.0]), 3), 0.8)
        assert engine.evaluate_quality(expr)["recall"] == 1.0

    def test_mixed_conjunction(self, engine):
        expr = And(
            [
                pred(PercentileMeasure(REGION), 0.2),
                pred(PreferenceMeasure(np.array([1.0, 0.0]), 5), 0.3),
            ]
        )
        assert engine.evaluate_quality(expr)["recall"] == 1.0

    def test_mixed_disjunction(self, engine):
        expr = Or(
            [
                pred(PercentileMeasure(REGION), 0.9),
                pred(PreferenceMeasure(np.array([0.0, 1.0]), 3), 0.9),
            ]
        )
        assert engine.evaluate_quality(expr)["recall"] == 1.0

    def test_two_sided_preference_rejected(self, engine):
        expr = pred(PreferenceMeasure(np.array([1.0, 0.0]), 1), 0.2, 0.4)
        with pytest.raises(QueryError):
            engine.search(expr)

    @pytest.mark.parametrize("hi", [0.99, 1.0, 1.5])
    def test_preference_upper_bound_is_never_dropped(self, hi, rng):
        """Scores are unbounded: ``hi >= 1`` is a real bound on a Pref leaf
        (it used to be read as "no bound", reporting all six datasets
        where only some qualify), so every path refuses it like any finite
        one (the service's degraded paths: ``test_deadline.py``)."""
        base = rng.uniform(0.5, 1.0, size=(50, 2))
        repo = Repository.from_arrays(
            [base * scale for scale in (0.5, 0.8, 1.0, 2.0, 3.0, 5.0)]
        )
        engine = DatasetSearchEngine(repository=repo, eps=0.1, rng=rng)
        measure = PreferenceMeasure(np.array([1.0, 0.0]), k=3)
        leaf = Predicate(measure, Interval(0.4, hi))
        assert 0 < len(engine.ground_truth(leaf)) < 6
        with pytest.raises(QueryError):
            engine.evaluate_quality(leaf)
        with pytest.raises(QueryError):
            engine.eval_leaf_batch_bits([leaf], np.arange(6))
        with pytest.raises(QueryError):
            engine.pref_index(3).query_expression(measure.vector, leaf.theta)
        # [a, inf) is the supported form and behaves as before.
        open_leaf = Predicate(measure, Interval.at_least(0.4))
        assert engine.evaluate_quality(open_leaf)["recall"] == 1.0
        got = engine.pref_index(3).query_expression(measure.vector, open_leaf.theta)
        assert got.index_set == engine.search(open_leaf).index_set


class TestConstructionModes:
    def test_requires_some_input(self):
        with pytest.raises(ConstructionError):
            DatasetSearchEngine()

    def test_federated_without_repository(self, repo, rng):
        syns = [
            EpsilonSampleSynopsis.from_points(ds.points, size=100, rng=rng)
            for ds in repo
        ]
        eng = DatasetSearchEngine(synopses=syns, eps=0.15, sample_size=10, rng=rng)
        res = eng.search(pred(PercentileMeasure(REGION), 0.3))
        assert res.out_size >= 0  # runs fine
        with pytest.raises(QueryError):
            eng.ground_truth(pred(PercentileMeasure(REGION), 0.3))

    def test_synopsis_count_mismatch(self, repo, rng):
        with pytest.raises(ConstructionError):
            DatasetSearchEngine(
                synopses=[ExactSynopsis(repo[0].points)], repository=repo
            )

    def test_lazy_indexes(self, engine):
        assert engine._ptile is None and not engine._pref
        engine.search(pred(PercentileMeasure(REGION), 0.5))
        assert engine._ptile is not None and not engine._pref
        engine.search(pred(PreferenceMeasure(np.array([1.0, 0.0]), 2), 0.0))
        assert 2 in engine._pref

    def test_pref_index_cached_per_k(self, engine):
        a = engine.pref_index(3)
        assert engine.pref_index(3) is a
        assert engine.pref_index(4) is not a

    def test_n_datasets(self, engine):
        assert engine.n_datasets == 10

    def test_refused_insert_leaves_no_phantom_dataset(self, rng):
        """A synopsis whose coreset falls outside the Ptile box is refused,
        and the engine is as it was: it used to keep the synopsis (and the
        Ptile index a key with no mapped points)."""
        arrays = [rng.uniform(size=(60, 1)) for _ in range(4)]
        engine = DatasetSearchEngine(
            synopses=[ExactSynopsis(a) for a in arrays], eps=0.2, sample_size=8,
            bounding_box=Rectangle([0.0], [1.0]), rng=rng,
        ).build()
        outside = ExactSynopsis(rng.uniform(2.0, 3.0, size=(60, 1)))
        with pytest.raises(ConstructionError, match="dataset 4"):
            engine.insert_synopsis(outside)
        assert engine.n_datasets == engine.ptile_index.n_datasets == 4
        assert engine.insert_synopsis(ExactSynopsis(arrays[0])) == 4
        assert engine.ptile_index.keys == [0, 1, 2, 3, 4]


class TestQuality:
    def test_quality_fields(self, engine):
        q = engine.evaluate_quality(pred(PercentileMeasure(REGION), 0.4))
        assert set(q) == {
            "truth_size",
            "reported_size",
            "recall",
            "precision",
            "false_positives",
            "missed",
        }
        assert q["missed"] == []

    def test_record_times(self, engine):
        res = engine.search(pred(PercentileMeasure(REGION), 0.1), record_times=True)
        assert res.start_time is not None and res.end_time is not None


# ----------------------------------------------------------------------
# search() is one path: plan -> dedupe -> one leaf batch -> combine
# ----------------------------------------------------------------------
_POOL_RECT = Rectangle([0.0], [0.5])
#: Few leaves, so random trees repeat them (what the planner dedupes).
LEAF_POOL = [
    pred(PercentileMeasure(_POOL_RECT), 0.3),
    pred(PercentileMeasure(_POOL_RECT), 0.1, 0.6),
    pred(PercentileMeasure(Rectangle([0.4], [1.0])), 0.5),
    pred(PreferenceMeasure(np.array([1.0]), 3), 0.4),
    pred(PreferenceMeasure(np.array([-1.0]), 2), -0.6),
]


@functools.lru_cache(maxsize=None)
def _pool_engine(kind):
    """One small 1-D engine per backend name, built once (the range tree
    takes over a second even here)."""
    rng = np.random.default_rng(5)
    arrays = [
        np.clip(rng.normal(rng.uniform(0.2, 0.8, size=1), 0.15, size=(60, 1)), 0, 1)
        for _ in range(6)
    ]
    return DatasetSearchEngine(
        repository=Repository.from_arrays(arrays), eps=0.2, sample_size=4,
        engine=kind, rng=np.random.default_rng(1),
    )


def _leaf_at_a_time(engine, expression):
    """The recursion ``search`` used to run untimed (one structure query
    per leaf *occurrence*, no planner), kept here as the oracle."""
    if isinstance(expression, Predicate):
        measure = expression.measure
        if isinstance(measure, PercentileMeasure):
            return engine.ptile_index.query(measure.rect, expression.theta).index_set
        return engine.pref_index(measure.k).query(
            measure.vector, pref_threshold(expression.theta)
        ).index_set
    parts = [_leaf_at_a_time(engine, c) for c in expression.children]
    combine = set.intersection if isinstance(expression, And) else set.union
    return combine(*parts)


_TREES = st.recursive(
    st.sampled_from(LEAF_POOL),
    lambda children: st.builds(
        lambda node, kids: node(kids),
        st.sampled_from([And, Or]),
        st.lists(children, min_size=2, max_size=3),
    ),
    max_leaves=8,
)


@pytest.mark.parametrize("kind", ["kd", "rangetree"])
@settings(max_examples=30, deadline=None)
@given(expression=_TREES)
def test_search_is_one_path_on_every_engine(kind, expression):
    engine = _pool_engine(kind)
    untimed = engine.search(expression)
    timed = engine.search(expression, record_times=True)
    assert untimed.index_set == set(timed.indexes)
    assert len(timed.emit_times) == len(timed.indexes)
    assert untimed.index_set == _leaf_at_a_time(engine, expression)
    assert engine.ground_truth(expression) <= untimed.index_set


@pytest.mark.parametrize("kind", ["kd", "rangetree"])
@settings(max_examples=30, deadline=None)
@given(
    leaves=st.lists(st.sampled_from(LEAF_POOL), min_size=1, max_size=6),
    gaps=st.lists(st.integers(0, 70), min_size=6, max_size=6),
)
def test_gapped_ids_answer_as_the_local_keys_mapped(kind, leaves, gaps):
    """Over ascending global ids with gaps (a shard unit after tombstones
    are compacted out), each leaf's bitmap is its per-query answer with
    local key ``j`` read as ``ids[j]``, in a universe ending at the last id."""
    engine = _pool_engine(kind)
    ids = np.cumsum(np.asarray(gaps) + 1) - 1
    got = engine.eval_leaf_batch_bits(leaves, ids)
    want = [{int(ids[j]) for j in _leaf_at_a_time(engine, leaf)} for leaf in leaves]
    assert [bits.to_set() for bits in got] == want
    assert {bits.nbits for bits in got} == {int(ids[-1]) + 1}


@pytest.mark.parametrize(
    "build",
    [
        lambda syns, name: DatasetSearchEngine(synopses=syns, engine=name),
        lambda syns, name: PtileRangeIndex(syns, sample_size=8, engine=name),
        lambda syns, name: PtileThresholdIndex(syns, sample_size=8, engine=name),
        lambda syns, name: ExactPtile1DIndex(
            [s.points for s in syns], Interval(0.2, 0.6), engine=name
        ),
    ],
    ids=["search_engine", "ptile_range", "ptile_threshold", "exact_1d"],
)
def test_every_builder_refuses_the_columnar_name(build, rng):
    """``columnar`` is no engine name — the float column store is the
    kd-tree's side buffer — so every builder that takes an engine name
    refuses it with the registry's message, before any query."""
    syns = [ExactSynopsis(rng.uniform(size=(30, 1))) for _ in range(3)]
    with pytest.raises(ConstructionError, match="unknown engine 'columnar'"):
        build(syns, "columnar")
