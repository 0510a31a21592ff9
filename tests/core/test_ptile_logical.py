"""Theorem C.8 tests: logical expressions over range-predicates."""

import numpy as np
import pytest

from repro.core.framework import Dataset
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import And, Or, pred
from repro.core.ptile_logical import PtileLogicalIndex
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis

LEFT = Rectangle([0.0], [0.5])
RIGHT = Rectangle([0.5], [1.0])


@pytest.fixture
def planted(rng):
    """Datasets with controlled mass split between [0,.5] and (.5,1]."""
    datasets = []
    for i in range(10):
        frac = (i + 1) / 11
        n_in = int(300 * frac)
        datasets.append(
            np.vstack(
                [
                    rng.uniform(0.0, 0.5, size=(n_in, 1)),
                    rng.uniform(0.5001, 1.0, size=(300 - n_in, 1)),
                ]
            )
        )
    return datasets


@pytest.fixture
def index(planted, rng):
    return PtileLogicalIndex(
        [ExactSynopsis(p) for p in planted], eps=0.15, sample_size=12, rng=rng
    )


def conj(a1, b1, a2, b2):
    return And(
        [
            pred(PercentileMeasure(LEFT), a1, b1),
            pred(PercentileMeasure(RIGHT), a2, b2),
        ]
    )


class TestComposeStrategy:
    def test_conjunction_recall(self, index, planted):
        expr = conj(0.3, 0.8, 0.2, 0.7)
        truth = {i for i, p in enumerate(planted) if expr.evaluate(Dataset(p))}
        assert truth <= index.query(expr).index_set

    def test_conjunction_per_leaf_precision(self, index, planted):
        expr = conj(0.4, 0.7, 0.3, 0.6)
        slack = 2 * index.eps_effective
        for j in index.query(expr).indexes:
            m_left = LEFT.count_inside(planted[j]) / 300
            m_right = RIGHT.count_inside(planted[j]) / 300
            assert 0.4 - slack - 1e-9 <= m_left <= 0.7 + slack + 1e-9
            assert 0.3 - slack - 1e-9 <= m_right <= 0.6 + slack + 1e-9

    def test_disjunction_recall(self, index, planted):
        expr = Or(
            [
                pred(PercentileMeasure(LEFT), 0.8),
                pred(PercentileMeasure(RIGHT), 0.8),
            ]
        )
        truth = {i for i, p in enumerate(planted) if expr.evaluate(Dataset(p))}
        assert truth <= index.query(expr).index_set

    def test_nested_expression(self, index, planted):
        expr = Or(
            [
                conj(0.7, 1.0, 0.0, 0.3),
                conj(0.0, 0.3, 0.7, 1.0),
            ]
        )
        truth = {i for i, p in enumerate(planted) if expr.evaluate(Dataset(p))}
        assert truth <= index.query(expr).index_set

    def test_no_duplicates(self, index):
        expr = Or(
            [pred(PercentileMeasure(LEFT), 0.0), pred(PercentileMeasure(RIGHT), 0.0)]
        )
        res = index.query(expr)
        assert len(res.indexes) == len(set(res.indexes))

    def test_preference_leaf_rejected(self, index):
        expr = pred(PreferenceMeasure(np.array([1.0]), 1), 0.5)
        with pytest.raises(QueryError):
            index.query(expr)


class TestTensorStrategy:
    def test_tensor_matches_compose_on_conjunctions(self, planted, rng):
        """Component independence: the m-fold tensor answer equals the
        intersection of per-predicate answers over the same coresets."""
        idx = PtileLogicalIndex(
            [ExactSynopsis(p) for p in planted],
            eps=0.2,
            sample_size=6,
            strategy="tensor",
            rng=rng,
        )
        for bounds in [(0.2, 0.8, 0.2, 0.8), (0.4, 0.6, 0.1, 0.9), (0.0, 0.3, 0.6, 1.0)]:
            expr = conj(*bounds)
            tensor_ans = idx.query(expr).index_set
            compose_ans = idx._eval(expr)
            assert tensor_ans == compose_ans

    def test_tensor_recall(self, planted, rng):
        idx = PtileLogicalIndex(
            [ExactSynopsis(p) for p in planted],
            eps=0.2,
            sample_size=6,
            strategy="tensor",
            rng=rng,
        )
        expr = conj(0.3, 0.9, 0.1, 0.7)
        truth = {i for i, p in enumerate(planted) if expr.evaluate(Dataset(p))}
        assert truth <= idx.query(expr).index_set

    def test_tensor_no_duplicates(self, planted, rng):
        idx = PtileLogicalIndex(
            [ExactSynopsis(p) for p in planted],
            eps=0.25,
            sample_size=5,
            strategy="tensor",
            rng=rng,
        )
        res = idx.query_conjunction_tensor(
            [LEFT, RIGHT], [Interval(0.0, 1.0), Interval(0.0, 1.0)]
        )
        assert len(res.indexes) == len(set(res.indexes))
        assert res.out_size == 10

    def test_tensor_restores_structure(self, planted, rng):
        idx = PtileLogicalIndex(
            [ExactSynopsis(p) for p in planted],
            eps=0.25,
            sample_size=5,
            strategy="tensor",
            rng=rng,
        )
        args = ([LEFT, RIGHT], [Interval(0.2, 0.8), Interval(0.2, 0.8)])
        assert (
            idx.query_conjunction_tensor(*args).index_set
            == idx.query_conjunction_tensor(*args).index_set
        )

    def test_tensor_size_guard(self, planted, rng):
        idx = PtileLogicalIndex(
            [ExactSynopsis(p) for p in planted],
            sample_size=30,
            strategy="tensor",
            rng=rng,
        )
        with pytest.raises(ConstructionError):
            idx.query_conjunction_tensor(
                [LEFT, RIGHT, LEFT], [Interval(0, 1)] * 3
            )

    def test_tensor_record_times_stamps_each_report(self, planted, rng):
        """The tensor runs the ReportFirst loop, so a timed query stamps
        every report as it is emitted — not all of them at the end."""
        idx = PtileLogicalIndex(
            [ExactSynopsis(p) for p in planted],
            eps=0.25,
            sample_size=5,
            strategy="tensor",
            rng=rng,
        )
        expr = conj(0.0, 1.0, 0.0, 1.0)
        res = idx.query(expr, record_times=True)
        assert res.index_set == idx.query(expr).index_set and res.out_size == 10
        stamps = [res.start_time, *res.emit_times, res.end_time]
        assert len(set(res.emit_times)) == len(res.indexes)
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))
        assert all(t < res.end_time for t in res.emit_times)

    def test_falls_back_to_compose_for_disjunction(self, planted, rng):
        idx = PtileLogicalIndex(
            [ExactSynopsis(p) for p in planted],
            eps=0.25,
            sample_size=5,
            strategy="tensor",
            rng=rng,
        )
        expr = Or(
            [pred(PercentileMeasure(LEFT), 0.0), pred(PercentileMeasure(RIGHT), 0.0)]
        )
        assert idx.query(expr).out_size == 10


class TestValidation:
    def test_unknown_strategy(self, planted, rng):
        with pytest.raises(ConstructionError):
            PtileLogicalIndex(
                [ExactSynopsis(planted[0])], strategy="magic", rng=rng
            )

    def test_mismatched_tensor_args(self, index):
        with pytest.raises(QueryError):
            index.query_conjunction_tensor([LEFT], [])

    def test_record_times(self, index):
        expr = pred(PercentileMeasure(LEFT), 0.1)
        res = index.query(expr, record_times=True)
        assert res.start_time is not None and res.end_time is not None
