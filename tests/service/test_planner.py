"""Tests for expression canonicalization, leaf dedup, and emit scheduling."""

import numpy as np
import pytest

from repro.core.bitset import DatasetBitmap
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import And, Or, Predicate, pred
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.service.planner import (
    canonicalize,
    combine_bounds,
    emit_schedule,
    evaluate_with_leaf_results,
    leaf_key,
    plan_batch,
    plan_query,
)


def bits(*members, n=5) -> DatasetBitmap:
    return DatasetBitmap.from_indices(members, n)


def partial_bounds(expr, known, n=5):
    """``combine_bounds`` as the emit scheduler calls it: leaves without an
    answer yet contribute ``(∅, universe)``; returns plain sets."""
    unknown = (DatasetBitmap.zeros(n), DatasetBitmap.full(n))
    bounds = {leaf_key(leaf): unknown for leaf in expr.leaves()}
    bounds.update({key: (value, value) for key, value in known.items()})
    lower, upper = combine_bounds(expr, bounds)
    return lower.to_set(), upper.to_set()


def ptile_leaf(lo, hi, a, b=float("inf")) -> Predicate:
    return pred(PercentileMeasure(Rectangle([lo], [hi])), a, b)


def pref_leaf(x, y, k, tau) -> Predicate:
    v = np.array([x, y], dtype=float)
    return Predicate(PreferenceMeasure(v, k=k), Interval.at_least(tau))


@pytest.fixture
def abc():
    a = ptile_leaf(0.0, 0.5, 0.2)
    b = ptile_leaf(0.5, 1.0, 0.4)
    c = ptile_leaf(0.2, 0.8, 0.1, 0.9)
    return a, b, c


class TestLeafKeys:
    def test_semantically_equal_leaves_collide(self):
        k1 = leaf_key(ptile_leaf(0.0, 0.5, 0.2))
        k2 = leaf_key(ptile_leaf(0.0, 0.5, 0.2))
        assert k1 == k2 and hash(k1) == hash(k2)

    def test_distinct_leaves_differ(self):
        assert leaf_key(ptile_leaf(0.0, 0.5, 0.2)) != leaf_key(
            ptile_leaf(0.0, 0.5, 0.3)
        )
        assert leaf_key(pref_leaf(1, 0, 3, 0.5)) != leaf_key(pref_leaf(1, 0, 4, 0.5))

    def test_pref_vector_normalization_collides(self):
        # PreferenceMeasure normalizes at construction, so scaled vectors
        # denote the same measure and must share a key.
        assert leaf_key(pref_leaf(2, 0, 3, 0.5)) == leaf_key(pref_leaf(1, 0, 3, 0.5))

    def test_predicate_hash_eq(self):
        assert ptile_leaf(0.0, 0.5, 0.2) == ptile_leaf(0.0, 0.5, 0.2)
        assert len({ptile_leaf(0.0, 0.5, 0.2), ptile_leaf(0.0, 0.5, 0.2)}) == 1


class TestCanonicalize:
    def test_flattens_nested_same_operator(self, abc):
        a, b, c = abc
        canon = canonicalize(And([And([a, b]), c]))
        assert isinstance(canon, And)
        assert len(canon.children) == 3
        assert all(isinstance(ch, Predicate) for ch in canon.children)

    def test_does_not_flatten_across_operators(self, abc):
        a, b, c = abc
        canon = canonicalize(Or([And([a, b]), c]))
        assert isinstance(canon, Or)
        assert {type(ch) for ch in canon.children} == {And, Predicate}

    def test_duplicate_leaves_removed(self, abc):
        a, _b, c = abc
        dup = ptile_leaf(0.0, 0.5, 0.2)  # equal to `a`
        canon = canonicalize(And([a, dup, c]))
        assert canon.n_predicates == 2

    def test_single_child_collapses(self, abc):
        a, _b, _c = abc
        assert canonicalize(And([a, a])) is a
        assert canonicalize(Or([And([a])])) is a

    def test_commutativity_collides(self, abc):
        a, b, c = abc
        k1 = canonicalize(And([a, Or([b, c])])).canonical_key()
        k2 = canonicalize(And([Or([c, b]), a])).canonical_key()
        assert k1 == k2

    def test_preserves_semantics_on_random_expressions(self, repo_2d):
        from repro.workloads.queries import batched_query_workload

        batch = batched_query_workload(
            25, 2, np.random.default_rng(0), duplicate_leaf_rate=0.5, max_leaves=4
        )
        for expr in batch:
            canon = canonicalize(expr)
            assert canon.ground_truth(repo_2d) == expr.ground_truth(repo_2d)


class TestPlans:
    def test_plan_query_counts(self, abc):
        a, b, _c = abc
        dup = ptile_leaf(0.0, 0.5, 0.2)
        plan = plan_query(And([a, dup, b]))
        assert plan.n_leaves_raw == 3
        assert plan.n_leaves_unique == 2

    def test_plan_batch_cross_query_dedup(self, abc):
        a, b, c = abc
        batch = plan_batch([And([a, b]), Or([a, c]), a])
        assert batch.n_leaves_raw == 5
        assert batch.n_leaves_unique == 3
        assert 0.0 < batch.dedup_ratio < 1.0

    def test_evaluate_with_leaf_results(self, abc):
        a, b, c = abc
        results = {
            leaf_key(a): bits(0, 1, 2, n=6),
            leaf_key(b): bits(2, 3, n=6),
            leaf_key(c): bits(1, 2, 5, n=6),
        }
        expr = And([Or([a, b]), c])
        assert evaluate_with_leaf_results(expr, results).to_set() == {1, 2}


class TestPartialBoundsAndSchedule:
    def test_unknown_leaf_gives_trivial_bounds(self, abc):
        a, _b, _c = abc
        lower, upper = partial_bounds(a, {})
        assert lower == set() and upper == set(range(5))

    def test_and_determines_only_when_all_known(self, abc):
        a, b, _c = abc
        expr = And([a, b])
        lower, upper = partial_bounds(expr, {leaf_key(a): bits(0, 1)})
        assert lower == set() and upper == {0, 1}
        lower, _ = partial_bounds(
            expr, {leaf_key(a): bits(0, 1), leaf_key(b): bits(1, 4)}
        )
        assert lower == {1}

    def test_or_determines_early(self, abc):
        a, b, _c = abc
        lower, upper = partial_bounds(Or([a, b]), {leaf_key(a): bits(0, 1)})
        assert lower == {0, 1} and upper == set(range(5))

    def test_emit_schedule_or_stamps_first_determination(self, abc):
        a, b, _c = abc
        ka, kb = leaf_key(a), leaf_key(b)
        results = {ka: bits(0, 1), kb: bits(1, 2)}
        times = {ka: 10.0, kb: 20.0}
        schedule = emit_schedule(
            Or([a, b]), [ka, kb], results, times, DatasetBitmap.full(5)
        )
        assert schedule == [(0, 10.0), (1, 10.0), (2, 20.0)]

    def test_emit_schedule_and_stamps_last_leaf(self, abc):
        a, b, _c = abc
        ka, kb = leaf_key(a), leaf_key(b)
        results = {ka: bits(0, 1), kb: bits(1, 2)}
        times = {ka: 10.0, kb: 20.0}
        schedule = emit_schedule(
            And([a, b]), [ka, kb], results, times, DatasetBitmap.full(5)
        )
        assert schedule == [(1, 20.0)]

    def test_emit_schedule_matches_full_evaluation(self):
        from repro.workloads.queries import batched_query_workload

        rng = np.random.default_rng(4)
        batch = batched_query_workload(
            20, 1, rng, duplicate_leaf_rate=0.4, max_leaves=4
        )
        universe = DatasetBitmap.full(10)
        sets_rng = np.random.default_rng(9)
        for expr in batch:
            plan = plan_query(expr)
            results = {
                key: DatasetBitmap.from_indices(
                    sets_rng.choice(10, size=4, replace=False), 10
                )
                for key in plan.leaves
            }
            order = list(plan.leaves)
            times = {key: float(i) for i, key in enumerate(order)}
            schedule = emit_schedule(plan.expression, order, results, times, universe)
            assert {idx for idx, _ in schedule} == evaluate_with_leaf_results(
                plan.expression, results
            ).to_set()
