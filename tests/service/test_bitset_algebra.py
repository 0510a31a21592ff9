"""Property suite: the packed-bitset answer algebra against pointwise oracles.

Hypothesis generates random And/Or expression trees over random leaf
answers and checks the planner's word-wise evaluators
(``evaluate_with_leaf_results``, ``combine_bounds``, ``emit_schedule``)
against an oracle that shares no code with them: for every dataset index
the And/Or tree is evaluated on plain booleans.  The executor-shaped
operations around them are covered too: offset translation (the
federated merge), tombstone removal masks, and delta-shard watermark
upgrades across different universe sizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import DatasetBitmap
from repro.core.measures import PercentileMeasure
from repro.core.predicates import And, Or, Predicate, pred
from repro.geometry.rectangle import Rectangle
from repro.service.planner import (
    combine_bounds,
    emit_schedule,
    evaluate_with_leaf_results,
    leaf_key,
    plan_query,
)

MAX_N = 220


def _leaf(i: int) -> Predicate:
    """The i-th distinct predicate leaf (distinct canonical keys)."""
    lo = i / 100.0
    return pred(PercentileMeasure(Rectangle([lo], [lo + 1.0])), 0.5)


LEAVES = [_leaf(i) for i in range(6)]


@st.composite
def expression_trees(draw, max_depth=3):
    """Random And/Or trees over the shared leaf pool (duplicates likely)."""
    if max_depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(LEAVES))
    op = draw(st.sampled_from([And, Or]))
    children = draw(
        st.lists(expression_trees(max_depth=max_depth - 1), min_size=1, max_size=3)
    )
    return op(children)


def _index_sets(n: int):
    return st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)


@st.composite
def leaf_answer_maps(draw):
    """A universe size plus one random answer set per pool leaf."""
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    answers = {leaf_key(leaf): draw(_index_sets(n)) for leaf in LEAVES}
    return n, answers


def _as_bitmaps(answers: dict, n: int) -> dict:
    return {k: DatasetBitmap.from_indices(v, n) for k, v in answers.items()}


def holds(expr, leaf_true) -> bool:
    """The oracle: the And/Or tree on booleans, ``leaf_true(key) -> bool``."""
    if isinstance(expr, Predicate):
        return leaf_true(leaf_key(expr))
    values = [holds(child, leaf_true) for child in expr.children]
    return all(values) if isinstance(expr, And) else any(values)


def satisfying(expr, n: int, sets: dict) -> set:
    """Indexes ``i < n`` at which ``expr`` holds given per-leaf index sets."""
    return {i for i in range(n) if holds(expr, lambda key: i in sets[key])}


class TestExpressionAlgebraAgainstPointwiseOracle:
    @given(expr=expression_trees(), data=leaf_answer_maps())
    @settings(max_examples=120, deadline=None)
    def test_evaluate_matches_oracle(self, expr, data):
        n, answers = data
        got = evaluate_with_leaf_results(expr, _as_bitmaps(answers, n))
        assert isinstance(got, DatasetBitmap)
        assert got.to_set() == satisfying(expr, n, answers)

    @given(
        expr=expression_trees(),
        data=leaf_answer_maps(),
        kinds=st.lists(
            st.sampled_from(["exact", "unknown", "screened"]),
            min_size=len(LEAVES),
            max_size=len(LEAVES),
        ),
        extra=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_combine_bounds_matches_oracle(self, expr, data, kinds, extra):
        """Exact leaves are ``(v, v)``, unanswered ones ``(∅, universe)``,
        screened ones any ``lower ⊆ upper``; by monotonicity the node
        bounds are the tree evaluated on the lower, resp. upper, sets."""
        n, answers = data
        lowers, uppers = {}, {}
        for leaf, kind in zip(LEAVES, kinds):
            key = leaf_key(leaf)
            if kind == "exact":
                lowers[key] = uppers[key] = answers[key]
            elif kind == "unknown":
                lowers[key], uppers[key] = set(), set(range(n))
            else:
                lowers[key] = answers[key]
                uppers[key] = answers[key] | extra.draw(_index_sets(n))
        lo_bits, hi_bits = _as_bitmaps(lowers, n), _as_bitmaps(uppers, n)
        lower, upper = combine_bounds(
            expr, {key: (lo_bits[key], hi_bits[key]) for key in lowers}
        )
        assert lower.to_set() == satisfying(expr, n, lowers)
        assert upper.to_set() == satisfying(expr, n, uppers)

    @given(expr=expression_trees(), data=leaf_answer_maps())
    @settings(max_examples=60, deadline=None)
    def test_emit_schedule_matches_oracle(self, expr, data):
        """An index is emitted at the first leaf completion after which
        the tree already holds with every unfinished leaf read as False."""
        n, answers = data
        plan = plan_query(expr)
        order = list(plan.leaves)
        times = {key: float(i) for i, key in enumerate(order)}
        want = []
        for i in range(n):
            for k, key in enumerate(order):
                done = set(order[: k + 1])
                if holds(
                    plan.expression, lambda lk: lk in done and i in answers[lk]
                ):
                    want.append((i, times[key]))
                    break
        got = emit_schedule(
            plan.expression,
            order,
            _as_bitmaps({k: answers[k] for k in order}, n),
            times,
            DatasetBitmap.full(n),
        )
        assert got == sorted(want, key=lambda pair: (pair[1], pair[0]))


class TestExecutorShapedOperations:
    @given(
        data=st.data(),
        n_local=st.integers(min_value=1, max_value=100),
        offset=st.integers(min_value=0, max_value=150),
    )
    @settings(max_examples=100, deadline=None)
    def test_shard_offset_translation(self, data, n_local, offset):
        members = data.draw(
            st.sets(st.integers(min_value=0, max_value=n_local - 1))
        )
        local = DatasetBitmap.from_indices(members, n_local)
        shifted = local.shift_into(offset, n_local + offset)
        assert shifted.to_set() == {m + offset for m in members}

    @given(data=st.data(), n=st.integers(min_value=1, max_value=MAX_N))
    @settings(max_examples=100, deadline=None)
    def test_removal_mask(self, data, n):
        answer = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        removed = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        bits = DatasetBitmap.from_indices(answer, n)
        # Masks sized to their largest member, like the executor builds them.
        mask = (
            DatasetBitmap.from_indices(removed, max(removed) + 1)
            if removed
            else DatasetBitmap.zeros(0)
        )
        assert bits.andnot(mask).to_set() == answer - removed
        # Masks only grow; masking twice == masking once (idempotent).
        assert bits.andnot(mask).andnot(mask).to_set() == answer - removed

    @given(
        data=st.data(),
        n_old=st.integers(min_value=1, max_value=150),
        n_new_delta=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_watermark_upgrade(self, data, n_old, n_new_delta):
        """Cached answer at watermark W ∪ delta answer over [W, N) ==
        fresh answer over N, including a removal mask applied on top."""
        n_new = n_old + n_new_delta
        cached = data.draw(st.sets(st.integers(min_value=0, max_value=n_old - 1)))
        delta = (
            data.draw(
                st.sets(st.integers(min_value=n_old, max_value=n_new - 1))
            )
            if n_new_delta
            else set()
        )
        removed = data.draw(
            st.sets(st.integers(min_value=0, max_value=n_new - 1))
        )
        old_bits = DatasetBitmap.from_indices(cached, n_old)  # stale size
        delta_bits = DatasetBitmap.from_indices(delta, n_new)
        merged = old_bits | delta_bits
        assert merged.nbits == n_new
        assert merged.to_set() == cached | delta
        mask = (
            DatasetBitmap.from_indices(removed, max(removed) + 1)
            if removed
            else None
        )
        want = (cached | delta) - removed
        got = merged.andnot(mask) if mask is not None else merged
        assert got.to_set() == want

    @given(data=st.data(), n=st.integers(min_value=1, max_value=MAX_N))
    @settings(max_examples=60, deadline=None)
    def test_popcount_and_conversions(self, data, n):
        members = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        bits = DatasetBitmap.from_indices(members, n)
        assert bits.count() == len(members)
        assert bits.to_list() == sorted(members)
        assert bits.any() == bool(members)


class TestFederatedMergeAlgebra:
    """Cross-node merge properties the federation coordinator relies on:
    heterogeneous per-node universes, wire round-trips, and offset-shifted
    OR merges must reproduce the single-universe answer exactly."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_shifted_or_merge_equals_union_of_slices(self, data):
        # Random federation layout: 1..5 nodes with heterogeneous sizes.
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=70), min_size=1, max_size=5
            )
        )
        total = sum(sizes)
        offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        per_node = [
            data.draw(
                st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
            )
            for n in sizes
        ]
        merged = DatasetBitmap.zeros(total)
        for ids, n, off in zip(per_node, sizes, offsets):
            merged = merged | DatasetBitmap.from_indices(
                sorted(ids), n
            ).shift_into(off, total)
        expected = sorted(
            off + i for ids, off in zip(per_node, offsets) for i in ids
        )
        assert merged.to_list() == expected
        assert merged.nbits == total

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_wire_round_trip_then_shift_is_lossless(self, data):
        # The coordinator's actual data path: node encodes to_wire(), the
        # coordinator decodes and shifts.  Decode must be exact for every
        # (size, offset) geometry, including word-boundary-straddling ones.
        from repro.core.bitset import bitmap_from_wire

        n = data.draw(st.integers(min_value=1, max_value=200))
        ids = sorted(
            data.draw(
                st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
            )
        )
        head = data.draw(st.integers(min_value=0, max_value=130))
        tail = data.draw(st.integers(min_value=0, max_value=130))
        local = DatasetBitmap.from_indices(ids, n)
        decoded = bitmap_from_wire(local.to_wire())
        assert decoded.nbits == n
        assert decoded.to_list() == ids
        shifted = decoded.shift_into(head, head + n + tail)
        assert shifted.to_list() == [head + i for i in ids]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_permutation_invariant_and_disjoint(self, data):
        # Nodes own disjoint slices, so merge order cannot matter and no
        # two nodes may light the same global bit.
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=50), min_size=2, max_size=4
            )
        )
        total = sum(sizes)
        offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        shifted = []
        for n, off in zip(sizes, offsets):
            ids = sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n - 1), max_size=n
                    )
                )
            )
            shifted.append(
                DatasetBitmap.from_indices(ids, n).shift_into(off, total)
            )
        forward = DatasetBitmap.zeros(total)
        for b in shifted:
            forward = forward | b
        backward = DatasetBitmap.zeros(total)
        for b in reversed(shifted):
            backward = backward | b
        assert forward.to_list() == backward.to_list()
        assert forward.count() == sum(b.count() for b in shifted)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shift_into_rejects_slice_overflow(self, data):
        # A node answering over more datasets than its registered slice
        # (universe drift) must fail loudly, never silently truncate.
        import pytest

        n = data.draw(st.integers(min_value=1, max_value=60))
        total = data.draw(st.integers(min_value=1, max_value=60))
        offset = data.draw(st.integers(min_value=0, max_value=80))
        local = DatasetBitmap.full(n)
        if offset + n > total:
            with pytest.raises(ValueError):
                local.shift_into(offset, total)
        else:
            assert local.shift_into(offset, total).count() == n
