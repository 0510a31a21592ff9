"""Deadline propagation and degraded (must / maybe) answers.

The resilience contract: a query with a ``deadline_ms`` budget never
500s — when the budget runs out mid-evaluation (or the caller asks for
``degrade`` outright), each leaf without an exact answer is bounded by
``(∅, live datasets)``, and the query answers with a must/maybe pair
satisfying

    must ⊆ exact ⊆ must ∪ maybe

where *exact* is what an unbounded evaluation returns.  Bounds are never
cached; exact prefixes salvaged from a partial evaluation are.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from peers import serving

from repro.baselines.linear_scan import LinearScanPtile
from repro.core.framework import Repository
from repro.core.measures import (
    MeasureFunction,
    PercentileMeasure,
    PreferenceMeasure,
)
from repro.core.predicates import And, Or, Predicate, pred
from repro.core.ptile_range import PtileRangeIndex
from repro.errors import QueryError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.service import QueryService
from repro.service import faults
from repro.service.deadline import Deadline
from repro.service.server import expression_to_json, make_server
from repro.service.sharding import ShardedBatchExecutor
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

SEED = 31
DIM = 2


def build_service(**kwargs) -> QueryService:
    lake = synthetic_data_lake(
        12, DIM, np.random.default_rng(SEED), median_size=80
    )
    return QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2,
        seed=SEED,
        eps=0.2,
        sample_size=16,
        **kwargs,
    )


@pytest.fixture(params=["built", "loaded"])
def service(request, tmp_path):
    """The service as built, and as a node serves it: loaded (mmap) from
    the snapshot file of the same build, synopses and all."""
    svc = build_service()
    if request.param == "loaded":
        path = tmp_path / "svc.snap"
        svc.save(path)
        svc.close()
        svc = QueryService.load(path, mmap=True)
    yield svc
    svc.close()


@pytest.fixture()
def queries():
    return batched_query_workload(6, DIM, np.random.default_rng(SEED + 1))


def assert_contained(degraded, exact):
    """must ⊆ exact ⊆ must ∪ maybe, and must/maybe are disjoint."""
    must = set(degraded.indexes)
    maybe = set(degraded.maybe_bitmap.to_list())
    exact_set = set(exact.indexes)
    assert must.isdisjoint(maybe)
    assert must <= exact_set, f"must {must} not within exact {exact_set}"
    assert exact_set <= must | maybe, (
        f"exact {exact_set} escapes must∪maybe {must | maybe}"
    )


class TestDeadlineClass:
    def test_tiny_budget_expires(self):
        d = Deadline.from_ms(1e-6)
        assert d.expired()

    def test_generous_budget_does_not(self):
        assert not Deadline.from_ms(60_000).expired()

    @pytest.mark.parametrize(
        "bad",
        [0, -5, "soon", None, "5", True, float("inf"), float("nan"), 10**400],
    )
    def test_invalid_budgets_rejected(self, bad):
        with pytest.raises(QueryError):
            Deadline.from_ms(bad)

    def test_every_generated_malformation_is_a_query_error(self):
        import wire_cases

        from repro import wire

        cases = list(wire_cases.cases(wire.DEADLINE_MS, 250))
        assert len(cases) >= 8  # retypes, NaN, zero, infinity
        for label, bad in cases:
            with pytest.raises(QueryError):
                Deadline.from_ms(bad)
                pytest.fail(f"{label}: accepted")


class TestDegradedAnswers:
    def test_expired_before_start_degrades_immediately(self, service, queries):
        results = service.search_batch(queries, deadline_ms=1e-6)
        assert all(r.stats.get("degraded") for r in results)
        assert all(r.stats["degrade_reason"] == "deadline" for r in results)
        exact = service.search_batch(queries)
        for deg, ex in zip(results, exact):
            assert_contained(deg, ex)

    def test_requested_degrade_bounds_exact(self, service, queries):
        degraded = service.search_batch(queries, degrade=True)
        assert all(r.stats.get("degraded") for r in degraded)
        assert all(
            r.stats["degrade_reason"] == "requested" for r in degraded
        )
        exact = service.search_batch(queries)
        for deg, ex in zip(degraded, exact):
            assert_contained(deg, ex)

    def test_generous_deadline_stays_exact(self, service, queries):
        bounded = service.search_batch(queries, deadline_ms=60_000)
        exact = service.search_batch(queries)
        for b, ex in zip(bounded, exact):
            assert not b.stats.get("degraded")
            assert b.maybe_bitmap is None
            assert sorted(b.indexes) == sorted(ex.indexes)

    def test_degraded_bounds_metadata(self, service, queries):
        (r,) = service.search_batch(queries[:1], degrade=True)
        bounds = r.stats["bounds"]
        assert bounds["must"] == len(r.indexes)
        assert bounds["maybe"] == r.maybe_bitmap.count()
        assert bounds["screened_leaves"] >= 1

    def test_degraded_bounds_are_not_cached(self, service, queries):
        service.search_batch(queries, degrade=True)
        # Nothing exact was computed for those leaves, so a later exact
        # run re-evaluates them and comes back undegraded and complete.
        exact = service.search_batch(queries)
        assert all(not r.stats.get("degraded") for r in exact)
        assert all(r.maybe_bitmap is None for r in exact)

    def test_exact_answers_reused_after_deadline_salvage(
        self, service, queries
    ):
        # Populate exactly, then degrade: every leaf is a cache hit, so
        # even degrade=True serves the exact answer (nothing pending).
        exact = service.search_batch(queries)
        again = service.search_batch(queries, degrade=True)
        for ex, ag in zip(exact, again):
            assert not ag.stats.get("degraded")
            assert sorted(ag.indexes) == sorted(ex.indexes)


class TestTheTrivialBound:
    """A leaf the batch did not answer exactly is bounded by ``(∅, live)``:
    every dataset below the batch's watermark that is not tombstoned."""

    def test_bound_is_the_live_set_after_adds_and_removes(self, queries):
        lake = synthetic_data_lake(
            12, DIM, np.random.default_rng(SEED), median_size=80
        )
        svc = build_service(capacity=32)
        try:
            receipt = svc.add_datasets([lake[0], lake[5]])
            assert not receipt["rebuilt"] and receipt["delta_size"] == 2
            svc.remove_datasets([1, 12])  # one base dataset, one delta one
            live = set(range(14)) - {1, 12}
            exact = svc.search_batch(queries)
            svc.invalidate_cache()
            for mode in ({"degrade": True}, {"deadline_ms": 1e-6}):
                for got, ex in zip(svc.search_batch(queries, **mode), exact):
                    assert got.stats["degraded"]
                    assert got.indexes == []
                    assert set(got.maybe_bitmap.to_list()) == live
                    assert_contained(got, ex)
        finally:
            svc.close()

    def test_a_cached_exact_leaf_tightens_the_bound(self, service, queries):
        n = service.executor.n_datasets
        leaves = list({
            leaf.canonical_key(): leaf for q in queries for leaf in q.leaves()
        }.values())
        answers = [set(r.indexes) for r in service.search_batch(leaves)]
        service.invalidate_cache()
        i = next(i for i, a in enumerate(answers) if 0 < len(a) < n)
        cached, pending = leaves[i], leaves[i - 1]
        service.search_batch([cached])  # the only leaf in the cache
        conj, disj = service.search_batch(
            [And([cached, pending]), Or([cached, pending])], degrade=True
        )
        for got in (conj, disj):
            assert got.stats["bounds"]["exact_leaves"] == 1
            assert got.stats["bounds"]["screened_leaves"] == 1
        # The cached leaf decides the And: maybe shrinks to its answer.
        assert conj.indexes == []
        assert set(conj.maybe_bitmap.to_list()) == answers[i]
        # ... and the Or: its answer is certain, the rest is maybe.
        assert set(disj.indexes) == answers[i]
        assert set(disj.maybe_bitmap.to_list()) == set(range(n)) - answers[i]


class _UnknownMeasure(MeasureFunction):
    """A measure no index answers."""

    measure_class = "unknown"

    def evaluate(self, dataset):
        return 0.0

    def evaluate_synopsis(self, synopsis):
        return 0.0

    def canonical_key(self):
        return ("unknown",)


REFUSED = {
    "two-sided-pref": pred(PreferenceMeasure(np.array([1.0, 0.0]), 1), 0.2, 0.4),
    "unknown-measure": Predicate(_UnknownMeasure(), Interval.at_least(0.5)),
}


@pytest.mark.parametrize("leaf", list(REFUSED.values()), ids=list(REFUSED))
def test_degraded_paths_refuse_what_the_exact_path_refuses(service, leaf):
    with pytest.raises(QueryError) as exact:
        service.search_batch([leaf])
    for mode in ({"degrade": True}, {"deadline_ms": 1e-6}):
        with pytest.raises(QueryError) as degraded:
            service.search_batch([leaf], **mode)
        assert str(degraded.value) == str(exact.value), mode


def test_the_screen_rules_out_only_what_the_engine_cannot_report():
    # The engine widens theta by eps_effective around *coreset* masses, so
    # it may report a dataset whose true mass is 2·eps_effective outside
    # theta; a bound must never drop such a dataset from must ∪ maybe.  A
    # small-eps lake, where that slack is narrow enough to matter.
    rng = np.random.default_rng(4)
    lake = synthetic_data_lake(8, 1, rng, median_size=60)
    svc = QueryService(
        repository=Repository.from_arrays(lake), eps=0.1, sample_size=48, seed=4,
    )
    assert svc.executor.eps_effective < 0.3
    pool = batched_query_workload(16, 1, rng, duplicate_leaf_rate=0.6)
    degraded = svc.search_batch(pool, degrade=True)
    assert sum(bool(r.stats.get("degraded")) for r in degraded) >= 8
    for deg, ex in zip(degraded, svc.search_batch(pool)):
        if deg.stats.get("degraded"):
            assert_contained(deg, ex)
    svc.close()


def test_a_budget_that_holds_takes_the_batched_path(monkeypatch, queries):
    # A never-spent budget changes nothing: the cold batch answers what the
    # unbudgeted one does, through one multi-box call per unit and never
    # the single-box descent.
    calls = {"query": 0, "query_many": 0}
    for name in calls:
        real = getattr(PtileRangeIndex, name)

        def spy(self, *args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(PtileRangeIndex, name, spy)
    svc = build_service()
    try:
        budgeted = svc.search_batch(queries, deadline_ms=60_000)
        assert calls == {"query": 0, "query_many": len(svc.executor._units())}
        svc.invalidate_cache()
        exact = svc.search_batch(queries)
    finally:
        svc.close()
    for b, ex in zip(budgeted, exact):
        assert not b.stats.get("degraded")
        assert b.bitmap == ex.bitmap


class TestDeadlineUnderInjectedSlowness:
    def test_slow_shard_triggers_degradation(self, queries):
        svc = build_service()
        try:
            faults.arm("shard_eval=sleep:0.25")
            results = svc.search_batch(queries, deadline_ms=50)
            assert any(r.stats.get("degraded") for r in results)
            assert all(
                r.stats["degrade_reason"] == "deadline"
                for r in results
                if r.stats.get("degraded")
            )
            faults.disarm()
            exact = svc.search_batch(queries)
            for deg, ex in zip(results, exact):
                if deg.stats.get("degraded"):
                    assert_contained(deg, ex)
        finally:
            faults.disarm()
            svc.close()

    def test_tripped_deadline_starts_no_further_unit(self, monkeypatch):
        # Units run in sequence on the calling thread: once the first one
        # has slept through the budget, the second must not be started,
        # and the answer degrades to synopsis bounds around the truth.
        svc = build_service()
        leaf = pred(PercentileMeasure(Rectangle([0.2, 0.2], [0.8, 0.8])), 0.5)
        started = []
        real = ShardedBatchExecutor._eval_on_unit

        def spy(self, unit, *args, **kwargs):
            started.append(unit)
            return real(self, unit, *args, **kwargs)

        monkeypatch.setattr(ShardedBatchExecutor, "_eval_on_unit", spy)
        try:
            faults.arm("shard_eval=sleep:0.25")
            (result,) = svc.search_batch([leaf], deadline_ms=50)
        finally:
            faults.disarm()
            svc.close()
        assert started == [svc.executor.units[0]]
        assert result.stats["degraded"]
        assert result.stats["degrade_reason"] == "deadline"
        scan = LinearScanPtile([ds.points for ds in svc.repository], mode="numpy")
        truth = set(scan.query(leaf.measure.rect, leaf.theta).indexes)
        must = set(result.indexes)
        maybe = set(result.maybe_bitmap.to_list())
        assert must <= truth <= must | maybe

    def test_executor_raises_with_partial_prefix(self, queries):
        # The name is the floor's; since PR 22 nothing is raised — a tripped
        # budget *returns* the completed prefix, here the empty one.
        svc = build_service()
        try:
            plans = [svc.plans.plan(q) for q in queries]
            leaves = []
            for p in plans:
                leaves.extend(p.leaves.values())
            assert leaves
            expired = Deadline(-1.0)
            assert svc.executor.eval_leaves(leaves, deadline=expired) == []
            # A tripped batch moves no executor counter ...
            assert svc.stats()["executor"]["leaf_evals"] == 0
            assert svc.stats()["executor"]["shard_tasks"] == 0
            # ... and a budget that holds returns the whole aligned list.
            full = svc.executor.eval_leaves(leaves, deadline=Deadline(60.0))
            assert full == svc.executor.eval_leaves(leaves)
            assert svc.stats()["executor"]["leaf_evals"] == 2 * len(leaves)
        finally:
            svc.close()


class TestDeadlineWire:
    @pytest.fixture(scope="class")
    def server(self):
        svc = build_service()
        with serving(make_server(svc, port=0)) as url:
            yield url, svc
        svc.close()

    def _post(self, url, payload):
        req = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=15) as resp:
            return json.loads(resp.read())

    def test_search_degrade_carries_maybe_indexes(self, server, queries):
        url, _svc = server
        expr = expression_to_json(queries[0])
        deg = self._post(
            f"{url}/search", {"expression": expr, "degrade": True}
        )
        exact = self._post(f"{url}/search", {"expression": expr})
        if deg.get("degraded"):
            must = set(deg["indexes"])
            maybe = set(deg["maybe_indexes"])
            exact_set = set(exact["indexes"])
            assert must <= exact_set <= must | maybe
        else:
            # all leaves were already cached by a sibling test
            assert sorted(deg["indexes"]) == sorted(exact["indexes"])

    def test_batch_deadline_never_500s(self, server):
        url, _svc = server
        # Fresh expressions: a leaf already in the exact cache answers
        # exactly even under an expired deadline, which is correct but
        # not what this test is probing.
        queries = batched_query_workload(
            4, DIM, np.random.default_rng(SEED + 17)
        )
        payload = {
            "expressions": [expression_to_json(q) for q in queries],
            "deadline_ms": 1e-6,
        }
        out = self._post(f"{url}/search/batch", payload)
        assert len(out["results"]) == len(queries)
        for r in out["results"]:
            assert r["stats"].get("degraded")
            assert "maybe_indexes" in r

    def test_bitset_format_ships_maybe_bitset(self, server):
        url, _svc = server
        (query,) = batched_query_workload(
            1, DIM, np.random.default_rng(SEED + 19)
        )
        payload = {
            "expressions": [expression_to_json(query)],
            "format": "bitset",
            "deadline_ms": 1e-6,
        }
        out = self._post(f"{url}/search/batch", payload)
        (r,) = out["results"]
        assert r["stats"]["degraded"]
        assert "maybe_bitset" in r

    def test_bad_deadline_is_a_client_error(self, server, queries):
        url, _svc = server
        payload = {
            "expression": expression_to_json(queries[0]),
            "deadline_ms": -10,
        }
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            self._post(f"{url}/search", payload)
        assert exc_info.value.code == 400

    def test_degraded_queries_surface_in_stats(self, server):
        url, _svc = server
        queries = batched_query_workload(
            3, DIM, np.random.default_rng(SEED + 23)
        )
        self._post(
            f"{url}/search/batch",
            {
                "expressions": [expression_to_json(q) for q in queries],
                "deadline_ms": 1e-6,
            },
        )
        with urllib.request.urlopen(f"{url}/stats", timeout=15) as resp:
            stats = json.loads(resp.read())
        res = stats["resilience"]
        assert res["degraded_queries"] >= 1
        assert res["deadline_expirations"] >= 1
