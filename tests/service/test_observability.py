"""Tests for the observability layer: histograms, tracer, slow log, registry.

Covers the satellite requirements explicitly: a property test that merged
histogram quantiles bracket the pooled-sample quantiles, and span
nesting/ordering under ``search_batch`` with mixed cache hits and misses.
"""

import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from peers import serving

from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import And, Predicate, pred
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.service import QueryService, observability
from repro.service.observability import (
    LATENCY_WINDOW,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
    default_latency_bounds,
)
from repro.errors import QueryError
from repro.trace import NO_SPAN, TRACER, Tracer, record_span, span
from repro.workloads.generators import synthetic_data_lake


def nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class TestHistogram:
    def test_bucket_placement_and_totals(self):
        h = Histogram(bounds=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.001, 0.002, 0.5):
            h.observe(v)
        # 0.001 lands in its own bucket (le semantics: first bound >= v).
        assert h.snapshot()["counts"] == [2, 1, 0, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(0.5035)

    def test_default_bounds_are_strictly_increasing(self):
        bounds = default_latency_bounds()
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx(1e-6)

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().quantile(50.0))

    def test_overflow_quantile_reports_lower_bound(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        lo, hi = h.quantile_bounds(50.0)
        assert lo == 2.0 and math.isinf(hi)
        assert h.quantile(50.0) == 2.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(101.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=1e-7, max_value=50.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40,
            ),
            min_size=1, max_size=5,
        ),
        st.sampled_from([50.0, 90.0, 95.0, 99.0]),
    )
    def test_merged_quantiles_bracket_pooled_sample(self, groups, q):
        # One histogram observed from several sources must answer quantile
        # queries consistently with pooling the raw samples.
        merged = Histogram()
        for group in groups:
            for v in group:
                merged.observe(v)
        pooled = sorted(v for group in groups for v in group)
        truth = nearest_rank(pooled, q)
        lo, hi = merged.quantile_bounds(q)
        assert lo < truth <= hi or (truth <= hi and lo == 0.0)
        estimate = merged.quantile(q)
        # The point estimate is conservative (never under the truth when
        # finite) and within one power-of-two bucket.
        if math.isfinite(hi):
            assert estimate >= truth
            assert estimate <= truth * 2.0 or estimate == merged.bounds[0]

    def test_snapshot_shape(self):
        h = Histogram(bounds=(0.001, 1.0))
        h.observe(0.01)
        snap = h.snapshot()
        assert snap["count"] == 1 and snap["sum_s"] == pytest.approx(0.01)
        assert snap["counts"] == [0, 1, 0]
        assert snap["p50_s"] == 1.0 and snap["p99_s"] == 1.0

    def test_thread_safety_of_observe(self):
        h = Histogram()

        def pound():
            for _ in range(2000):
                h.observe(1e-4)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 8000 and sum(h.snapshot()["counts"]) == 8000


SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$"
)


class TestMetricsRegistry:
    def test_counters_and_labels(self):
        reg = MetricsRegistry()
        reg.describe("x_total", "counter", "Things.")
        reg.inc("x_total", {"kind": "a"})
        reg.inc("x_total", {"kind": "a"}, by=2)
        reg.inc("x_total", {"kind": "b"})
        assert reg.counter_value("x_total", {"kind": "a"}) == 3
        body = reg.render()
        assert 'x_total{kind="a"} 3' in body
        assert 'x_total{kind="b"} 1' in body

    def test_histogram_rendering_is_cumulative(self):
        reg = MetricsRegistry()
        reg.declare_histogram("h_seconds", "H.", bounds=(0.001, 0.01))
        for v in (0.0005, 0.005, 5.0):
            reg.observe("h_seconds", v)
        body = reg.render()
        assert 'h_seconds_bucket{le="0.001"} 1' in body
        assert 'h_seconds_bucket{le="0.01"} 2' in body
        assert 'h_seconds_bucket{le="+Inf"} 3' in body
        assert "h_seconds_count 3" in body

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.inc("y_total", {"q": 'a"b\\c'})
        assert 'q="a\\"b\\\\c"' in reg.render()

    def test_every_sample_line_parses(self):
        reg = MetricsRegistry()
        reg.declare_histogram("h_seconds", "H.")
        reg.observe("h_seconds", 0.2, {"stage": "plan"})
        reg.inc("n_total")
        for line in reg.render().splitlines():
            if not line or line.startswith("#"):
                continue
            assert SAMPLE_LINE.match(line), line


class TestTracer:
    def test_nesting_and_parent_links(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                with tracer.span("c") as c:
                    pass
            with tracer.span("d") as d:
                pass
        assert tracer.root is a
        assert [s.name for s in a.children] == ["b", "d"]
        assert b.children == [c] and c.parent is b and d.parent is a

    def test_record_span_attaches_and_feeds_registry(self):
        reg = MetricsRegistry()
        reg.declare_histogram("repro_stage_seconds", "S.")
        tracer = Tracer(registry=reg)
        token = TRACER.set(tracer)
        try:
            with tracer.span("root") as root:
                record_span("phase", 10.0, 10.5, detail=1)
        finally:
            TRACER.reset(token)
        [phase] = root.children
        assert phase.duration_s == pytest.approx(0.5)
        assert phase.meta == {"detail": 1}
        assert reg.histogram("repro_stage_seconds", {"stage": "phase"}).count == 1

    def test_to_dict_times_are_root_relative(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        d = tracer.root.to_dict()
        assert d["start_s"] == 0.0
        child = d["children"][0]
        assert 0.0 <= child["start_s"] <= d["duration_s"]
        assert child["duration_s"] <= d["duration_s"]


class TestSlowQueryLog:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert log.record({"latency_ms": 1e9}) is False
        assert log.snapshot() == []

    def test_keeps_k_worst(self):
        log = SlowQueryLog(k=3, threshold_ms=1.0)
        met = [log.record({"latency_ms": ms})
               for ms in (5.0, 2.0, 9.0, 0.5, 7.0, 3.0)]
        assert [e["latency_ms"] for e in log.snapshot()] == [9.0, 7.0, 5.0]
        assert sum(met) == 5  # 0.5 never met the threshold

    def test_threshold_is_inclusive(self):
        log = SlowQueryLog(k=4, threshold_ms=2.0)
        assert log.record({"latency_ms": 2.0}) is True


@pytest.fixture(scope="module")
def lake():
    return synthetic_data_lake(
        10, 1, np.random.default_rng(0), family="clustered", median_size=150
    )


def make_service(lake, **kwargs):
    return QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2,
        eps=0.2,
        sample_size=8,
        seed=1,
        capacity=20,
        **kwargs,
    )


P1 = pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.1)
P2 = pred(PercentileMeasure(Rectangle([0.4], [0.9])), 0.05)
PR = Predicate(PreferenceMeasure(np.array([1.0]), k=2), Interval.at_least(0.2))


def top_level(trace):
    return [c["name"] for c in trace["children"]]


class TestServiceTracing:
    def test_untraced_results_have_no_trace(self, lake):
        with make_service(lake) as svc:
            assert svc.search(P1).trace is None

    def test_cold_batch_span_tree(self, lake):
        with make_service(lake) as svc:
            results = svc.search_batch([And([P1, P2]), PR], trace=True)
            trace = results[0].trace
            assert trace["name"] == "search_batch"
            assert trace["meta"]["n_queries"] == 2
            names = top_level(trace)
            # Stage order is the pipeline order; every query gets its own
            # assembly span tagged with its index.
            assert names == [
                "plan", "cache_lookup", "execute", "assemble", "assemble",
            ]
            assembles = [c for c in trace["children"] if c["name"] == "assemble"]
            assert [a["meta"]["query"] for a in assembles] == [0, 1]
            execute = trace["children"][2]
            shard_names = [c["name"] for c in execute["children"]]
            assert shard_names.count("shard_eval") == 2
            assert shard_names[-1] == "merge"
            for shard in execute["children"][:-1]:
                kernel_names = [c["name"] for c in shard.get("children", [])]
                assert kernel_names == ["engine_leaf_batch"]
            # Both results of the batch share the one span tree.
            assert results[1].trace is trace

    def test_mixed_hit_miss_batch(self, lake):
        with make_service(lake) as svc:
            svc.search(P1)  # warm one leaf
            trace = svc.search_batch([P1, P2], trace=True)[0].trace
            lookup = trace["children"][1]
            assert lookup["name"] == "cache_lookup"
            assert lookup["meta"] == {"hits": 1, "misses": 1, "upgrades": 0}
            assert "execute" in top_level(trace)

    def test_warm_batch_has_no_execute_span(self, lake):
        with make_service(lake) as svc:
            svc.search_batch([P1, P2])
            trace = svc.search_batch([P1, P2], trace=True)[0].trace
            names = top_level(trace)
            assert "execute" not in names and "upgrade" not in names
            assert names[:2] == ["plan", "cache_lookup"]

    def test_upgrade_span_after_ingest(self, lake):
        rng = np.random.default_rng(7)
        with make_service(lake) as svc:
            svc.search(P1)  # cache below the coming watermark
            svc.add_datasets([rng.uniform(0.0, 0.6, (60, 1))])
            trace = svc.search(P1, trace=True).trace
            names = top_level(trace)
            assert "upgrade" in names and "execute" not in names
            upgrade = trace["children"][names.index("upgrade")]
            child_names = [c["name"] for c in upgrade["children"]]
            assert "delta_eval" in child_names and "merge" in child_names

    def test_stage_durations_sum_to_total(self, lake):
        with make_service(lake) as svc:
            trace = svc.search_batch([P1, P2, PR], trace=True)[0].trace
            total = trace["duration_s"]
            stage_sum = sum(c["duration_s"] for c in trace["children"])
            assert 0.0 < stage_sum <= total * 1.0001
            assert stage_sum >= 0.5 * total
            # Top-level stages are sequential: ordered, non-overlapping.
            spans = trace["children"]
            for a, b in zip(spans, spans[1:]):
                assert a["start_s"] + a["duration_s"] <= b["start_s"] + 1e-9

    def test_service_level_tracing_default_and_override(self, lake):
        with make_service(lake, tracing=True) as svc:
            assert svc.search(P1).trace is not None
            assert svc.search(P1, trace=False).trace is None

    def test_tracing_feeds_stage_histograms(self, lake):
        with make_service(lake) as svc:
            svc.search_batch([P1, P2], trace=True)
            reg = svc.observability.registry
            for stage in ("plan", "cache_lookup", "execute", "assemble",
                          "search_batch"):
                assert reg.histogram(
                    "repro_stage_seconds", {"stage": stage}
                ).count >= 1, stage

    def test_trace_and_record_times_share_origin(self, lake):
        with make_service(lake) as svc:
            result = svc.search(P1, record_times=True, trace=True)
            assert result.trace["start_s"] == 0.0
            # Emit stamps fall inside the root span's window.
            for t in result.emit_times:
                assert result.start_time <= t
                assert t - result.start_time <= result.trace["duration_s"] + 1e-9


def _shape(span):
    """``(name, meta keys, child shapes)`` — a span tree without its times."""
    return (
        span["name"],
        sorted(span.get("meta", {})),
        [_shape(child) for child in span.get("children", [])],
    )


def _pipeline(n_canonicalize, n_assemble):
    """The cold two-shard pipeline's span tree (captured at the parent of
    the PR that made the tracer one request-thread stack)."""
    plan_meta = ["dedup_ratio", "n_leaves_raw", "n_leaves_unique", "n_queries",
                 "plan_cache_hits", "plan_cache_misses"]
    shard = ("shard_eval", ["n_datasets", "shard"],
             [("engine_leaf_batch", ["n_datasets", "n_leaves"], [])])
    return ("search_batch", ["n_queries"], [
        ("plan", plan_meta, [("canonicalize", [], [])] * n_canonicalize),
        ("cache_lookup", ["hits", "misses", "upgrades"], []),
        ("execute", ["n_leaves"], [shard, shard, ("merge", ["n_leaves", "n_units"], [])]),
        *[("assemble", ["out_size", "query"], [])] * n_assemble,
    ])


def test_span_trees_over_the_wire_keep_names_nesting_and_meta_keys(lake):
    from repro.service.federation import FederatedCoordinator, make_federation_server
    from repro.service.server import expression_to_json, http_call, make_server

    service = make_service(lake)
    coordinator = FederatedCoordinator(
        seed=1, max_retries=0, hedge_delay_s=None, tracing=True
    )
    both, p1, pr = (expression_to_json(e) for e in (And([P1, P2]), P1, PR))

    def post(url, body):
        status, raw = http_call(url, json.dumps(body).encode(), timeout=10)
        assert status == 200, raw
        return json.loads(raw)

    with (
        serving(make_server(service, port=0)) as node,
        serving(make_federation_server(coordinator, port=0)) as fed,
    ):
        coordinator.add_node(node)
        reply = post(f"{node}/search", {"expression": both, "trace": True})
        assert _shape(reply["trace"]) == _pipeline(1, 1)
        reply = post(
            f"{node}/search/batch", {"expressions": [both, pr, p1], "trace": True}
        )
        assert _shape(reply["trace"]) == _pipeline(2, 3)  # ``both`` is planned
        reply = post(f"{fed}/search/batch", {"expressions": [both, pr]})
        assert _shape(reply["federation"]["trace"]) == (
            "federated_batch", ["n_nodes", "n_queries"],
            [("scatter", ["n_nodes"], []), ("merge", ["n_nodes"], [])],
        )
        # A budget no longer hides the kernel span: the polled leaf loop
        # runs under ``engine_leaf_batch`` like the batched one.
        service.invalidate_cache()
        reply = post(
            f"{node}/search",
            {"expression": both, "trace": True, "deadline_ms": 60_000},
        )
        assert _shape(reply["trace"]) == _pipeline(0, 1)
    coordinator.close()
    service.close()


class TestTraceContext:
    """The tracer is the running batch's context: per thread, per batch."""

    def test_span_outside_any_batch_is_the_shared_no_op(self):
        assert TRACER.get() is None
        assert span("stage", rows=1) is NO_SPAN
        record_span("stage", 0.0, 1.0)  # nothing to attach to, no error

    def test_concurrent_traced_and_untraced_batches_keep_their_own(self, lake):
        with make_service(lake) as svc:
            # Both batches miss, and meet inside the execute stage.
            met = threading.Barrier(2, timeout=10)
            eval_leaves = svc.executor.eval_leaves

            def meet_then_eval(leaves, **kwargs):
                met.wait()
                return eval_leaves(leaves, **kwargs)

            svc.executor.eval_leaves = meet_then_eval
            out = {}

            def run(name, batch, trace):
                out[name] = svc.search_batch(batch, trace=trace)

            threads = [
                threading.Thread(target=run, args=("traced", [P1], True)),
                threading.Thread(target=run, args=("untraced", [P2, PR], False)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            trace = out["traced"][0].trace
            assert _shape(trace) == _pipeline(1, 1)
            assert trace["meta"]["n_queries"] == 1
            assert trace["children"][1]["meta"]["misses"] == 1
            assert trace["children"][2]["meta"]["n_leaves"] == 1
            assert [r.trace for r in out["untraced"]] == [None, None]

    def test_interleaved_batches_on_many_threads_keep_their_own(self, lake):
        """More threads than cores, switching every few bytecodes."""
        traces: dict = {True: [], False: []}
        errors: list = []

        def run(svc, batch, trace):
            try:
                for _ in range(20):
                    traces[trace].append(svc.search_batch(batch, trace=trace)[0].trace)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_service(lake) as svc:
                svc.search_batch([P1, P2, PR])  # warm: the threads only plan
                threads = [
                    threading.Thread(target=run, args=(svc, [P1], True))
                    for _ in range(2)
                ] + [
                    threading.Thread(target=run, args=(svc, [P2, PR], False))
                    for _ in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        assert traces[False] == [None] * 40
        assert len(traces[True]) == 40
        for trace in traces[True]:
            assert trace["meta"]["n_queries"] == 1
            assert top_level(trace) == ["plan", "cache_lookup", "assemble"]

    def test_a_batch_that_raises_leaves_no_tracer_behind(self, lake):
        two_sided = pred(PreferenceMeasure(np.array([1.0]), 1), 0.2, 0.4)
        with make_service(lake) as svc:
            with pytest.raises(QueryError):
                svc.search(two_sided, trace=True)
            assert TRACER.get() is None
            assert svc.search(P1).trace is None


class TestServiceSlowLogAndStats:
    def test_slow_log_records_with_trace(self, lake):
        with make_service(lake, slow_query_threshold_ms=0.0) as svc:
            svc.search(P1, trace=True)
            entries = svc.observability.slow_log.snapshot()
            assert entries
            worst = entries[0]
            assert worst["latency_ms"] >= 0.0
            assert "Pred" in worst["expression"]
            assert worst["stats"]["n_leaves_unique"] == 1
            assert worst["trace"]["name"] == "search_batch"

    def test_slow_log_disabled_records_nothing(self, lake):
        with make_service(lake) as svc:
            svc.search(P1)
            assert svc.stats()["observability"]["slow_queries"] == 0

    def test_latency_s_in_result_stats(self, lake):
        with make_service(lake) as svc:
            result = svc.search(P1)
            assert result.stats["latency_s"] > 0.0

    def test_stats_and_metrics_agree(self, lake):
        with make_service(lake) as svc:
            svc.search_batch([P1, P2, PR])
            svc.search(P1)
            stats = svc.stats()
            body = svc.observability.render_prometheus()

            def sample(name):
                for line in body.splitlines():
                    if line.startswith(name + " "):
                        return float(line.split()[-1])
                raise AssertionError(f"{name} not rendered")

            assert sample("repro_queries_total") == stats["telemetry"]["n_queries"]
            assert sample("repro_cache_hits_total") == stats["cache"]["hits"]
            assert sample("repro_cache_misses_total") == stats["cache"]["misses"]
            assert sample("repro_datasets_live") == stats["n_live"]
            assert sample("repro_cache_resident_bytes") == (
                stats["cache"]["resident_bytes"]
            )
            assert sample("repro_index_bytes") == stats["executor"]["index_bytes"] > 0

    def test_index_bytes_sums_built_shards_without_building(self, lake):
        """``executor.index_bytes`` is the built backends' array bytes: 0
        while every shard is still lazy (reading it builds nothing), then
        the sum of their ``nbytes`` — and it takes no shard lock."""
        with make_service(lake) as svc:
            executor = svc.executor
            assert svc.stats()["executor"]["index_bytes"] == 0
            assert all(unit.engine._ptile is None for unit in executor.units)
            svc.search(P1)
            trees = [unit.engine.ptile_index._tree for unit in executor.units]
            for unit in executor.units:  # a held shard lock must not block it
                assert unit.lock.acquire(timeout=5)
            try:
                got = svc.stats()["executor"]["index_bytes"]
            finally:
                for unit in executor.units:
                    unit.lock.release()
            assert got == sum(tree.nbytes for tree in trees)
            points = sum(len(tree) for tree in trees)
            assert points * 10 < got < points * 40  # codes + ids + masks, not float64

    def test_metrics_exposes_shard_and_request_families(self, lake):
        with make_service(lake) as svc:
            svc.search(P1)
            body = svc.observability.render_prometheus()
            assert 'repro_shard_size{shard="0"}' in body
            assert 'repro_shard_size{shard="1"}' in body
            assert "repro_query_seconds_bucket" in body
            assert "repro_batch_seconds_count" in body
            for line in body.splitlines():
                if not line or line.startswith("#"):
                    continue
                assert SAMPLE_LINE.match(line), line

    def test_stats_observability_section(self, lake, monkeypatch):
        monkeypatch.setattr(observability, "SLOW_LOG_SIZE", 8)
        with make_service(
            lake, slow_query_threshold_ms=5.0, tracing=True
        ) as svc:
            obs = svc.stats()["observability"]
            assert obs == {
                "tracing": True,
                "slow_query_threshold_ms": 5.0,
                "slow_log_size": 8,
                "slow_queries": 0,
            }


def query_stats(latency: float = 0.01, **overrides) -> dict:
    """The per-query ``result.stats`` keys the serving totals read."""
    stats = dict(
        latency_s=latency,
        n_leaves_raw=3,
        n_leaves_unique=2,
        cache_hits=1,
        cache_misses=1,
        cache_upgrades=1,
        shared_leaves=1,
    )
    stats.update(overrides)
    return stats


class TestTotals:
    """The ``telemetry`` block of ``/stats``, owned by ServiceObservability."""

    def test_aggregates_and_new_counters(self, lake):
        with make_service(lake) as svc:
            obs = svc.observability
            obs.record_query(query_stats(0.01), out_size=4)
            obs.record_query(query_stats(0.03, cache_upgrades=0), out_size=2)
            obs.record_batch(0.05)
            out = svc.stats()["telemetry"]
        assert out["n_queries"] == 2 and out["n_batches"] == 1
        assert out["leaves_raw"] == 6 and out["leaves_unique"] == 4
        assert out["cache_hits"] == 2 and out["cache_misses"] == 2
        assert out["cache_upgrades"] == 1 and out["shared_leaves"] == 2
        assert out["latency_mean_s"] == pytest.approx(0.02)
        assert out["mean_out_size"] == pytest.approx(3.0)
        assert out["throughput_qps"] == pytest.approx(2 / 0.05)
        assert "NaN" not in json.dumps(out)

    def test_window_percentiles_are_nearest_rank(self, lake):
        with make_service(lake) as svc:
            for latency in (0.04, 0.01, 0.03, 0.02):
                svc.observability.record_query(query_stats(latency), out_size=0)
            out = svc.stats()["telemetry"]
        assert out["latency_p50_s"] == 0.02
        assert out["latency_p95_s"] == out["latency_max_s"] == 0.04

    def test_throughput_zero_before_first_batch(self, lake):
        with make_service(lake) as svc:
            svc.observability.record_query(query_stats(), out_size=1)
            assert svc.stats()["telemetry"]["throughput_qps"] == 0.0

    def test_empty_window_summary_has_no_nan(self, lake):
        with make_service(lake) as svc:
            out = svc.stats()["telemetry"]
        assert out["throughput_qps"] == 0.0
        for key in ("latency_mean_s", "latency_p50_s", "latency_p95_s",
                    "latency_max_s", "latency_bucket_p50_s",
                    "latency_bucket_p95_s", "latency_bucket_p99_s",
                    "mean_out_size"):
            assert out[key] is None, key
        assert "NaN" not in json.dumps(out)

    def test_bucket_quantiles_track_lifetime_distribution(self, lake):
        # The window forgets, the buckets do not.
        with make_service(lake) as svc:
            obs = svc.observability
            for _ in range(2 * LATENCY_WINDOW):
                obs.record_query(query_stats(0.0001), out_size=0)
            for _ in range(LATENCY_WINDOW):
                obs.record_query(query_stats(0.05), out_size=0)
            out = svc.stats()["telemetry"]
        # The fast majority fell out of the window but not the buckets.
        assert out["n_queries"] == 3 * LATENCY_WINDOW
        assert out["latency_p50_s"] == pytest.approx(0.05)
        assert out["latency_bucket_p50_s"] <= 0.001
        assert out["latency_bucket_p99_s"] >= 0.05
        # Bucket estimates are conservative: upper bound of the bucket.
        assert out["latency_bucket_p50_s"] >= 0.0001

    def test_batch_histogram_observes_wall_time(self, lake):
        with make_service(lake) as svc:
            svc.observability.record_batch(0.02)
            hist = svc.observability.registry.histogram("repro_batch_seconds")
            assert hist.count == 1
            assert hist.sum == pytest.approx(0.02)

    def test_summary_is_consistent_under_concurrent_recording(self, lake):
        """/stats is read by one server thread while others record; the
        block must be copied out under the lock so the derived ratios are
        internally consistent (no torn counter pairs)."""
        stop = threading.Event()
        errors: list = []

        def writer(obs):
            while not stop.is_set():
                obs.record_query(query_stats(0.001), out_size=1)
                obs.record_batch(0.001)

        def reader(svc):
            try:
                while not stop.is_set():
                    out = svc.stats()["telemetry"]
                    n, batches = out["n_queries"], out["n_batches"]
                    # Each writer is at most one query ahead of its batch,
                    # and every query brought one hit and three raw leaves.
                    assert batches <= n <= batches + 2
                    assert out["cache_hits"] == n and out["leaves_raw"] == 3 * n
                    if n:
                        # n identical latencies: an un-torn mean is exact.
                        assert out["latency_mean_s"] == pytest.approx(0.001)
                    if batches:
                        assert out["throughput_qps"] == pytest.approx(
                            n / (batches * 0.001)
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_service(lake) as svc:
                threads = [
                    threading.Thread(target=writer, args=(svc.observability,))
                    for _ in range(2)
                ]
                threads += [
                    threading.Thread(target=reader, args=(svc,)) for _ in range(2)
                ]
                for t in threads:
                    t.start()
                stop.wait(0.5)
                stop.set()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert svc.stats()["telemetry"]["n_queries"] > 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]

    def test_stats_and_metrics_agree_on_query_and_batch_counts(self, lake):
        """One owner, so after a quiesced mixed batch (hits, misses, a
        shared leaf, an upgrade) every spelling of a count is the same."""
        with make_service(lake) as svc:
            svc.search_batch([P1, P2, And([P1, PR])])
            svc.add_datasets([np.random.default_rng(3).uniform(0, 1, (40, 1))])
            svc.search_batch([P1, PR], trace=True)
            svc.search(P2, degrade=True)
            telemetry = svc.stats()["telemetry"]
            body = svc.observability.render_prometheus()

        def sample(name):
            (line,) = [ln for ln in body.splitlines() if ln.startswith(name + " ")]
            return float(line.split()[-1])

        assert telemetry["n_queries"] == 6 and telemetry["n_batches"] == 3
        assert telemetry["cache_upgrades"] >= 1 and telemetry["shared_leaves"] >= 1
        assert (
            telemetry["n_queries"]
            == sample("repro_queries_total")
            == sample("repro_query_seconds_count")
        )
        assert (
            telemetry["n_batches"]
            == sample("repro_batches_total")
            == sample("repro_batch_seconds_count")
        )
