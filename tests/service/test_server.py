"""Tests for the HTTP JSON endpoint and the expression wire format."""

import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from peers import serving

from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import And, Or, Predicate, pred
from repro.errors import QueryError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.service import QueryService
from repro.service.server import (
    expression_from_json,
    expression_to_json,
    make_server,
)
from repro.workloads.generators import synthetic_data_lake


_INF = float("inf")
_COORD = st.floats(-1e6, 1e6) | st.sampled_from([-_INF, _INF])


@st.composite
def _ptile_leaves(draw):
    dim = draw(st.integers(1, 3))
    sides = [sorted(draw(st.tuples(_COORD, _COORD))) for _ in range(dim)]
    rect = Rectangle([lo for lo, _ in sides], [hi for _, hi in sides])
    a, b = sorted(draw(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0))))
    theta = draw(st.sampled_from([Interval(a, b), Interval.at_least(a),
                                  Interval.at_most(b)]))
    return Predicate(PercentileMeasure(rect), theta)


@st.composite
def _pref_leaves(draw):
    eighths = st.integers(-8000, 8000).map(lambda i: i / 8)
    vector = draw(st.lists(eighths, min_size=1, max_size=4))
    vector[0] = vector[0] or 1.0  # the zero vector has no direction
    measure = PreferenceMeasure(np.array(vector), k=draw(st.integers(1, 50)))
    return Predicate(measure, Interval.at_least(draw(st.floats(-1e3, 1e3))))


_EXPRESSIONS = st.recursive(
    _ptile_leaves() | _pref_leaves(),
    lambda children: st.builds(
        lambda cls, kids: cls(kids), st.sampled_from([And, Or]),
        st.lists(children, min_size=1, max_size=3),
    ),
    max_leaves=8,
)


def _same(a, b) -> bool:
    """Structural equality; a Pref vector is re-normalised on the way back
    in, so it may move by an ulp."""
    if isinstance(a, (And, Or)):
        return type(a) is type(b) and len(a.children) == len(b.children) and all(
            map(_same, a.children, b.children))
    if type(a.measure) is not type(b.measure) or a.theta != b.theta:
        return False
    if isinstance(a.measure, PercentileMeasure):
        return bool(np.array_equal(a.measure.rect.lo, b.measure.rect.lo)
                    and np.array_equal(a.measure.rect.hi, b.measure.rect.hi))
    return a.measure.k == b.measure.k and bool(
        np.allclose(a.measure.vector, b.measure.vector, rtol=1e-14, atol=0.0))


class TestWireFormat:
    @settings(max_examples=80, deadline=None)
    @given(_EXPRESSIONS)
    def test_random_trees_round_trip(self, expression):
        wire_json = json.loads(json.dumps(expression_to_json(expression)))
        assert _same(expression_from_json(wire_json), expression)

    def test_leaf_round_trip(self):
        ptile = pred(PercentileMeasure(Rectangle([0.0, 0.1], [0.5, 0.9])), 0.2, 0.6)
        pref = Predicate(
            PreferenceMeasure(np.array([1.0, 0.0]), k=3), Interval.at_least(0.7)
        )
        for leaf in (ptile, pref):
            back = expression_from_json(expression_to_json(leaf))
            assert back.canonical_key() == leaf.canonical_key()

    def test_threshold_theta_round_trip(self):
        leaf = pred(PercentileMeasure(Rectangle([0.0], [1.0])), 0.3)  # [0.3, inf)
        obj = expression_to_json(leaf)
        assert obj["theta"] == [0.3]
        back = expression_from_json(obj)
        assert back.canonical_key() == leaf.canonical_key()

    def test_open_interval_refuses_to_serialize(self):
        # The wire format carries no open/closed flags; round-tripping an
        # open interval as closed would flip boundary membership.
        leaf = Predicate(
            PercentileMeasure(Rectangle([0.0], [1.0])),
            Interval(0.2, 0.6, lo_open=True),
        )
        with pytest.raises(QueryError):
            expression_to_json(leaf)

    def test_pref_range_interval_refuses_to_serialize(self):
        # The engine answers only one-sided pref predicates; a silent
        # round-trip through [a, inf) would weaken [a, b].
        leaf = Predicate(
            PreferenceMeasure(np.array([1.0]), k=2), Interval(0.2, 0.5)
        )
        with pytest.raises(QueryError):
            expression_to_json(leaf)

    def test_nested_round_trip(self):
        a = pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.2)
        b = pred(PercentileMeasure(Rectangle([0.5], [1.0])), 0.1, 0.8)
        c = Predicate(
            PreferenceMeasure(np.array([1.0]), k=2), Interval.at_least(0.5)
        )
        expr = And([Or([a, b]), c])
        back = expression_from_json(expression_to_json(expr))
        assert back.canonical_key() == expr.canonical_key()

    @pytest.mark.parametrize(
        "bad",
        [
            42,
            {"no_op": 1},
            {"op": "nand", "children": []},
            {"op": "and", "children": []},
            {"op": "ptile", "lo": [0.0]},  # missing hi/theta
            {"op": "ptile", "lo": [0.0], "hi": [1.0], "theta": []},
            {"op": "pref", "vector": [1.0]},  # missing k/tau
            # Values that used to crash (500) or silently truncate further in.
            {"op": "ptile", "lo": [float("nan")], "hi": [1.0], "theta": [0.1]},
            {"op": "ptile", "lo": [0.0], "hi": [float("nan")], "theta": [0.1]},
            {"op": "pref", "vector": [1.0], "k": 2, "tau": float("nan")},
            {"op": "pref", "vector": [float("inf")], "k": 2, "tau": 0.5},
            {"op": "pref", "vector": [1.0], "k": 1.7, "tau": 0.5},
            {"op": "pref", "vector": [1.0], "k": True, "tau": 0.5},
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(QueryError):
            expression_from_json(bad)

    def test_infinite_bounds_and_integral_float_k_stay_legal(self):
        inf = float("inf")
        leaf = expression_from_json(
            {"op": "ptile", "lo": [-inf], "hi": [inf], "theta": [0.1]}
        )
        assert leaf.measure.rect.lo[0] == -inf and leaf.measure.rect.hi[0] == inf
        pref = expression_from_json(
            {"op": "pref", "vector": [1.0], "k": 3.0, "tau": 0.5}
        )
        assert pref.measure.k == 3 and isinstance(pref.measure.k, int)


@pytest.fixture(scope="module")
def server_url():
    lake = synthetic_data_lake(
        10, 1, np.random.default_rng(0), family="clustered", median_size=120
    )
    service = QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2,
        eps=0.2,
        sample_size=8,
        seed=1,
    )
    with serving(make_server(service, port=0)) as url:
        yield url
    service.close()


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read().decode("utf-8"))


PTILE = {"op": "ptile", "lo": [0.0], "hi": [0.6], "theta": [0.05]}
PREF = {"op": "pref", "vector": [1.0], "k": 2, "tau": 0.1}


class TestEndpoints:
    def test_healthz(self, server_url):
        out = _get(server_url + "/healthz")
        assert out == {
            "status": "ok", "engine": "kd", "n_datasets": 10, "n_live": 10,
            "n_shards": 2, "snapshot_generation": 0, "worker_id": 0,
            "worker_count": 1,
        }

    def test_search(self, server_url):
        out = _post(server_url + "/search", {"expression": PTILE})
        assert sorted(out["indexes"]) == out["indexes"]
        assert set(out["indexes"]) <= set(range(10))
        assert out["stats"]["n_leaves_unique"] == 1

    def test_search_and_expression(self, server_url):
        out = _post(
            server_url + "/search",
            {"expression": {"op": "and", "children": [PTILE, PREF]}},
        )
        both = _post(server_url + "/search", {"expression": PTILE})
        assert set(out["indexes"]) <= set(both["indexes"])

    def test_batch(self, server_url):
        out = _post(
            server_url + "/search/batch", {"expressions": [PTILE, PREF, PTILE]}
        )
        assert len(out["results"]) == 3
        assert out["results"][0]["indexes"] == out["results"][2]["indexes"]

    def test_batch_bitset_format(self, server_url):
        from repro.core.bitset import bitmap_from_wire

        plain = _post(
            server_url + "/search/batch", {"expressions": [PTILE, PREF]}
        )
        packed = _post(
            server_url + "/search/batch",
            {"expressions": [PTILE, PREF], "format": "bitset"},
        )
        assert len(packed["results"]) == 2
        for plain_r, packed_r in zip(plain["results"], packed["results"]):
            assert "indexes" not in packed_r
            bm = bitmap_from_wire(packed_r["bitset"])
            assert bm.to_list() == plain_r["indexes"]
            assert packed_r["out_size"] == len(plain_r["indexes"])
            assert bm.nbits == 10  # the full dataset universe

    def test_batch_unknown_format_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(
                server_url + "/search/batch",
                {"expressions": [PTILE], "format": "csv"},
            )
        assert err.value.code == 400

    def test_stats_and_invalidate(self, server_url):
        _post(server_url + "/search", {"expression": PTILE})
        stats = _get(server_url + "/stats")
        assert stats["telemetry"]["n_queries"] >= 1
        gen = stats["cache"]["generation"]
        out = _post(server_url + "/cache/invalidate", {})
        assert out["generation"] == gen + 1

    def test_bad_expression_is_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server_url + "/search", {"expression": {"op": "nope"}})
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read().decode("utf-8"))

    def test_record_times_are_relative_with_duration(self, server_url):
        # Absolute perf_counter stamps are process-local; the wire carries
        # offsets from the query start plus the total duration.
        out = _post(
            server_url + "/search",
            {"expression": PTILE, "record_times": True},
        )
        assert "duration_s" in out and out["duration_s"] > 0.0
        assert len(out["emit_times"]) == len(out["indexes"])
        for t in out["emit_times"]:
            assert 0.0 <= t <= out["duration_s"]

    def test_untimed_search_has_no_duration(self, server_url):
        out = _post(server_url + "/search", {"expression": PTILE})
        assert "duration_s" not in out and out["emit_times"] == []

    def test_search_trace_opt_in(self, server_url):
        plain = _post(server_url + "/search", {"expression": PTILE})
        assert "trace" not in plain
        traced = _post(
            server_url + "/search", {"expression": PTILE, "trace": True}
        )
        trace = traced["trace"]
        assert trace["name"] == "search_batch" and trace["start_s"] == 0.0
        stages = [c["name"] for c in trace["children"]]
        assert stages[0] == "plan" and "assemble" in stages
        assert trace["duration_s"] > 0.0

    def test_batch_trace_is_top_level(self, server_url):
        out = _post(
            server_url + "/search/batch",
            {"expressions": [PTILE, PREF], "trace": True},
        )
        assert out["trace"]["meta"]["n_queries"] == 2
        assert all("trace" not in r for r in out["results"])

    def test_batch_record_times_are_relative(self, server_url):
        out = _post(
            server_url + "/search/batch",
            {"expressions": [PTILE, PREF], "record_times": True},
        )
        for r in out["results"]:
            assert r["duration_s"] > 0.0
            assert len(r["emit_times"]) == len(r["indexes"])
            for t in r["emit_times"]:
                assert 0.0 <= t <= r["duration_s"]

    def test_metrics_endpoint(self, server_url):
        _post(server_url + "/search", {"expression": PTILE, "trace": True})
        req = urllib.request.Request(server_url + "/metrics")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            body = resp.read().decode("utf-8")
        for family in (
            "repro_stage_seconds",
            "repro_query_seconds",
            "repro_request_seconds",
            "repro_requests_total",
            "repro_cache_hit_ratio",
            "repro_shard_size",
            "repro_datasets_live",
        ):
            assert f"# TYPE {family}" in body, family
        assert 'endpoint="/search"' in body

    def test_stats_slow_endpoint(self, server_url):
        out = _get(server_url + "/stats/slow")
        # The shared server has no threshold configured.
        assert out == {
            "threshold_ms": None, "n_recorded": 0, "slow_queries": [],
        }


def _request(url: str, payload: dict, method: str) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method=method
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read().decode("utf-8"))


@pytest.fixture()
def mutable_server_url():
    """A per-test server: mutation tests must not disturb the shared one."""
    lake = synthetic_data_lake(
        10, 1, np.random.default_rng(0), family="clustered", median_size=120
    )
    service = QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2,
        eps=0.2,
        sample_size=8,
        seed=1,
        capacity=20,
    )
    with serving(make_server(service, port=0)) as url:
        yield url
    service.close()


def test_slow_log_over_http():
    lake = synthetic_data_lake(
        8, 1, np.random.default_rng(2), family="clustered", median_size=100
    )
    service = QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2,
        eps=0.2,
        sample_size=8,
        seed=1,
        slow_query_threshold_ms=0.0,
    )
    with serving(make_server(service, port=0)) as url:
        _post(url + "/search", {"expression": PTILE, "trace": True})
        out = _get(url + "/stats/slow")
        assert out["threshold_ms"] == 0.0 and out["n_recorded"] >= 1
        worst = out["slow_queries"][0]
        assert worst["latency_ms"] >= 0.0
        assert worst["trace"]["name"] == "search_batch"
        stats = _get(url + "/stats")
        assert stats["observability"]["slow_queries"] == out["n_recorded"]
    service.close()


class TestMutationEndpoints:
    def test_post_datasets_ingests_live(self, mutable_server_url):
        url = mutable_server_url
        _post(url + "/search", {"expression": PTILE})  # warm one leaf
        new = np.random.default_rng(3).uniform(0.0, 0.6, (50, 1)).tolist()
        out = _post(url + "/datasets", {"datasets": [new, new]})
        assert out["indexes"] == [10, 11]
        assert out["rebuilt"] is False and out["n_datasets"] == 12
        health = _get(url + "/healthz")
        assert health["n_datasets"] == 12 and health["n_live"] == 12
        # The new datasets are servable and the cache was not flushed.
        search = _post(url + "/search", {"expression": PTILE})
        assert set(search["indexes"]) <= set(range(12))
        stats = _get(url + "/stats")
        assert stats["cache"]["invalidations"] == 0
        assert stats["cache"]["upgrades"] >= 1
        assert stats["delta_size"] == 2

    def test_delete_datasets_masks(self, mutable_server_url):
        url = mutable_server_url
        out = _request(url + "/datasets", {"indexes": [0, 3]}, "DELETE")
        assert out["removed"] == [0, 3] and out["n_live"] == 8
        search = _post(url + "/search", {"expression": PTILE})
        assert 0 not in search["indexes"] and 3 not in search["indexes"]
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(url + "/datasets", {"indexes": [0]}, "DELETE")
        assert err.value.code == 400  # already removed

    def test_a_reader_refuses_mutations_without_naming_a_worker(self):
        """A reader's 409 names no worker: after a promotion the writer is
        whichever sibling took the role, and a respawned slot 0 is a
        reader, so no reader knows the writer's id."""
        lake = synthetic_data_lake(
            4, 1, np.random.default_rng(0), family="clustered", median_size=60
        )
        service = QueryService(
            repository=Repository.from_arrays(lake), eps=0.2, sample_size=8, seed=1
        )
        httpd = make_server(service, port=0)
        httpd.RequestHandlerClass.node.writer = False
        new = np.random.default_rng(3).uniform(0.0, 0.6, (20, 1)).tolist()
        with serving(httpd) as url:
            for payload, method in (
                ({"datasets": [new]}, "POST"),
                ({"indexes": [0]}, "DELETE"),
            ):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _request(url + "/datasets", payload, method)
                assert err.value.code == 409
                error = json.loads(err.value.read())["error"]
                assert "read-only" in error
                assert re.search(r"worker \d", error) is None, error
            assert _get(url + "/healthz")["n_live"] == 4
        service.close()

    def test_malformed_mutations_are_400(self, mutable_server_url):
        url = mutable_server_url
        for payload in ({}, {"datasets": []}, {"datasets": "nope"}):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(url + "/datasets", payload)
            assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(url + "/datasets", {"indexes": []}, "DELETE")
        assert err.value.code == 400
