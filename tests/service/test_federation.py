"""Federated scatter-gather: exactness, degradation, breakers, endpoints.

The chaos-under-live-traffic suite (SIGKILLed node processes) lives in
``test_federation_chaos.py``; this file drives the coordinator against
in-process node servers, where failures are injected by shutting node
servers down, registering dead addresses, or arming the ``node_rpc``
failpoint in the coordinator process (which fails *every* scatter leg —
``faults.ARMED`` is process-global).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.framework import Repository
from repro.errors import QueryError
from repro.service import QueryService, faults, federation
from repro.service.federation import (
    CircuitBreaker,
    FederatedCoordinator,
    federated_node_service,
    make_federation_server,
)
from repro.service.server import (
    expression_from_json,
    expression_to_json,
    make_server,
)
from repro.service.sharding import SeededSampleSynopsis
from repro.synopsis.exact import ExactSynopsis
from repro.synopsis.quantile import QuantileHistogramSynopsis
from repro.synopsis.serialize import to_dict as synopsis_to_dict
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

SEED = 31
DIM = 1
N_TOTAL = 18
N_NODES = 3


@pytest.fixture(autouse=True)
def disarmed():
    yield
    faults.disarm()


def _service(arrays):
    return QueryService(
        repository=Repository.from_arrays(arrays),
        n_shards=2,
        eps=0.2,
        sample_size=8,
        seed=1,
    )


def _node_service(arrays, offset, total, bounding_box):
    # Global accuracy frame: capacity, global-index coresets, shared box —
    # the by-construction reason federated answers equal the reference.
    return federated_node_service(
        arrays,
        offset=offset,
        total=total,
        bounding_box=bounding_box,
        seed=1,
        n_shards=2,
        eps=0.2,
        sample_size=8,
    )


class _Node:
    """One in-process node: a QueryService behind a real HTTP server."""

    def __init__(self, service):
        self.service = service
        self.httpd = make_server(self.service, host="127.0.0.1", port=0)
        self._serve()

    def _serve(self):
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.httpd.server_address
        self.url = f"http://{host}:{port}"
        self.port = port

    def kill(self):
        self.httpd.shutdown()
        self.httpd.server_close()

    def restart(self):
        """Rebind the same port (a healed node at the same address)."""
        self.httpd = make_server(
            self.service, host="127.0.0.1", port=self.port
        )
        self._serve()

    def close(self):
        self.kill()
        self.service.close()


@pytest.fixture(scope="module")
def lake():
    return synthetic_data_lake(
        N_TOTAL, DIM, np.random.default_rng(SEED), family="clustered",
        median_size=90,
    )


@pytest.fixture(scope="module")
def queries():
    return batched_query_workload(6, DIM, np.random.default_rng(SEED + 1))


@pytest.fixture(scope="module")
def reference(lake):
    """A single-node service over the whole lake: the exactness oracle."""
    svc = _service(lake)
    yield svc
    svc.close()


@pytest.fixture()
def nodes(lake):
    per = N_TOTAL // N_NODES
    box = Repository.from_arrays(lake).bounding_box()
    built = [
        _Node(_node_service(lake[i * per:(i + 1) * per], i * per, N_TOTAL, box))
        for i in range(N_NODES)
    ]
    yield built
    for node in built:
        try:
            node.close()
        except OSError:
            pass


def _register_all(coord, nodes):
    for node in nodes:
        ex = node.service.executor
        coord.add_node(
            node.url,
            synopses=list(ex.synopses),
            eps=ex.eps,
            eps_effective=ex.eps_effective,
        )


def _containment(result, exact_ids):
    must = set(result.indexes)
    maybe = (
        set(result.maybe_bitmap.to_list())
        if result.maybe_bitmap is not None
        else set()
    )
    exact = set(exact_ids)
    assert must <= exact, f"must ⊄ exact: {sorted(must - exact)}"
    assert exact <= must | maybe, (
        f"exact ⊄ must∪maybe: {sorted(exact - must - maybe)}"
    )


class TestCircuitBreaker:
    def _breaker(self, **kw):
        self.t = [0.0]
        kw.setdefault("threshold", 3)
        kw.setdefault("reset_s", 1.0)
        return CircuitBreaker(clock=lambda: self.t[0], **kw)

    def test_trips_after_consecutive_failures_only(self):
        b = self._breaker()
        b.record_failure()
        b.record_failure()
        b.record_success()  # streak broken
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open"
        assert b.snapshot()["trips"] == 1

    def test_open_rejects_until_reset_then_admits_one_probe(self):
        b = self._breaker(threshold=1)
        b.record_failure()
        assert not b.allow()
        self.t[0] = 0.99
        assert not b.allow()
        self.t[0] = 1.01
        assert b.allow()  # the half-open probe
        assert b.state == "half_open"
        assert not b.allow()  # second concurrent request still rejected

    def test_probe_success_closes(self):
        b = self._breaker(threshold=1)
        b.record_failure()
        self.t[0] = 2.0
        assert b.allow()
        b.record_success()
        assert b.state == "closed"
        assert b.allow() and b.allow()  # fully open for business

    def test_probe_failure_reopens_and_restarts_the_clock(self):
        b = self._breaker(threshold=1)
        b.record_failure()
        self.t[0] = 2.0
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        assert b.snapshot()["trips"] == 2
        self.t[0] = 2.5
        assert not b.allow()  # reset_s counts from the re-open
        self.t[0] = 3.5
        assert b.allow()

    def test_verdictless_probe_frees_the_slot(self):
        """A probe that ends with neither verdict is not a failure and not
        a success: the breaker stays half-open and the next request is the
        probe (it used to stay rejected for good)."""
        b = self._breaker(threshold=1)
        b.record_failure()
        self.t[0] = 2.0
        assert b.allow() and not b.allow()
        b.release_probe()
        assert b.state == "half_open" and b.snapshot()["trips"] == 1
        assert b.allow() and not b.allow()  # exactly one probe again
        b.record_success()
        assert b.state == "closed"
        b.release_probe()  # after a verdict, and when closed: a no-op
        assert b.state == "closed" and b.allow()

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestHealthyFederation:
    def test_equals_single_node_service(self, nodes, reference, queries):
        coord = FederatedCoordinator(seed=3)
        _register_all(coord, nodes)
        batch = coord.search_batch(list(queries), deadline_ms=10_000)
        single = reference.search_batch(list(queries))
        assert batch.coverage == 1.0
        for fed, ref in zip(batch.results, single):
            assert not fed.stats.get("degraded")
            assert sorted(fed.indexes) == sorted(ref.indexes)
        coord.close()

    def test_layout_is_contiguous_and_ordered(self, nodes):
        coord = FederatedCoordinator()
        receipts = [coord.add_node(n.url) for n in nodes]
        assert [r["offset"] for r in receipts] == [0, 6, 12]
        assert coord.n_datasets == N_TOTAL
        coord.remove_node(receipts[1]["node_id"])
        assert coord.n_datasets == N_TOTAL - 6
        # Node 2's slice slides down to keep the universe contiguous.
        batch = coord.search_batch(
            batched_query_workload(1, DIM, np.random.default_rng(0))
        )
        assert batch.results[0].bitmap.nbits == N_TOTAL - 6
        coord.close()

    def test_add_node_rejects_synopsis_count_mismatch(self, nodes):
        coord = FederatedCoordinator()
        ex = nodes[0].service.executor
        with pytest.raises(QueryError):
            coord.add_node(nodes[0].url, synopses=list(ex.synopses)[:-1])
        coord.close()

    def test_no_nodes_is_a_client_error(self):
        coord = FederatedCoordinator()
        (q,) = batched_query_workload(1, DIM, np.random.default_rng(0))
        with pytest.raises(QueryError):
            coord.search(q)
        coord.close()

    def test_a_replaced_scatter_pool_still_takes_legs(self):
        """A scatter that took the pool before the fleet outgrew it keeps
        submitting to it: widening must not shut it down under that
        scatter (it used to surface as an HTTP 500)."""
        coord = FederatedCoordinator()
        old = coord._ensure_pool(2)
        assert coord._ensure_pool(5) is not old
        assert old.submit(int).result() == 0
        coord.close()


class TestDegradedFederation:
    def test_dead_node_degrades_with_containment(
        self, nodes, reference, queries
    ):
        coord = FederatedCoordinator(
            seed=3, rpc_timeout_s=2.0, max_retries=1, backoff_base_s=0.01
        )
        _register_all(coord, nodes)
        nodes[1].kill()
        batch = coord.search_batch(list(queries), deadline_ms=10_000)
        assert batch.coverage == pytest.approx(2 / 3)
        statuses = {m["node_id"]: m["status"] for m in batch.nodes}
        assert statuses[1] == "unreachable"
        for fed, q in zip(batch.results, queries):
            assert fed.stats["degraded"]
            assert "node_unreachable" in fed.stats["degrade_reason"]
            _containment(fed, reference.search_batch([q])[0].indexes)
        coord.close()

    def test_dead_node_without_synopses_answers_full_maybe_band(
        self, nodes, queries
    ):
        coord = FederatedCoordinator(
            rpc_timeout_s=2.0, max_retries=0, backoff_base_s=0.01
        )
        for node in nodes:
            coord.add_node(node.url)  # no screens registered
        nodes[2].kill()
        batch = coord.search_batch([list(queries)[0]])
        result = batch.results[0]
        assert result.stats["degraded"]
        # The dead slice [12, 18) is entirely in the maybe band and
        # contributes nothing to must.
        dead = set(range(12, 18))
        assert dead <= set(result.maybe_bitmap.to_list())
        assert not dead & set(result.indexes)
        coord.close()

    def test_tiny_deadline_degrades_instead_of_failing(
        self, nodes, reference, queries
    ):
        coord = FederatedCoordinator(seed=3)
        _register_all(coord, nodes)
        q = list(queries)[0]
        batch = coord.search_batch([q], deadline_ms=1)
        result = batch.results[0]
        assert result.stats["degraded"]
        assert "budget_exhausted" in result.stats["degrade_reason"]
        _containment(result, reference.search_batch([q])[0].indexes)
        # Budget exhaustion is the caller's fault, not the nodes': no
        # breaker penalties accrued.
        for meta in coord.stats()["federation"]["nodes"]:
            assert meta["breaker"]["state"] == "closed"
        coord.close()

    def test_universe_drift_is_screened_not_mismerged(self, nodes, queries):
        coord = FederatedCoordinator(
            rpc_timeout_s=2.0, max_retries=0, backoff_base_s=0.01
        )
        # Lie about node 0's slice: it answers over 6 datasets but we
        # register 5.  The oversize answer must be rejected and screened,
        # never silently truncated into the wrong global bits.
        coord.add_node(nodes[0].url, n_datasets=5)
        coord.add_node(nodes[1].url)
        batch = coord.search_batch([list(queries)[0]])
        statuses = {m["node_id"]: m["status"] for m in batch.nodes}
        assert statuses[0] == "universe_drift"
        assert batch.results[0].stats["degraded"]
        coord.close()


class TestBreakerLifecycle:
    def test_trip_halfopen_close_recovery(self, nodes, reference, queries):
        coord = FederatedCoordinator(
            seed=3, rpc_timeout_s=2.0, max_retries=0,
            breaker_threshold=2, breaker_reset_s=0.3,
            backoff_base_s=0.01, hedge_delay_s=None,
        )
        _register_all(coord, nodes)
        q = list(queries)[0]
        exact = sorted(reference.search_batch([q])[0].indexes)

        # Fail every leg (node_rpc is process-global): two batches = two
        # consecutive failures per node = every breaker trips.
        faults.arm("node_rpc=raise")
        for _ in range(2):
            batch = coord.search_batch([q])
            assert batch.results[0].stats["degraded"]
        states = [
            m["breaker"]["state"]
            for m in coord.stats()["federation"]["nodes"]
        ]
        assert states == ["open", "open", "open"]

        # While open: no RPC even attempted (status breaker_open), still
        # a sound screened answer.
        faults.disarm()
        batch = coord.search_batch([q])
        assert {m["status"] for m in batch.nodes} == {"breaker_open"}
        _containment(batch.results[0], exact)

        # After reset_s the half-open probe goes through, closes the
        # breaker, and answers turn exact again.
        import time

        time.sleep(0.35)
        batch = coord.search_batch([q])
        assert not batch.results[0].stats.get("degraded")
        assert sorted(batch.results[0].indexes) == exact
        states = [
            m["breaker"]["state"]
            for m in coord.stats()["federation"]["nodes"]
        ]
        assert states == ["closed", "closed", "closed"]
        trips = coord.registry.counter_value(
            "repro_federation_breaker_trips_total", {"node": "0"}
        )
        assert trips == 1.0
        coord.close()

    def test_trip_closed_within_its_own_call_still_reaches_metrics(
        self, nodes, monkeypatch
    ):
        """A breaker that trips on one attempt and is closed by the next
        attempt's success never came through the retries-exhausted exit —
        the only place the registry used to mirror trips — so ``/metrics``
        stayed at zero while ``/stats`` said one."""
        coord = FederatedCoordinator(
            seed=3, rpc_timeout_s=2.0, max_retries=1, breaker_threshold=3,
            backoff_base_s=0.001, hedge_delay_s=None,
        )
        coord.add_node(nodes[0].url)
        script = iter([False, False, False])  # call A: 2 failures; B: 1, then ok
        real_call = federation.http_call

        def flaky_call(url, body=None, timeout=None):
            if next(script, True):
                return real_call(url, body, timeout=timeout)
            raise OSError("scripted failure")

        monkeypatch.setattr(federation, "http_call", flaky_call)
        q = [batched_query_workload(1, DIM, np.random.default_rng(5))[0]]
        assert coord.search_batch(q).nodes[0]["status"] == "unreachable"
        assert coord.search_batch(q).nodes[0]["status"] == "ok"
        breaker = coord.stats()["federation"]["nodes"][0]["breaker"]
        assert (breaker["state"], breaker["trips"]) == ("closed", 1)
        assert (
            'repro_federation_breaker_trips_total{node="0"} 1'
            in coord.registry.render().splitlines()
        )
        coord.close()

    @staticmethod
    def _tripped_then_healed(nodes, **kw):
        """A coordinator whose only node failed once (breaker open) and is
        back up, with ``reset_s`` already elapsed: the next call is the
        half-open probe."""
        import time

        coord = FederatedCoordinator(
            seed=3, rpc_timeout_s=2.0, max_retries=0, breaker_threshold=1,
            breaker_reset_s=0.05, backoff_base_s=0.01, hedge_delay_s=None,
        )
        coord.add_node(nodes[0].url, **kw)
        nodes[0].kill()
        q = [batched_query_workload(1, DIM, np.random.default_rng(5))[0]]
        assert coord.search_batch(q).nodes[0]["status"] == "unreachable"
        assert coord.stats()["federation"]["nodes"][0]["breaker"]["state"] == "open"
        nodes[0].restart()
        time.sleep(0.1)
        return coord, q

    def test_budget_exhausted_probe_does_not_wedge_the_breaker(self, nodes):
        """The probe slot is taken, the deadline budget is gone before
        attempt 0, no verdict is recorded — the node must still be tried
        by the next request ("missing sellers is generally unacceptable")."""
        coord, q = self._tripped_then_healed(nodes)
        batch = coord.search_batch(q, deadline_ms=0.5)
        assert batch.nodes[0]["status"] == "budget_exhausted"
        breaker = coord.stats()["federation"]["nodes"][0]["breaker"]
        assert breaker["state"] == "half_open" and breaker["trips"] == 1
        batch = coord.search_batch(q)
        assert batch.nodes[0]["status"] == "ok"
        assert not batch.results[0].stats.get("degraded")
        assert coord.stats()["federation"]["nodes"][0]["breaker"]["state"] == "closed"
        coord.close()

    def test_drifted_probe_does_not_wedge_the_breaker(self, nodes):
        """Same exit through ``universe_drift``: the reply is unusable but
        the node is alive, so the probe ends without a verdict and every
        later request reaches the node again instead of ``breaker_open``."""
        coord, q = self._tripped_then_healed(nodes, n_datasets=5)
        for _ in range(3):
            batch = coord.search_batch(q)
            assert batch.nodes[0]["status"] == "universe_drift"
        breaker = coord.stats()["federation"]["nodes"][0]["breaker"]
        assert breaker["state"] == "half_open" and breaker["trips"] == 1
        coord.close()


class TestCoordinatorHTTP:
    @pytest.fixture()
    def fed_url(self, nodes):
        coord = FederatedCoordinator(
            seed=3, rpc_timeout_s=2.0, max_retries=0, backoff_base_s=0.01
        )
        httpd = make_federation_server(coord, host="127.0.0.1", port=0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        host, port = httpd.server_address
        yield f"http://{host}:{port}", coord
        httpd.shutdown()
        httpd.server_close()
        coord.close()

    def _post(self, url, payload, method="POST"):
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()

    def test_full_lifecycle_over_http(
        self, fed_url, nodes, lake, reference, queries
    ):
        url, _coord = fed_url
        # Register all nodes over the wire, synopses in serialized form.
        # The executor's own exact synopses hold raw data and have no wire
        # format by design; a marketplace seller publishes compact sketches
        # instead (here: quantile histograms over each slice).
        per = N_TOTAL // N_NODES
        rng = np.random.default_rng(SEED + 9)
        for ni, node in enumerate(nodes):
            sketches = [
                QuantileHistogramSynopsis(arr, rng=rng)
                for arr in lake[ni * per:(ni + 1) * per]
            ]
            status, receipt = self._post(
                f"{url}/nodes",
                {
                    "url": node.url,
                    "synopses": [synopsis_to_dict(s) for s in sketches],
                },
            )
            assert status == 200 and receipt["synopses_registered"]

        status, health = self._get(f"{url}/healthz")
        health = json.loads(health)
        assert health["n_nodes"] == N_NODES
        assert health["n_datasets"] == N_TOTAL

        q = list(queries)[0]
        exact = sorted(reference.search_batch([q])[0].indexes)
        status, body = self._post(
            f"{url}/search", {"expression": expression_to_json(q)}
        )
        assert status == 200
        assert sorted(body["indexes"]) == exact
        assert body["federation"]["coverage"] == 1.0

        # Kill a node: still 200, degraded fields on the wire.
        nodes[0].kill()
        status, body = self._post(
            f"{url}/search/batch",
            {
                "expressions": [expression_to_json(q)],
                "format": "bitset",
                "deadline_ms": 5000,
            },
        )
        assert status == 200
        one = body["results"][0]
        assert one["degraded"] and "maybe_bitset" in one
        assert body["federation"]["coverage"] == pytest.approx(2 / 3)

        # Deregister the corpse: answers come back exact over 12 datasets.
        dead_id = next(
            m["node_id"]
            for m in body["federation"]["nodes"]
            if m["status"] != "ok"
        )
        status, receipt = self._post(
            f"{url}/nodes", {"node_id": dead_id}, method="DELETE"
        )
        assert status == 200 and receipt["removed"]
        status, body = self._post(
            f"{url}/search", {"expression": expression_to_json(q)}
        )
        assert status == 200
        assert "degraded" not in body
        assert body["federation"]["n_datasets"] == N_TOTAL - 6

    def test_stats_and_metrics_expose_node_health(self, fed_url, nodes, queries):
        url, _coord = fed_url
        for node in nodes:
            self._post(f"{url}/nodes", {"url": node.url})
        q = list(queries)[0]
        self._post(
            f"{url}/search/batch",
            {"expressions": [expression_to_json(q)]},
        )
        status, stats = self._get(f"{url}/stats")
        stats = json.loads(stats)
        per_node = stats["federation"]["nodes"]
        assert len(per_node) == N_NODES
        assert all(n["breaker"]["state"] == "closed" for n in per_node)
        assert all(n["ok_calls"] >= 1 for n in per_node)
        status, text = self._get(f"{url}/metrics")
        text = text.decode()
        for metric in (
            "repro_federation_node_seconds",
            "repro_federation_requests_total",
            "repro_federation_stage_seconds",
            "repro_federation_nodes 3",
        ):
            assert metric in text, metric

    def test_node_400_is_not_a_node_failure(
        self, fed_url, nodes, reference, queries
    ):
        # One buyer's typo must not make a seller "missing" for everyone:
        # the (1-D) nodes answer a 2-D query with 400, which the
        # coordinator relays instead of counting three node failures,
        # opening three breakers and answering 200/degraded.  (The other
        # client-error statuses live in test_http_edge.py's table.)
        url, coord = fed_url
        for node in nodes:
            self._post(f"{url}/nodes", {"url": node.url})
        typo = {"op": "ptile", "lo": [0, 0], "hi": [0.5, 0.5], "theta": [0.2]}
        for _ in range(coord.breaker_threshold + 1):
            status, body = self._post(f"{url}/search", {"expression": typo})
            assert status == 400 and "has dim 2" in body["error"]
        for node in coord.stats()["federation"]["nodes"]:
            assert node["breaker"]["state"] == "closed"
            assert node["breaker"]["consecutive_failures"] == 0
            assert node["failed_calls"] == 0 and node["retries"] == 0
        q = list(queries)[0]
        status, body = self._post(
            f"{url}/search", {"expression": expression_to_json(q)}
        )
        assert status == 200 and "degraded" not in body
        assert body["indexes"] == sorted(reference.search_batch([q])[0].indexes)
        assert body["federation"]["coverage"] == 1.0
        # The library surface raises what the HTTP edge maps to that 400.
        with pytest.raises(QueryError, match="has dim 2"):
            coord.search_batch([expression_from_json(typo)])


def _stage_counts(coord):
    """``{stage: count}`` of ``repro_federation_stage_seconds``."""
    counts = {}
    for line in coord.registry.render().splitlines():
        if line.startswith("repro_federation_stage_seconds_count{"):
            name, _, value = line.rpartition(" ")
            counts[name.split('stage="')[1].split('"')[0]] = int(value)
    return counts


def _with_undrawn_outlier(executor, points):
    """``points`` with one row the executor's next coreset does not draw
    moved far outside its box (rows are drawn by position)."""
    drawn = SeededSampleSynopsis(
        ExactSynopsis(points), executor.seed, executor.n_datasets
    ).sample(executor.sample_size, np.random.default_rng(0))
    spare = next(i for i, p in enumerate(points) if not (drawn == p).all(1).any())
    out = np.array(points, dtype=float)
    out[spare] = executor.bounding_box.hi + 100.0
    return out


class TestNodeFrame:
    """``federated_node_service`` hands the service seeded synopses and
    nothing else: the executor keeps the global index each one carries."""

    @pytest.fixture()
    def node(self, lake):
        per = N_TOTAL // N_NODES
        box = Repository.from_arrays(lake).bounding_box()
        svc = _node_service(lake[per:2 * per], per, N_TOTAL, box)
        yield svc
        svc.close()

    def test_answers_survive_rebuild_and_snapshot(self, node, queries, tmp_path):
        per = N_TOTAL // N_NODES
        global_ids = list(range(per, 2 * per))
        before = [r.indexes for r in node.search_batch(list(queries))]
        assert [s.index for s in node.executor.synopses] == global_ids
        node.rebuild()
        assert [s.index for s in node.executor.synopses] == global_ids
        assert [r.indexes for r in node.search_batch(list(queries))] == before
        node.save(tmp_path / "node.snap")
        loaded = QueryService.load(tmp_path / "node.snap")
        assert [s.index for s in loaded.executor.synopses] == global_ids
        assert [r.indexes for r in loaded.search_batch(list(queries))] == before
        loaded.rebuild()
        assert [r.indexes for r in loaded.search_batch(list(queries))] == before
        loaded.close()

    def test_fits_is_the_exact_coreset_check(self, node, reference, lake):
        """A dataset whose *coreset* lies in the box is admitted even where
        a raw point does not — what a single service already does (the node
        used to check the raw points and refuse)."""
        for svc in (reference, node):
            ex = svc.executor
            outlier = _with_undrawn_outlier(ex, lake[0])
            assert not ex.bounding_box.contains_points(outlier).all()
            assert ex.fits(ExactSynopsis(outlier))
        receipt = node.add_datasets([outlier])
        assert receipt["rebuilt"] is False and receipt["delta_size"] == 1


class TestTracing:
    @pytest.mark.parametrize("tracing", [False, True])
    def test_each_stage_is_observed_once_per_batch(self, nodes, queries, tracing):
        """The stage family is fed in one place: with tracing on, the
        tracer used to observe ``merge`` a second time (and grow
        ``federated_batch`` / ``scatter`` series the HELP line never named)."""
        coord = FederatedCoordinator(seed=3, tracing=tracing)
        _register_all(coord, nodes)
        k = 3
        for _ in range(k):
            batch = coord.search_batch([list(queries)[0]])
        assert _stage_counts(coord) == {"gather": k, "merge": k}
        if tracing:
            assert batch.trace["name"] == "federated_batch"
            assert [c["name"] for c in batch.trace["children"]] == ["scatter", "merge"]
        else:
            assert batch.trace is None
        coord.close()

    def test_spans_cover_scatter_gather_merge(self, nodes, queries):
        coord = FederatedCoordinator(seed=3, tracing=True)
        _register_all(coord, nodes)
        batch = coord.search_batch([list(queries)[0]])
        assert batch.trace is not None
        assert batch.trace["name"] == "federated_batch"
        children = {c["name"] for c in batch.trace.get("children", [])}
        assert {"scatter", "merge"} <= children
        meta = batch.meta()
        assert "trace" in meta
        coord.close()
