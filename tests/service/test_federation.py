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
import time
import urllib.error
import urllib.request

import numpy as np
import peers
import pytest

from repro.core.bitset import DatasetBitmap
from repro.errors import QueryError
from repro.service import QueryService, faults, federation
from repro.service.federation import (
    CircuitBreaker,
    FederatedCoordinator,
    make_federation_server,
)
from repro.service.server import expression_from_json, expression_to_json
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
#: The global frame every node and the reference share.
FRAME = dict(seed=1, n_shards=2, eps=0.2, sample_size=8)


@pytest.fixture(autouse=True)
def disarmed():
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def lake():
    return synthetic_data_lake(
        N_TOTAL, DIM, np.random.default_rng(SEED), family="clustered",
        median_size=90,
    )


@pytest.fixture(scope="module")
def queries():
    return batched_query_workload(6, DIM, np.random.default_rng(SEED + 1))


@pytest.fixture()
def fed(lake):
    """In-process nodes over the lake, a coordinator, and a single service
    over the whole lake: the exactness oracle."""
    with peers.federation(lake, N_NODES, **FRAME) as built:
        yield built


@pytest.fixture()
def nodes(fed):
    return fed[0]


@pytest.fixture()
def reference(fed):
    return fed[2]


def _register_all(coord, nodes):
    for node in nodes:
        coord.add_node(node.url)


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
        trips = [b.record_failure(), b.record_failure()]
        b.record_success()  # streak broken
        trips += [b.record_failure(), b.record_failure()]
        assert b.state == "closed"
        trips.append(b.record_failure())
        assert b.state == "open"
        assert trips == [False, False, False, False, True]  # one trip

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
        assert b.record_failure()
        self.t[0] = 2.0
        assert b.allow()
        assert b.record_failure()  # the second trip
        assert b.state == "open"
        self.t[0] = 2.5
        assert not b.allow()  # reset_s counts from the re-open
        self.t[0] = 3.5
        assert b.allow()

    def test_verdictless_probe_frees_the_slot(self):
        """A probe that ends with neither verdict is not a failure and not
        a success: the breaker stays half-open and the next request is the
        probe (it used to stay rejected for good)."""
        b = self._breaker(threshold=1)
        assert b.record_failure()
        self.t[0] = 2.0
        assert b.allow() and not b.allow()
        b.release_probe()
        assert b.state == "half_open"
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

    def test_no_nodes_is_a_client_error(self):
        coord = FederatedCoordinator()
        (q,) = batched_query_workload(1, DIM, np.random.default_rng(0))
        with pytest.raises(QueryError):
            coord.search(q)
        coord.close()

    def test_batches_answer_whole_while_the_fleet_grows(self, nodes, queries):
        """Batches in flight on four threads while nodes register, 1 → 3,
        each answer the layout they took, whole (registering used to
        replace a shared scatter pool under a scatter: an HTTP 500)."""
        coord = FederatedCoordinator()
        coord.add_node(nodes[0].url)
        stop = threading.Event()
        widths, errors = [], []

        def client():
            try:
                while not stop.is_set():
                    batch = coord.search_batch(list(queries))
                    assert batch.coverage == 1.0, batch.nodes
                    widths.append(len(batch.nodes))
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        def answered(width):
            deadline = time.monotonic() + 30.0
            while widths.count(width) < 4 and not errors:
                assert time.monotonic() < deadline, f"no batch at width {width}"
                time.sleep(0.001)

        clients = [threading.Thread(target=client) for _ in range(4)]
        for t in clients:
            t.start()
        try:
            answered(1)
            for node in nodes[1:]:
                coord.add_node(node.url)
            answered(3)
        finally:
            stop.set()
            for t in clients:
                t.join()
        assert not errors, errors[0]
        assert set(widths) <= {1, 2, 3}

    def test_no_scatter_thread_outlives_its_batch(self, nodes, queries):
        coord = FederatedCoordinator()
        _register_all(coord, nodes)
        coord.search_batch(list(queries))
        left = [t.name for t in threading.enumerate()]
        assert not [n for n in left if n.startswith("fed-scatter")], left


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

    def test_every_dead_slice_is_wholly_maybe(self, nodes, reference, queries):
        coord = FederatedCoordinator(
            rpc_timeout_s=2.0, max_retries=0, backoff_base_s=0.01
        )
        _register_all(coord, nodes)
        per = N_TOTAL // N_NODES
        dead_ids = (0, 2)
        for ni in dead_ids:
            nodes[ni].kill()
        dead = [set(range(ni * per, (ni + 1) * per)) for ni in dead_ids]
        live = set(range(1 * per, 2 * per))
        batch = coord.search_batch(list(queries))
        assert batch.coverage == pytest.approx(1 / 3)
        for result, q in zip(batch.results, queries):
            assert result.stats["degraded"]
            must = set(result.indexes)
            maybe = set(result.maybe_bitmap.to_list())
            exact = set(reference.search_batch([q])[0].indexes)
            # Each dead slice is entirely in the maybe band and contributes
            # nothing to must; the live slice is answered exactly.
            for sl in dead:
                assert sl <= maybe
                assert not sl & must
            assert must == exact & live
            assert not maybe & live
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


    def test_each_node_event_is_counted_once(self, lake, queries):
        """``/stats`` reads its per-node counts from the registry that
        ``/metrics`` renders: a retry, a failed call and its degraded
        slice are each one event, stated once."""
        coord = FederatedCoordinator(
            rpc_timeout_s=2.0, max_retries=1, backoff_base_s=0.01,
            hedge_delay_s=None,
        )
        with peers.federation(lake, 2, coord, **FRAME) as (nodes, _, _ref):
            nodes[1].kill()
            batch = coord.search_batch(list(queries))
            assert [m["screened"] for m in batch.nodes] == [False, True]
            per_node = coord.stats()["federation"]["nodes"]
            samples = {}
            for line in coord.registry.render().splitlines():
                if not line.startswith("#"):
                    name, _, value = line.rpartition(" ")
                    samples[name] = float(value)
        dead = per_node[1]
        assert dead["retries"] == 1
        assert dead["degraded_served"] == dead["failed_calls"] == 1
        assert dead["last_error"] and per_node[0]["ok_calls"] == 1
        for node in per_node:
            label = f'node="{node["node_id"]}"'
            for key, sample in (
                ("ok_calls", 'node_attempts_total{%s,outcome="ok"}'),
                ("retries", "retries_total{%s}"),
                ("hedges", "hedges_total{%s}"),
                ("degraded_served", "degraded_nodes_total{%s}"),
                ("failed_calls", "degraded_nodes_total{%s}"),
            ):
                name = "repro_federation_" + sample % label
                assert node[key] == samples.get(name, 0), (key, name)


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


#: The scripted node's slice.
N_SCRIPTED = 4


class ScriptedRPC:
    """A stand-in for :func:`repro.service.federation.http_call`.  The i-th
    RPC sleeps ``steps[i][0]`` seconds, then raises ``steps[i][1]`` (an
    exception) or answers it (the member ids of a one-result bitset reply).
    A call past the script hangs until :meth:`release`, then fails."""

    def __init__(self, *steps) -> None:
        self.steps = list(steps)
        self.calls = 0
        self._lock = threading.Lock()
        self._released = threading.Event()
        self.returned = threading.Semaphore(0)

    def __call__(self, url, body=None, timeout=None):
        with self._lock:
            step = self.steps[self.calls] if self.calls < len(self.steps) else None
            self.calls += 1
        try:
            if step is None:
                self._released.wait(10.0)
                raise OSError("released")
            delay, outcome = step
            time.sleep(delay)
            if isinstance(outcome, BaseException):
                raise outcome
            bits = DatasetBitmap.from_indices(outcome, N_SCRIPTED).to_wire()
            return 200, json.dumps({"results": [{"bitset": bits}]}).encode()
        finally:
            self.returned.release()

    def release(self) -> None:
        self._released.set()


class TestHedgedRound:
    """What one attempt round promises, whatever carries it: at most one
    hedge, on the first attempt only, the first success wins, and a hung
    attempt costs its round timeout, not its hang."""

    @staticmethod
    def _coordinator(monkeypatch, rpc, **kw):
        monkeypatch.setattr(federation, "http_call", rpc)
        coord = FederatedCoordinator(
            seed=3, backoff_base_s=0.001, backoff_max_s=0.002, **kw
        )
        coord.add_node("http://127.0.0.1:9", n_datasets=N_SCRIPTED)
        query = batched_query_workload(1, DIM, np.random.default_rng(5))[0]
        return coord, query

    @staticmethod
    def _node(coord):
        return coord.stats()["federation"]["nodes"][0]

    def test_a_straggler_gets_one_hedge_and_the_first_success_wins(
        self, monkeypatch
    ):
        rpc = ScriptedRPC((0.2, [0]), (0.0, [1]))
        coord, query = self._coordinator(
            monkeypatch, rpc, rpc_timeout_s=2.0, max_retries=1, hedge_delay_s=0.1
        )
        batch = coord.search_batch([query])
        assert batch.nodes[0]["status"] == "ok"
        assert batch.results[0].indexes == [1]  # the hedge answered first
        # The straggler's late success is abandoned: it changes no count.
        assert all(rpc.returned.acquire(timeout=2.0) for _ in range(2))
        node = self._node(coord)
        assert rpc.calls == 2
        # ``hedges`` reads repro_federation_hedges_total{node="0"}.
        assert (node["hedges"], node["retries"], node["ok_calls"]) == (1, 0, 1)
        # The winner's own latency: under the hedge delay, so neither the
        # round's (>= 0.1 s) nor the straggler's (>= 0.2 s).
        assert node["last_latency_ms"] < 100.0
        coord.close()

    def test_a_primary_that_fails_early_is_retried_not_hedged(self, monkeypatch):
        # The retry is slower than the hedge delay too: a retry is never hedged.
        rpc = ScriptedRPC((0.0, OSError("refused")), (0.1, [2]))
        coord, query = self._coordinator(
            monkeypatch, rpc, rpc_timeout_s=2.0, max_retries=1, hedge_delay_s=0.05
        )
        batch = coord.search_batch([query])
        assert batch.nodes[0]["status"] == "ok"
        assert batch.results[0].indexes == [2]
        node = self._node(coord)
        assert rpc.calls == 2
        assert (node["hedges"], node["retries"], node["ok_calls"]) == (0, 1, 1)
        assert coord.registry.counter_value(
            "repro_federation_node_attempts_total", {"node": "0", "outcome": "error"}
        ) == 1
        coord.close()

    def test_hung_attempts_are_abandoned_at_the_round_timeout(self, monkeypatch):
        rpc = ScriptedRPC()  # every call hangs
        coord, query = self._coordinator(
            monkeypatch, rpc, rpc_timeout_s=0.2, max_retries=1, hedge_delay_s=0.05
        )
        try:
            t0 = time.perf_counter()
            batch = coord.search_batch([query])
            elapsed = time.perf_counter() - t0
        finally:
            rpc.release()
        assert batch.nodes[0]["status"] == "unreachable"
        result = batch.results[0]
        assert result.stats["degraded"] and not result.indexes
        assert result.maybe_bitmap.to_list() == list(range(N_SCRIPTED))
        # Two rounds of 0.2 s plus a backoff of at most 2 ms, with room for
        # the scheduler; the hang itself lasts 10 s.
        assert elapsed < 2 * 0.2 + 0.002 + 0.5, elapsed
        node = self._node(coord)
        # The first round's primary and its one hedge (the round outlasts
        # three more hedge delays), then one unhedged retry.
        assert rpc.calls == 3
        assert (node["hedges"], node["retries"], node["ok_calls"]) == (1, 1, 0)
        assert all(rpc.returned.acquire(timeout=2.0) for _ in range(3))
        coord.close()

    def test_no_hedge_delay_never_hedges(self, monkeypatch):
        rpc = ScriptedRPC((0.2, [3]))
        coord, query = self._coordinator(
            monkeypatch, rpc, rpc_timeout_s=2.0, max_retries=1, hedge_delay_s=None
        )
        batch = coord.search_batch([query])
        assert batch.results[0].indexes == [3]
        node = self._node(coord)
        assert rpc.calls == 1
        assert (node["hedges"], node["retries"], node["ok_calls"]) == (0, 0, 1)
        coord.close()


class TestCoordinatorHTTP:
    @pytest.fixture()
    def fed_url(self, nodes):
        coord = FederatedCoordinator(
            seed=3, rpc_timeout_s=2.0, max_retries=0, backoff_base_s=0.01
        )
        with peers.serving(make_federation_server(coord, port=0)) as url:
            yield url, coord
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
        self, fed_url, nodes, reference, queries
    ):
        url, _coord = fed_url
        for node in nodes:
            status, _receipt = self._post(f"{url}/nodes", {"url": node.url})
            assert status == 200

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

    def test_registration_ignores_the_retired_synopsis_fields(
        self, fed_url, nodes, lake
    ):
        """``synopses`` / ``eps`` / ``eps_effective`` no longer feed a
        screen: a body that still carries them registers like a bare one
        (unknown keys are ignored), however malformed they are, and the
        node's dead slice is still wholly *maybe*."""
        url, coord = fed_url
        per = N_TOTAL // N_NODES
        rng = np.random.default_rng(SEED + 9)
        sketches = [QuantileHistogramSynopsis(arr, rng=rng) for arr in lake[:per]]
        legacy = [
            {"synopses": [synopsis_to_dict(s) for s in sketches],
             "eps": 0.2, "eps_effective": 0.5},
            {"synopses": ["xx", 7], "eps": -1, "eps_effective": "a"},
        ]
        bare = {"node_id", "url", "n_datasets", "offset", "total_datasets"}
        for node, extra in zip(nodes, legacy):
            status, receipt = self._post(
                f"{url}/nodes", {"url": node.url, **extra}
            )
            assert status == 200, receipt
            assert set(receipt) == bare
            assert receipt["n_datasets"] == per
        assert coord.n_nodes == 2
        nodes[0].kill()
        (q,) = batched_query_workload(1, DIM, np.random.default_rng(0))
        result = coord.search_batch([q]).results[0]
        assert set(range(per)) <= set(result.maybe_bitmap.to_list())
        assert not set(range(per)) & set(result.indexes)

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
    def node(self, nodes):
        return nodes[1].service

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
            assert ex.fits(ExactSynopsis(outlier), index=ex.n_datasets)
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
