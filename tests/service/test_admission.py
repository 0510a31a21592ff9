"""Admission control: the inflight gate and its 429 shedding behavior."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from peers import serving

from repro.core.framework import Repository
from repro.errors import ConstructionError
from repro.service import QueryService, admission, faults
from repro.service.admission import AdmissionGate
from repro.service.server import expression_to_json, make_server
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

SEED = 47
DIM = 1


class TestGateUnit:
    def test_admits_up_to_max_inflight(self):
        gate = AdmissionGate(max_inflight=2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_release_wakes_queued_waiter(self, monkeypatch):
        monkeypatch.setattr(admission, "QUEUE_TIMEOUT_S", 5.0)
        gate = AdmissionGate(max_inflight=1, max_queue=1)
        assert gate.try_acquire()
        got = []

        def waiter():
            got.append(gate.try_acquire())

        t = threading.Thread(target=waiter)
        t.start()
        # the waiter parks in the queue, then the release admits it
        deadline = 50
        while gate.snapshot()["queued"] == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        gate.release()
        t.join(timeout=5)
        assert got == [True]

    def test_queue_overflow_sheds_immediately(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        assert gate.try_acquire()
        assert not gate.try_acquire()
        assert gate.snapshot()["shed"] == 1

    def test_queue_timeout_sheds(self, monkeypatch):
        monkeypatch.setattr(admission, "QUEUE_TIMEOUT_S", 0.05)
        gate = AdmissionGate(max_inflight=1, max_queue=1)
        assert gate.try_acquire()
        assert not gate.try_acquire()  # waits 50ms, then shed
        snap = gate.snapshot()
        assert snap["shed"] == 1
        assert snap["queued_total"] == 1
        assert snap["queued"] == 0

    @pytest.mark.parametrize(
        "kwargs", [{"max_inflight": 0}, {"max_inflight": 1, "max_queue": -1}]
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConstructionError):
            AdmissionGate(**kwargs)

    def test_snapshot_counters(self):
        gate = AdmissionGate(max_inflight=1)
        gate.try_acquire()
        gate.try_acquire()
        gate.release()
        snap = gate.snapshot()
        assert snap["admitted"] == 1
        assert snap["shed"] == 1
        assert snap["inflight"] == 0


class TestServerIntegration:
    @pytest.fixture()
    def server(self, monkeypatch):
        monkeypatch.setattr(admission, "RETRY_AFTER_S", 2.0)
        lake = synthetic_data_lake(
            8, DIM, np.random.default_rng(SEED), median_size=60
        )
        svc = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=2,
            eps=0.2,
            sample_size=8,
            seed=SEED,
        )
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        with serving(make_server(svc, port=0, gate=gate)) as url:
            yield url, svc
            faults.disarm()
        svc.close()

    def _post(self, url, payload):
        req = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=15) as resp:
                return resp.status, json.loads(resp.read()), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)

    def test_overload_sheds_with_429_and_retry_after(self, server):
        url, svc = server
        (query,) = batched_query_workload(
            1, DIM, np.random.default_rng(SEED + 1)
        )
        payload = {"expression": expression_to_json(query)}
        # Park one request in the handler so the gate is full, then race
        # two more against it: with max_inflight=1 and no queue at least
        # one must shed (deterministically, since the parked request
        # sleeps far longer than the race window).
        faults.arm("handler=sleep:0.6")
        results = []

        def worker():
            results.append(self._post(f"{url}/search", payload))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        faults.disarm()
        codes = sorted(r[0] for r in results)
        assert codes.count(200) >= 1
        assert codes.count(429) >= 1
        shed = next(r for r in results if r[0] == 429)
        _code, body, headers = shed
        assert "retry" in body["error"] or "capacity" in body["error"]
        assert body["retry_after_s"] == 2.0
        assert headers.get("Retry-After") == "2"

    def test_health_and_stats_are_never_gated(self, server):
        url, svc = server
        (query,) = batched_query_workload(
            1, DIM, np.random.default_rng(SEED + 2)
        )
        payload = {"expression": expression_to_json(query)}
        faults.arm("handler=sleep:0.6")
        blocker = threading.Thread(
            target=lambda: self._post(f"{url}/search", payload)
        )
        blocker.start()
        try:
            # While the only slot is taken, monitoring must still answer.
            with urllib.request.urlopen(f"{url}/healthz", timeout=5) as resp:
                assert resp.status == 200
            with urllib.request.urlopen(f"{url}/stats", timeout=5) as resp:
                stats = json.loads(resp.read())
            assert stats["admission"]["max_inflight"] == 1
        finally:
            blocker.join()
            faults.disarm()

    def test_shed_counter_in_stats_and_metrics(self, server):
        url, svc = server
        (query,) = batched_query_workload(
            1, DIM, np.random.default_rng(SEED + 3)
        )
        payload = {"expression": expression_to_json(query)}
        faults.arm("handler=sleep:0.6")
        results = []

        def worker():
            results.append(self._post(f"{url}/search", payload))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        faults.disarm()
        n_shed = sum(1 for r in results if r[0] == 429)
        assert n_shed >= 1
        with urllib.request.urlopen(f"{url}/stats", timeout=5) as resp:
            stats = json.loads(resp.read())
        assert stats["resilience"]["requests_shed"] >= n_shed
        assert stats["admission"]["shed"] >= n_shed
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
            text = resp.read().decode()
        assert "repro_requests_shed_total" in text


class TestRetryAfterClient:
    """The bench/chaos HTTP client treats 429 + Retry-After as 'wait and
    resend', so shed requests succeed on the retry instead of polluting
    the chaos suites' status counts."""

    def _shedding_server(self, shed_first_n: int, retry_after: str = "1"):
        """A tiny server answering 429 (with Retry-After) N times, then 200,
        and its count of POSTs seen."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        seen = {"posts": 0}

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                seen["posts"] += 1
                if seen["posts"] <= shed_first_n:
                    body = b'{"error": "overloaded"}'
                    self.send_response(429)
                    self.send_header("Retry-After", retry_after)
                else:
                    body = b'{"ok": true}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        return ThreadingHTTPServer(("127.0.0.1", 0), Handler), seen

    def test_retries_past_429_and_succeeds(self):
        from repro.bench.harness import http_post_json

        httpd, seen = self._shedding_server(2, retry_after="0")
        with serving(httpd) as url:
            status = http_post_json(
                f"{url}/search/batch", b"{}", timeout=5, retries_429=3
            )
        assert status == 200
        assert seen["posts"] == 3  # two sheds honored, third send won

    def test_gives_up_after_retry_budget(self):
        from repro.bench.harness import http_post_json

        httpd, seen = self._shedding_server(10, retry_after="0")
        with serving(httpd) as url:
            status = http_post_json(
                f"{url}/search/batch", b"{}", timeout=5, retries_429=2
            )
        assert status == 429
        assert seen["posts"] == 3  # initial send + 2 retries

    def test_stop_event_aborts_backoff_sleep(self):
        import time as _time

        from repro.bench.harness import http_post_json

        # Retry-After of 30s must not hold the client hostage when the
        # traffic loop is being torn down.
        httpd, _seen = self._shedding_server(10, retry_after="30")
        stop = threading.Event()
        threading.Timer(0.2, stop.set).start()
        t0 = _time.perf_counter()
        with serving(httpd) as url:
            status = http_post_json(
                f"{url}/search/batch", b"{}", timeout=5, retries_429=3,
                retry_after_cap_s=30.0, stop=stop,
            )
        assert status == 429
        assert _time.perf_counter() - t0 < 5.0
