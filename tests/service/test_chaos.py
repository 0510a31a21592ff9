"""Chaos suite: kill workers under live traffic, watch the fleet heal.

The acceptance bar from the resilience issue: killing a non-writer
worker under load yields **zero HTTP 5xx** (in-flight connections on the
killed process may reset — that is a transport error, not a served
error), the slot respawns on the current snapshot generation within the
backoff bound, and writer death promotes a sibling so ingest keeps
working.  Skipped cleanly on platforms without ``os.fork``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.bench.harness import http_post_json
from repro.core.framework import Repository
from repro.service import QueryService, faults, supervisor
from repro.service.server import expression_to_json
from repro.service.snapshot import generation_of
from repro.service.supervisor import ServiceSupervisor, fork_available
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="chaos suite needs os.fork"
)

SEED = 53
DIM = 1


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def workload():
    lake = synthetic_data_lake(
        10, DIM, np.random.default_rng(SEED), median_size=60
    )
    queries = batched_query_workload(4, DIM, np.random.default_rng(SEED + 1))
    return lake, queries


@pytest.fixture()
def snapshot(workload, tmp_path):
    lake, queries = workload
    svc = QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2,
        seed=SEED,
        eps=0.2,
        sample_size=12,
        capacity=24,
    )
    svc.warm()
    path = tmp_path / "svc.snap"
    svc.save(path)
    svc.close()
    return path, queries


class _Traffic:
    """Background request loop recording HTTP statuses and transport errors."""

    def __init__(self, url: str, queries) -> None:
        self.url = url
        self.payload = json.dumps(
            {"expressions": [expression_to_json(q) for q in queries]}
        ).encode()
        self.statuses: list[int] = []
        self.transport_errors = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                # 429 shedding is honored (sleep Retry-After, resend)
                # rather than recorded: the chaos assertions are about
                # crashes, and backpressure is not a crash.
                self.statuses.append(
                    http_post_json(
                        f"{self.url}/search/batch",
                        self.payload,
                        timeout=10,
                        stop=self._stop,
                    )
                )
            except (urllib.error.URLError, ConnectionError, OSError):
                # A connection that landed on the corpse: reset, not served.
                self.transport_errors += 1
            time.sleep(0.01)

    def __enter__(self) -> "_Traffic":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def _wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestChaos:
    def test_kill_nonwriter_under_traffic_zero_5xx(self, snapshot):
        path, queries = snapshot
        sup = ServiceSupervisor(
            path, workers=3, poll_interval=0.1, monitor_interval=0.05,
            backoff_base=0.1, quiet=True,
        )
        try:
            host, port = sup.start()
            victim = sup.pids[2]
            with _Traffic(f"http://{host}:{port}", queries) as traffic:
                assert _wait_for(lambda: len(traffic.statuses) >= 5)
                os.kill(victim, signal.SIGKILL)
                assert _wait_for(
                    lambda: sup.health()["workers"][2]["alive"]
                    and sup.health()["workers"][2]["restarts"] == 1
                ), f"slot 2 never respawned: {sup.health()}"
                # keep traffic flowing over the healed fleet for a while
                settled = len(traffic.statuses)
                assert _wait_for(
                    lambda: len(traffic.statuses) >= settled + 10
                )
            assert traffic.statuses, "traffic loop never completed a request"
            fivexx = [s for s in traffic.statuses if s >= 500]
            assert fivexx == [], f"served 5xx during chaos: {fivexx}"
            assert sup.pids[2] != victim
        finally:
            sup.stop()

    def test_respawn_rejoins_current_generation(self, snapshot):
        path, queries = snapshot
        sup = ServiceSupervisor(
            path, workers=2, poll_interval=0.1, monitor_interval=0.05,
            backoff_base=0.1, quiet=True,
        )
        try:
            host, port = sup.start()
            # Advance the generation once through the writer first.
            new = np.random.default_rng(SEED + 5).normal(size=(30, DIM))
            receipt = None
            for _ in range(40):
                try:
                    req = urllib.request.Request(
                        f"http://{host}:{port}/datasets",
                        data=json.dumps({"datasets": [new.tolist()]}).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(req, timeout=10) as resp:
                        receipt = json.loads(resp.read())
                    break
                except urllib.error.HTTPError as exc:
                    if exc.code != 409:
                        raise
                    time.sleep(0.05)
            assert receipt is not None
            current = generation_of(path)
            assert current >= 1

            victim = sup.pids[1]
            t_kill = time.monotonic()
            os.kill(victim, signal.SIGKILL)
            assert _wait_for(
                lambda: sup.health()["workers"][1]["alive"]
                and sup.health()["workers"][1]["restarts"] == 1
            )
            elapsed = time.monotonic() - t_kill
            # backoff_base=0.1, monitor_interval=0.05: the respawn must
            # land well inside a couple of backoff periods.
            assert elapsed < 10.0
            # The respawned worker serves the CURRENT generation, not the
            # boot one.
            def rejoined():
                stats = sup.aggregate_stats()
                gens = stats["generations"]
                return len(gens) == 2 and all(g >= current for g in gens)

            assert _wait_for(rejoined), sup.aggregate_stats()["generations"]
        finally:
            sup.stop()

    def test_writer_death_promotes_and_ingest_continues(self, snapshot):
        path, queries = snapshot
        sup = ServiceSupervisor(
            path, workers=3, poll_interval=0.1, monitor_interval=0.05,
            backoff_base=0.1, quiet=True,
        )
        try:
            host, port = sup.start()
            os.kill(sup.pids[0], signal.SIGKILL)
            assert _wait_for(
                lambda: sup.health()["writer_id"] != 0
            ), f"writer never migrated: {sup.health()}"
            assert _wait_for(
                lambda: sup.health()["workers"][0]["alive"]
            ), "slot 0 never respawned"
            # The fleet still accepts ingest: some worker answers 200 (the
            # promoted writer); the old writer's respawn answers 409.
            new = np.random.default_rng(SEED + 7).normal(size=(25, DIM))
            receipt = None
            for _ in range(60):
                try:
                    req = urllib.request.Request(
                        f"http://{host}:{port}/datasets",
                        data=json.dumps({"datasets": [new.tolist()]}).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(req, timeout=10) as resp:
                        receipt = json.loads(resp.read())
                    break
                except urllib.error.HTTPError as exc:
                    if exc.code != 409:
                        raise
                    time.sleep(0.05)
                except (urllib.error.URLError, ConnectionError, OSError):
                    time.sleep(0.05)
            assert receipt is not None, "ingest never succeeded after failover"
            assert receipt["indexes"] == [10]
        finally:
            sup.stop()

    def test_crash_loop_trips_circuit_breaker(self, snapshot, monkeypatch):
        path, queries = snapshot
        monkeypatch.setattr(supervisor, "CRASH_LOOP_THRESHOLD", 2)
        monkeypatch.setattr(supervisor, "CRASH_LOOP_WINDOW", 60.0)
        # Workers inherit armed failpoints through fork: every handled
        # request kills the worker, so each respawn dies again on first
        # contact and the breaker must trip instead of fork-looping.
        faults.arm("handler=exit:9")
        sup = ServiceSupervisor(
            path, workers=1, poll_interval=0.2, monitor_interval=0.05,
            backoff_base=0.05, quiet=True,
        )
        try:
            host, port = sup.start()
            payload = json.dumps(
                {"expressions": [expression_to_json(queries[0])]}
            ).encode()

            def poke():
                req = urllib.request.Request(
                    f"http://{host}:{port}/search/batch",
                    data=payload,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(req, timeout=5):
                        pass
                except (urllib.error.URLError, ConnectionError, OSError):
                    pass

            deadline = time.time() + 30
            while time.time() < deadline:
                health = sup.health()
                if health["workers"][0]["disabled"]:
                    break
                if health["workers"][0]["alive"]:
                    poke()
                time.sleep(0.05)
            health = sup.health()
            assert health["workers"][0]["disabled"], health
            assert health["workers"][0]["restarts"] >= 1
            assert health["status"] == "down"
        finally:
            sup.stop()
