"""Federation chaos suite: kill and stall real node processes under
live coordinator traffic.

The acceptance bar from the federation issue: with a node SIGKILLed or
stalled while traffic flows, the coordinator serves **zero 5xx** (every
answer is either exact or a sound degradation with
``must ⊆ exact ⊆ must ∪ maybe``), the dead node's breaker trips open,
and after the node comes back the breaker's half-open probe closes it
and answers return to exact.  Node processes are ``os.fork``\\ ed so a
SIGKILL is a real process death and a stall (armed ``handler`` sleep
failpoint in the child only) does not slow the coordinator process.
Skipped cleanly on platforms without ``os.fork``.
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
from peers import serving, single_service

from repro.core.bitset import bitmap_from_wire
from repro.core.framework import Repository
from repro.service import faults
from repro.service.federation import (
    FederatedCoordinator,
    federated_node_service,
    make_federation_server,
)
from repro.service.server import expression_to_json, make_server
from repro.service.supervisor import fork_available
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="federation chaos suite needs os.fork"
)

SEED = 61
DIM = 1
N_TOTAL = 12
N_NODES = 3


def _wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class _ForkedNode:
    """A node server running in a forked child process.

    The parent builds the service and binds the listening socket, then
    forks; the child serves on the inherited socket and the parent keeps
    only the pid (plus the service object, which it closes on
    shutdown).  ``failpoints`` arms fault injection in the
    child *only* — the parent's ``faults.ARMED`` stays None.
    """

    def __init__(self, arrays, offset, total, bounding_box, failpoints=None):
        # Global accuracy frame: the merge over healthy nodes must equal
        # the single-service oracle exactly, by construction.
        self.service = federated_node_service(
            arrays,
            offset=offset,
            total=total,
            bounding_box=bounding_box,
            seed=1,
            n_shards=2,
            eps=0.2,
            sample_size=8,
        )
        self.service.warm()
        self.port = None
        self.pid = None
        self.failpoints = failpoints
        self._spawn()

    def _spawn(self):
        httpd = make_server(self.service, host="127.0.0.1", port=self.port or 0)
        self.port = httpd.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        pid = os.fork()
        if pid == 0:  # child: serve until killed
            try:
                if self.failpoints:
                    faults.arm(self.failpoints)
                httpd.serve_forever()
            finally:
                os._exit(0)
        # parent: drop its copy of the listening socket (the child's
        # inherited fd keeps the port alive).
        httpd.server_close()
        self.pid = pid

    def sigkill(self):
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None

    def restart(self):
        """Heal the node: a fresh child on the same port."""
        self._spawn()

    def close(self):
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.pid = None
        self.service.close()


@pytest.fixture(scope="module")
def workload():
    lake = synthetic_data_lake(
        N_TOTAL, DIM, np.random.default_rng(SEED), family="clustered",
        median_size=80,
    )
    (query,) = batched_query_workload(1, DIM, np.random.default_rng(SEED + 1))
    with single_service(lake, n_shards=2, eps=0.2, sample_size=8, seed=1) as ref:
        exact = frozenset(ref.search_batch([query])[0].indexes)
    return lake, query, exact


class _FederationTraffic:
    """Live /search/batch traffic against the coordinator, every response
    parsed and containment-checked on arrival."""

    def __init__(self, url, query, exact):
        self.url = url
        self.exact = exact
        self.payload = json.dumps(
            {
                "expressions": [expression_to_json(query)],
                "format": "bitset",
                "deadline_ms": 4000,
            }
        ).encode()
        self.statuses: list[int] = []
        self.transport_errors = 0
        self.violations: list[str] = []
        self.coverages: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            req = urllib.request.Request(
                f"{self.url}/search/batch",
                data=self.payload,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    self.statuses.append(resp.status)
                    self._check(json.loads(resp.read()))
            except urllib.error.HTTPError as exc:
                self.statuses.append(exc.code)
            except (urllib.error.URLError, ConnectionError, OSError):
                self.transport_errors += 1
            time.sleep(0.02)

    def _check(self, body):
        result = body["results"][0]
        must = set(bitmap_from_wire(result["bitset"]).to_list())
        self.coverages.append(body["federation"]["coverage"])
        if result.get("degraded"):
            maybe = set(bitmap_from_wire(result["maybe_bitset"]).to_list())
        else:
            maybe = set()
            if must != self.exact:
                self.violations.append(
                    f"exact answer mismatch: {sorted(must)}"
                )
                return
        if not must <= self.exact:
            self.violations.append(f"must ⊄ exact: {sorted(must - self.exact)}")
        if not self.exact <= must | maybe:
            self.violations.append(
                f"exact ⊄ must∪maybe: {sorted(self.exact - must - maybe)}"
            )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=30)


@pytest.fixture()
def federation(workload):
    lake, query, exact = workload
    per = N_TOTAL // N_NODES
    box = Repository.from_arrays(lake).bounding_box()
    nodes = [
        _ForkedNode(lake[i * per:(i + 1) * per], i * per, N_TOTAL, box)
        for i in range(N_NODES)
    ]
    coord = FederatedCoordinator(
        seed=5,
        rpc_timeout_s=1.0,
        max_retries=1,
        backoff_base_s=0.02,
        backoff_max_s=0.1,
        hedge_delay_s=0.3,
        breaker_threshold=2,
        breaker_reset_s=0.5,
    )
    for node in nodes:
        coord.add_node(node.url)
    with serving(make_federation_server(coord, port=0)) as url:
        yield url, coord, nodes
    coord.close()
    for node in nodes:
        node.close()


def _breaker_states(coord):
    return [
        m["breaker"]["state"] for m in coord.stats()["federation"]["nodes"]
    ]


class TestFederationChaos:
    def test_sigkill_node_zero_5xx_containment_and_breaker_recovery(
        self, federation, workload
    ):
        url, coord, nodes = federation
        _lake, query, exact = workload
        victim = nodes[1]

        with _FederationTraffic(url, query, exact) as traffic:
            # Warm: healthy exact answers flowing.
            assert _wait_for(lambda: len(traffic.statuses) >= 5)
            assert traffic.coverages and traffic.coverages[-1] == 1.0

            # Kill a node mid-traffic.  Coordinator keeps answering,
            # the victim's breaker trips open.
            victim.sigkill()
            assert _wait_for(
                lambda: traffic.coverages
                and traffic.coverages[-1] < 1.0
            ), "no degraded answer observed after SIGKILL"
            assert _wait_for(
                lambda: _breaker_states(coord)[1] == "open"
            ), f"breaker never tripped: {_breaker_states(coord)}"
            n_during_outage = len(traffic.statuses)

            # Heal: same port, fresh process.  The half-open probe must
            # close the breaker and answers return to exact coverage.
            victim.restart()
            assert _wait_for(
                lambda: _breaker_states(coord)[1] == "closed", timeout=30
            ), f"breaker never closed: {_breaker_states(coord)}"
            assert _wait_for(
                lambda: len(traffic.statuses) > n_during_outage
                and traffic.coverages[-1] == 1.0,
                timeout=30,
            ), "answers never returned to full coverage"

        # Zero 5xx across the whole outage and recovery.
        assert all(s == 200 for s in traffic.statuses), sorted(
            set(traffic.statuses)
        )
        assert traffic.violations == [], traffic.violations[:5]
        # The outage really produced degraded-but-sound answers.
        assert any(c < 1.0 for c in traffic.coverages)
        victim_stats = coord.stats()["federation"]["nodes"][1]
        assert victim_stats["breaker"]["trips"] >= 1
        assert victim_stats["degraded_served"] >= 1

    def test_stalled_node_zero_5xx_and_bounded_latency(self, workload):
        lake, query, exact = workload
        per = N_TOTAL // N_NODES
        box = Repository.from_arrays(lake).bounding_box()
        nodes = []
        try:
            for i in range(N_NODES):
                # The last node stalls every request well past the
                # coordinator's RPC timeout — armed in the child only.
                fp = "handler=sleep:30" if i == N_NODES - 1 else None
                nodes.append(
                    _ForkedNode(
                        lake[i * per:(i + 1) * per], i * per, N_TOTAL, box,
                        failpoints=fp,
                    )
                )
            coord = FederatedCoordinator(
                seed=5,
                rpc_timeout_s=0.4,
                max_retries=1,
                backoff_base_s=0.02,
                backoff_max_s=0.1,
                hedge_delay_s=0.15,
                breaker_threshold=2,
                breaker_reset_s=30.0,
            )
            for node in nodes:
                coord.add_node(node.url)
            with serving(make_federation_server(coord, port=0)) as url:
                latencies = []
                payload = json.dumps(
                    {
                        "expressions": [expression_to_json(query)],
                        "format": "bitset",
                        "deadline_ms": 3000,
                    }
                ).encode()
                statuses = []
                bodies = []
                for _ in range(6):
                    t0 = time.perf_counter()
                    req = urllib.request.Request(
                        f"{url}/search/batch",
                        data=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(req, timeout=30) as resp:
                        statuses.append(resp.status)
                        bodies.append(json.loads(resp.read()))
                    latencies.append(time.perf_counter() - t0)

                assert all(s == 200 for s in statuses)
                # The stall is contained: hedging + retries never push a
                # request past the deadline plus scheduling slack.
                assert max(latencies) < 3.0 + 1.0, latencies
                # After the breaker trips (2 consecutive timeouts), requests
                # stop waiting on the stalled node at all: latency collapses
                # to the healthy nodes' scale.
                assert min(latencies[2:]) < 1.0, latencies
                for body in bodies:
                    result = body["results"][0]
                    assert result["degraded"]
                    must = set(bitmap_from_wire(result["bitset"]).to_list())
                    maybe = set(
                        bitmap_from_wire(result["maybe_bitset"]).to_list()
                    )
                    assert must <= exact <= must | maybe
                    # Only the stalled node's slice is screened.
                    assert body["federation"]["coverage"] == pytest.approx(2 / 3)
                assert _breaker_states(coord)[2] == "open"
            coord.close()
        finally:
            for node in nodes:
                node.close()
