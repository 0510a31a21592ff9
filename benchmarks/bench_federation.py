"""BENCH-FEDERATION — scatter-gather overhead and stalled-node containment.

Measures the federated coordinator end to end:

- **overhead section** — the same ``N`` datasets served two ways: one
  ``repro serve`` node behind HTTP, and the federated coordinator
  scatter-gathering over ``--nodes`` nodes of ``N/nodes`` datasets each
  (all in-process servers, loopback HTTP both ways so the comparison is
  fair).  Reported per path: batch latency p50/p99 and the overhead
  ratio.  Exactness is asserted, always: with every node healthy the
  coordinator's answers must equal the single-node service's answers
  query for query — scatter-gather is an execution strategy, not an
  approximation.
- **stalled-node section** (fork-gated) — the same topology with real
  forked node processes, one of which stalls every request well past the
  coordinator's RPC timeout (a ``handler`` sleep failpoint armed in that
  child only).  Live batches run under a ``deadline_ms`` budget.
  Reported: latency p50/p99 with the stall raging, degraded fraction,
  coverage, and HTTP 5xx count.  Asserted, smoke mode included: zero
  5xx, every degraded answer satisfies ``must ⊆ exact ⊆ must ∪ maybe``
  against the single-node oracle, and p99 stays under the deadline plus
  scheduling slack — a straggler that drags the whole federation past
  the budget means the sub-deadline carving failed.

Writes ``BENCH_federation.json`` next to the repo root.  ``--smoke``
runs a tiny sweep (and skips the JSON) for CI; the stalled-node section
is skipped cleanly on platforms without ``os.fork``.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
import urllib.request

import numpy as np

from repro.bench.harness import TableReporter, json_report
from repro.core.bitset import bitmap_from_wire
from repro.core.framework import Repository
from repro.service import QueryService, faults
from repro.service.federation import (
    FederatedCoordinator,
    federated_node_service,
    make_federation_server,
)
from repro.service.server import expression_to_json, make_server
from repro.service.supervisor import fork_available
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

EPS = 0.2
SAMPLE_SIZE = 12
SEED = 2027
N_SHARDS = 2
STALL_S = 30.0
DEADLINE_MS = 2000.0
P99_SLACK_S = 1.0
REPORT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_federation.json",
)


def build_service(arrays) -> QueryService:
    return QueryService(
        repository=Repository.from_arrays(arrays),
        n_shards=N_SHARDS,
        eps=EPS,
        sample_size=SAMPLE_SIZE,
        seed=1,
    )


def build_node_service(arrays, offset, total, bounding_box) -> QueryService:
    # Global accuracy frame (capacity, global-index coresets, shared box):
    # the by-construction guarantee that the federated merge equals a
    # single service over the whole lake.
    return federated_node_service(
        arrays,
        offset=offset,
        total=total,
        bounding_box=bounding_box,
        seed=1,
        n_shards=N_SHARDS,
        eps=EPS,
        sample_size=SAMPLE_SIZE,
    )


def serve_http(httpd):
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address
    return f"http://{host}:{port}"


def post_batch(url, payload):
    req = urllib.request.Request(
        f"{url}/search/batch",
        data=payload,
        headers={"Content-Type": "application/json"},
    )
    t0 = time.perf_counter()
    with urllib.request.urlopen(req, timeout=60) as resp:
        body = json.loads(resp.read())
        return resp.status, body, time.perf_counter() - t0


def percentile(xs, q):
    return float(np.percentile(np.asarray(xs, dtype=float), q))


def slices(lake, n_nodes):
    per = len(lake) // n_nodes
    return [lake[i * per:(i + 1) * per] for i in range(n_nodes)]


def must_maybe(result):
    must = set(bitmap_from_wire(result["bitset"]).to_list())
    maybe = (
        set(bitmap_from_wire(result["maybe_bitset"]).to_list())
        if result.get("degraded")
        else set()
    )
    return must, maybe


def run_overhead(lake, queries, n_nodes, repeats):
    """Healthy-path latency: single node vs coordinator at equal total N."""
    payload = json.dumps(
        {
            "expressions": [expression_to_json(q) for q in queries],
            "format": "bitset",
        }
    ).encode()

    single_svc = build_service(lake)
    single_httpd = make_server(single_svc, host="127.0.0.1", port=0)
    single_url = serve_http(single_httpd)

    box = Repository.from_arrays(lake).bounding_box()
    node_svcs = [
        build_node_service(s, i * (len(lake) // n_nodes), len(lake), box)
        for i, s in enumerate(slices(lake, n_nodes))
    ]
    node_httpds = [make_server(s, host="127.0.0.1", port=0) for s in node_svcs]
    node_urls = [serve_http(h) for h in node_httpds]
    coord = FederatedCoordinator(seed=9)
    for url in node_urls:
        coord.add_node(url)
    fed_httpd = make_federation_server(coord, host="127.0.0.1", port=0)
    fed_url = serve_http(fed_httpd)

    try:
        # Warm both paths, then measure.
        post_batch(single_url, payload)
        post_batch(fed_url, payload)
        single_lat, fed_lat = [], []
        for _ in range(repeats):
            status, single_body, dt = post_batch(single_url, payload)
            assert status == 200
            single_lat.append(dt)
            status, fed_body, dt = post_batch(fed_url, payload)
            assert status == 200
            fed_lat.append(dt)
            # Exactness at equal total N: asserted on every repeat.
            for qi, (s, f) in enumerate(
                zip(single_body["results"], fed_body["results"])
            ):
                s_must, _ = must_maybe(s)
                f_must, _ = must_maybe(f)
                assert not f.get("degraded"), "healthy run degraded"
                assert s_must == f_must, (
                    f"federated answer diverged on query {qi}: "
                    f"{sorted(s_must ^ f_must)}"
                )
        return {
            "section": "overhead",
            "n_datasets": len(lake),
            "n_nodes": n_nodes,
            "n_queries": len(queries),
            "repeats": repeats,
            "single_p50_ms": percentile(single_lat, 50) * 1e3,
            "single_p99_ms": percentile(single_lat, 99) * 1e3,
            "federated_p50_ms": percentile(fed_lat, 50) * 1e3,
            "federated_p99_ms": percentile(fed_lat, 99) * 1e3,
            "overhead_ratio_p50": (
                percentile(fed_lat, 50) / max(percentile(single_lat, 50), 1e-9)
            ),
        }
    finally:
        for h in (single_httpd, fed_httpd, *node_httpds):
            h.shutdown()
            h.server_close()
        coord.close()
        single_svc.close()
        for s in node_svcs:
            s.close()


class ForkedNode:
    """A node server in a forked child (see tests/service chaos suite)."""

    def __init__(self, arrays, offset, total, bounding_box, failpoints=None):
        self.service = build_node_service(arrays, offset, total, bounding_box)
        self.service.warm()
        httpd = make_server(self.service, host="127.0.0.1", port=0)
        host, port = httpd.server_address
        self.url = f"http://{host}:{port}"
        pid = os.fork()
        if pid == 0:
            try:
                if failpoints:
                    faults.arm(failpoints)
                httpd.serve_forever()
            finally:
                os._exit(0)
        httpd.server_close()
        self.pid = pid

    def close(self):
        import signal

        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        self.service.close()


def run_stalled(lake, queries, n_nodes, repeats):
    """One node stalled past the RPC timeout, batches under a deadline."""
    oracle = build_service(lake)
    exact = [frozenset(r.indexes) for r in oracle.search_batch(queries)]
    oracle.close()

    nodes = []
    coord = None
    fed_httpd = None
    try:
        box = Repository.from_arrays(lake).bounding_box()
        per = len(lake) // n_nodes
        for i, arrays in enumerate(slices(lake, n_nodes)):
            fp = f"handler=sleep:{STALL_S}" if i == n_nodes - 1 else None
            nodes.append(
                ForkedNode(arrays, i * per, len(lake), box, failpoints=fp)
            )
        coord = FederatedCoordinator(
            seed=9,
            rpc_timeout_s=0.4,
            max_retries=1,
            backoff_base_s=0.02,
            backoff_max_s=0.1,
            hedge_delay_s=0.15,
            breaker_threshold=2,
            breaker_reset_s=60.0,
        )
        for node in nodes:
            coord.add_node(node.url)
        fed_httpd = make_federation_server(coord, host="127.0.0.1", port=0)
        fed_url = serve_http(fed_httpd)
        payload = json.dumps(
            {
                "expressions": [expression_to_json(q) for q in queries],
                "format": "bitset",
                "deadline_ms": DEADLINE_MS,
            }
        ).encode()

        latencies = []
        n_5xx = 0
        n_results = 0
        n_degraded = 0
        coverages = []
        for _ in range(repeats):
            status, body, dt = post_batch(fed_url, payload)
            latencies.append(dt)
            if status >= 500:
                n_5xx += 1
                continue
            coverages.append(body["federation"]["coverage"])
            for qi, result in enumerate(body["results"]):
                n_results += 1
                must, maybe = must_maybe(result)
                # Soundness, asserted on every answer (degraded or not).
                if result.get("degraded"):
                    n_degraded += 1
                    assert must <= exact[qi], (
                        f"must ⊄ exact on query {qi}"
                    )
                    assert exact[qi] <= must | maybe, (
                        f"exact ⊄ must∪maybe on query {qi}"
                    )
                else:
                    assert must == exact[qi], (
                        f"exact answer diverged on query {qi}"
                    )
        p99 = percentile(latencies, 99)
        assert n_5xx == 0, f"{n_5xx} batches answered 5xx under the stall"
        assert n_degraded > 0, "the stall never degraded anything — vacuous"
        assert p99 < DEADLINE_MS / 1e3 + P99_SLACK_S, (
            f"p99 {p99 * 1e3:.0f}ms blew past the {DEADLINE_MS:.0f}ms "
            f"deadline + {P99_SLACK_S * 1e3:.0f}ms slack"
        )
        return {
            "section": "stalled_node",
            "n_datasets": len(lake),
            "n_nodes": n_nodes,
            "stall_s": STALL_S,
            "deadline_ms": DEADLINE_MS,
            "repeats": repeats,
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p99_ms": p99 * 1e3,
            "served_5xx": n_5xx,
            "degraded_fraction": n_degraded / max(n_results, 1),
            "mean_coverage": float(np.mean(coverages)),
            "p99_within_deadline": bool(p99 < DEADLINE_MS / 1e3 + P99_SLACK_S),
        }
    finally:
        if fed_httpd is not None:
            fed_httpd.shutdown()
            fed_httpd.server_close()
        if coord is not None:
            coord.close()
        for node in nodes:
            node.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-datasets", type=int, default=48)
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--n-queries", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=12)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI sweep: fewer repeats/queries, no JSON report",
    )
    args = parser.parse_args()
    if args.smoke:
        args.n_datasets, args.n_queries, args.repeats = 18, 4, 3

    lake = synthetic_data_lake(
        args.n_datasets, 1, np.random.default_rng(SEED),
        family="clustered", median_size=90,
    )
    queries = batched_query_workload(
        args.n_queries, 1, np.random.default_rng(SEED + 1)
    )

    overhead = run_overhead(lake, queries, args.nodes, args.repeats)
    table = TableReporter(
        f"BENCH-FEDERATION: scatter-gather overhead at N = "
        f"{args.n_datasets} ({args.nodes} nodes)",
        ["path", "p50 (ms)", "p99 (ms)"],
    )
    table.add_row(
        ["single node", overhead["single_p50_ms"], overhead["single_p99_ms"]]
    )
    table.add_row(
        [
            f"federated x{args.nodes}",
            overhead["federated_p50_ms"],
            overhead["federated_p99_ms"],
        ]
    )
    table.print()
    print(
        f"exactness asserted on all {args.repeats}x{args.n_queries} "
        f"healthy-path queries; overhead ratio (p50) = "
        f"{overhead['overhead_ratio_p50']:.2f}x"
    )

    rows = [overhead]
    if fork_available():
        stalled = run_stalled(lake, queries, args.nodes, args.repeats)
        rows.append(stalled)
        s_table = TableReporter(
            f"BENCH-FEDERATION: one node stalled {STALL_S:.0f}s, "
            f"deadline {DEADLINE_MS:.0f}ms",
            ["p50 (ms)", "p99 (ms)", "5xx", "degraded frac", "coverage"],
        )
        s_table.add_row(
            [
                stalled["p50_ms"],
                stalled["p99_ms"],
                stalled["served_5xx"],
                stalled["degraded_fraction"],
                stalled["mean_coverage"],
            ]
        )
        s_table.print()
        print(
            "zero 5xx + containment asserted on every answer; p99 within "
            "deadline + slack"
        )
    else:
        print("stalled-node section skipped: platform has no os.fork")

    if args.smoke:
        print("smoke mode: JSON report not written")
        return
    path = json_report(
        REPORT,
        rows,
        meta={
            "bench": "federation",
            "n_shards": N_SHARDS,
            "eps": EPS,
            "n_datasets": args.n_datasets,
            "n_nodes": args.nodes,
            "n_queries": args.n_queries,
            "stall_s": STALL_S,
            "deadline_ms": DEADLINE_MS,
            "fork_available": fork_available(),
        },
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
