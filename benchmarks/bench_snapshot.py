"""BENCH-SNAPSHOT — mmap cold starts and pre-forked warm QPS.

Measures the persistence + multi-process serving layer end to end:

- **cold start** — wall-clock to build + warm a ``QueryService`` from raw
  arrays versus ``QueryService.load(mmap=True)`` (zero-copy page-mapped
  restore) and ``load(mmap=False)`` (private in-memory copy), swept over
  the lake size.  Answer equality between the built and every loaded
  service is asserted on the full query batch at every sweep point —
  a fast cold start that serves different answers would be worthless.
- **warm QPS** — aggregate queries/sec through the pre-forked
  :class:`~repro.service.supervisor.ServiceSupervisor` versus worker
  count, with concurrent HTTP clients hammering ``POST /search/batch``
  and every response checked against the single-process answers.

Targets (asserted in full mode):

- cold start via ``load(mmap=True)`` at the largest lake size must be
  **>= 10x** faster than build + warm;
- aggregate warm QPS at 4 workers must be **>= 3x** the 1-worker QPS —
  *only asserted when the machine has >= 4 CPU cores*: pre-forking
  sidesteps the GIL, but it cannot conjure cores, so on smaller hosts
  the scaling rows are still measured and reported honestly while the
  assertion is recorded as gated in the JSON meta.

Writes ``BENCH_snapshot.json`` next to the repo root.  ``--smoke`` runs a
tiny sweep (and skips the JSON) for CI; the QPS section is fork-gated and
skipped cleanly on platforms without ``os.fork``.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.bench.harness import TableReporter, json_report
from repro.core.framework import Repository
from repro.service import QueryService
from repro.service.server import expression_to_json
from repro.service.supervisor import ServiceSupervisor, fork_available
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

EPS = 0.2
SAMPLE_SIZE = 12
SEED = 2025
N_SHARDS = 4
REPORT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "BENCH_snapshot.json")

COLD_TARGET_SPEEDUP = 10.0
QPS_TARGET_SCALING = 3.0
QPS_TARGET_WORKERS = 4


def build_workload(n_datasets: int, n_queries: int, dim: int):
    rng = np.random.default_rng(SEED)
    lake = synthetic_data_lake(
        n_datasets, dim, rng, family="clustered", median_size=300, size_sigma=0.4
    )
    queries = batched_query_workload(
        n_queries, dim, np.random.default_rng(SEED + 1), duplicate_leaf_rate=0.5
    )
    return lake, queries


def build_service(lake) -> QueryService:
    """The whole raw-arrays-to-serving cold path: dataset validation,
    repository assembly, shard partitioning, coreset draws, mapped-point
    matrices (the maximal-pair rectangle enumeration) — everything
    ``load()`` restores from the container instead of recomputing."""
    repo = Repository.from_arrays(lake)
    service = QueryService(
        repository=repo,
        n_shards=N_SHARDS,
        cache_capacity=4096,
        eps=EPS,
        sample_size=SAMPLE_SIZE,
        seed=SEED,
    )
    service.warm()
    return service


def run_cold_start(n_datasets: int, n_queries: int, dim: int, workdir: str) -> dict:
    """Time build+warm vs load(mmap)/load(copy); assert answer equality."""
    lake, queries = build_workload(n_datasets, n_queries, dim)

    t0 = time.perf_counter()
    built = build_service(lake)
    build_s = time.perf_counter() - t0
    expected = [r.indexes for r in built.search_batch(queries)]

    snap = os.path.join(workdir, f"bench_{n_datasets}.snap")
    info = built.save(snap)
    built.close()

    t0 = time.perf_counter()
    mapped = QueryService.load(snap, mmap=True)
    load_mmap_s = time.perf_counter() - t0
    assert [r.indexes for r in mapped.search_batch(queries)] == expected, (
        "mmap-loaded service diverged from the built service"
    )
    mapped.close()

    t0 = time.perf_counter()
    copied = QueryService.load(snap, mmap=False)
    load_copy_s = time.perf_counter() - t0
    assert [r.indexes for r in copied.search_batch(queries)] == expected, (
        "copy-loaded service diverged from the built service"
    )
    copied.close()

    return {
        "n_datasets": n_datasets,
        "build_s": build_s,
        "load_mmap_s": load_mmap_s,
        "load_copy_s": load_copy_s,
        "speedup_mmap": build_s / load_mmap_s,
        "speedup_copy": build_s / load_copy_s,
        "file_mb": info["file_bytes"] / 1e6,
        "n_arrays": info["n_arrays"],
        "answers_equal": True,
    }


def _post_batch(url: str, body: bytes) -> list:
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return [r["indexes"] for r in json.loads(resp.read())["results"]]


def run_qps(
    snap: str, queries, expected: list, workers: int, n_requests: int
) -> dict:
    """Aggregate QPS with ``2*workers`` concurrent clients; every response
    is checked against ``expected`` (bitwise answer equality over HTTP)."""
    sup = ServiceSupervisor(snap, workers=workers, poll_interval=1.0)
    host, port = sup.start()
    url = f"http://{host}:{port}/search/batch"
    body = json.dumps(
        {"expressions": [expression_to_json(q) for q in queries]}
    ).encode()
    try:
        _post_batch(url, body)  # connection + plan-cache warmup
        n_clients = max(2 * workers, 4)
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            futures = [
                pool.submit(_post_batch, url, body) for _ in range(n_requests)
            ]
            answers = [f.result() for f in futures]
        elapsed = time.perf_counter() - t0
    finally:
        sup.stop()
    assert all(a == expected for a in answers), (
        f"a worker served wrong answers at workers={workers}"
    )
    return {
        "workers": workers,
        "requests": n_requests,
        "queries_per_request": len(queries),
        "elapsed_s": elapsed,
        "qps": n_requests * len(queries) / elapsed,
        "answers_equal": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400])
    parser.add_argument("--n-queries", type=int, default=60)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--qps-requests", type=int, default=60)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI sweep: one small size, 2 workers max, no JSON report",
    )
    args = parser.parse_args()
    if args.smoke:
        args.sizes, args.n_queries = [24], 12
        args.workers = [w for w in args.workers if w <= 2] or [1, 2]
        args.qps_requests = 8

    cpu_count = os.cpu_count() or 1
    cold_table = TableReporter(
        "BENCH-SNAPSHOT: cold start — build+warm vs load(mmap) vs load(copy)",
        ["datasets", "build (s)", "mmap (s)", "copy (s)",
         "speedup mmap", "speedup copy", "file (MB)"],
    )
    cold_rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in args.sizes:
            row = run_cold_start(n, args.n_queries, args.dim, workdir)
            cold_rows.append(row)
            cold_table.add_row(
                [row["n_datasets"], row["build_s"], row["load_mmap_s"],
                 row["load_copy_s"], row["speedup_mmap"], row["speedup_copy"],
                 row["file_mb"]]
            )
    cold_table.print()
    print(f"answer equality asserted on all {args.n_queries} queries "
          f"at every size (mmap and copy loads)")

    largest = cold_rows[-1]
    if not args.smoke:
        assert largest["speedup_mmap"] >= COLD_TARGET_SPEEDUP, (
            f"cold-start target missed: load(mmap) only "
            f"{largest['speedup_mmap']:.1f}x faster than build+warm at "
            f"N={largest['n_datasets']} (target {COLD_TARGET_SPEEDUP:.0f}x)"
        )
        print(f"cold-start target met: {largest['speedup_mmap']:.0f}x >= "
              f"{COLD_TARGET_SPEEDUP:.0f}x at N={largest['n_datasets']}")

    qps_rows: list[dict] = []
    qps_note = None
    if fork_available():
        lake, queries = build_workload(args.sizes[-1], args.n_queries, args.dim)
        service = build_service(lake)
        expected = [r.indexes for r in service.search_batch(queries)]
        with tempfile.TemporaryDirectory() as workdir:
            snap = os.path.join(workdir, "qps.snap")
            service.save(snap)
            service.close()
            qps_table = TableReporter(
                "BENCH-SNAPSHOT: warm QPS vs pre-forked worker count",
                ["workers", "requests", "elapsed (s)", "qps", "scaling"],
            )
            for w in args.workers:
                row = run_qps(snap, queries, expected, w, args.qps_requests)
                row["scaling_vs_1"] = (
                    row["qps"] / qps_rows[0]["qps"] if qps_rows else 1.0
                )
                qps_rows.append(row)
                qps_table.add_row(
                    [row["workers"], row["requests"], row["elapsed_s"],
                     row["qps"], row["scaling_vs_1"]]
                )
            qps_table.print()
        print(f"every /search/batch response checked against the "
              f"single-process answers ({len(queries)} queries/request)")

        at_target = [r for r in qps_rows if r["workers"] == QPS_TARGET_WORKERS]
        if args.smoke or not at_target:
            qps_note = "not-asserted (smoke or 4-worker point not in sweep)"
        elif cpu_count < QPS_TARGET_WORKERS:
            qps_note = (
                f"gated: cpu_count={cpu_count} < {QPS_TARGET_WORKERS} — "
                f"forking cannot scale past the core count; measured "
                f"{at_target[0]['scaling_vs_1']:.2f}x at "
                f"{QPS_TARGET_WORKERS} workers, reported without asserting"
            )
            print(f"warm-QPS scaling assertion {qps_note}")
        else:
            scaling = at_target[0]["scaling_vs_1"]
            assert scaling >= QPS_TARGET_SCALING, (
                f"warm-QPS target missed: {scaling:.2f}x at "
                f"{QPS_TARGET_WORKERS} workers (target "
                f"{QPS_TARGET_SCALING:.0f}x, cpu_count={cpu_count})"
            )
            qps_note = f"met: {scaling:.2f}x >= {QPS_TARGET_SCALING:.0f}x"
            print(f"warm-QPS scaling target {qps_note}")
    else:
        qps_note = "skipped (no os.fork on this platform)"
        print(f"warm QPS section {qps_note}")

    if args.smoke:
        print("smoke mode: JSON report not written")
        return

    path = json_report(
        REPORT,
        cold_rows + qps_rows,
        meta={
            "bench": "snapshot",
            "engine": "kd",
            "n_shards": N_SHARDS,
            "dim": args.dim,
            "n_queries": args.n_queries,
            "eps": EPS,
            "sample_size": SAMPLE_SIZE,
            "cpu_count": cpu_count,
            "cold_target_speedup": COLD_TARGET_SPEEDUP,
            "cold_speedup_at_largest": largest["speedup_mmap"],
            "qps_target": (
                f">= {QPS_TARGET_SCALING:.0f}x at {QPS_TARGET_WORKERS} workers"
            ),
            "qps_scaling_assert": qps_note,
        },
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
