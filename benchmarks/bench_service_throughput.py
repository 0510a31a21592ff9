"""BENCH-SERVICE — query-service throughput vs shard count and cache state.

Measures the serving subsystem end to end on a synthetic lake:

- **equivalence** — ``QueryService(n_shards=4)`` must return identical index
  sets to a single ``DatasetSearchEngine`` over the same deterministic
  synopses for the full mixed Ptile/Pref batch (the sharded union preserves
  the per-leaf guarantees because each dataset lives in exactly one shard);
- **throughput** — queries/sec for a cache-cold batch versus the same batch
  re-run cache-warm, swept over shard counts, with cache hit rates;
- **planner dedup** — the fraction of raw leaf evaluations the batch
  planner avoided.

Writes ``BENCH_service_throughput.json`` (machine-readable rows via
``repro.bench.harness.json_report``) next to the repo root so the perf
trajectory is tracked across PRs.

Run ``python benchmarks/bench_service_throughput.py`` for the tables; use
``--n-datasets/--n-queries/--shards/--dim`` to scale the sweep (dim 1 is
the default, as in the T-4.11 sweeps: it keeps the geometric enumeration
cheap so the bench isolates serving costs).
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.bench.harness import TableReporter, json_report
from repro.core.engine import DatasetSearchEngine
from repro.core.framework import Repository
from repro.service import QueryService
from repro.service.planner import plan_batch
from repro.service.sharding import SeededSampleSynopsis
from repro.synopsis.exact import ExactSynopsis
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

EPS = 0.2
SAMPLE_SIZE = 12
SEED = 2025
DUPLICATE_LEAF_RATE = 0.6
REPORT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "BENCH_service_throughput.json")


def build_workload(n_datasets: int, n_queries: int, dim: int):
    rng = np.random.default_rng(SEED)
    lake = synthetic_data_lake(
        n_datasets, dim, rng, family="clustered", median_size=150, size_sigma=0.4
    )
    repo = Repository.from_arrays(lake)
    queries = batched_query_workload(
        n_queries,
        dim,
        np.random.default_rng(SEED + 1),
        pref_fraction=0.3,
        duplicate_leaf_rate=DUPLICATE_LEAF_RATE,
    )
    return lake, repo, queries


def reference_answers(lake, repo, queries, service: QueryService):
    """A single engine with the service's exact resolved parameters."""
    synopses = [
        SeededSampleSynopsis(ExactSynopsis(p), service.executor.seed, i)
        for i, p in enumerate(lake)
    ]
    engine = DatasetSearchEngine(
        synopses=synopses,
        repository=repo,
        eps=EPS,
        phi=service.executor.phi_eff,
        sample_size=service.executor.sample_size,
        bounding_box=repo.bounding_box(),
        rng=np.random.default_rng(0),
    )
    return [engine.search(q).indexes for q in queries]


def run_shard_count(repo, queries, n_shards: int) -> tuple[dict, QueryService]:
    service = QueryService(
        repository=repo,
        n_shards=n_shards,
        cache_capacity=4096,
        eps=EPS,
        sample_size=SAMPLE_SIZE,
        seed=SEED,
    )
    t0 = time.perf_counter()
    service.warm()
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = service.search_batch(queries)
    cold_s = time.perf_counter() - t0
    cold_hit_rate = service.cache.stats.hit_rate
    hits_before, lookups_before = (
        service.cache.stats.hits,
        service.cache.stats.lookups,
    )

    t0 = time.perf_counter()
    warm = service.search_batch(queries)
    warm_s = time.perf_counter() - t0

    stats = service.cache.stats
    warm_lookups = stats.lookups - lookups_before
    warm_hit_rate = (stats.hits - hits_before) / warm_lookups
    row = {
        "n_shards": service.n_shards,
        "build_s": build_s,
        "cold_s": cold_s,
        "cold_qps": len(queries) / cold_s,
        "warm_s": warm_s,
        "warm_qps": len(queries) / warm_s,
        "speedup_warm_vs_cold": cold_s / warm_s,
        "cold_hit_rate": cold_hit_rate,
        "warm_hit_rate": warm_hit_rate,
        "cache_size": len(service.cache),
    }
    assert [r.indexes for r in cold] == [r.indexes for r in warm], (
        "cache-warm answers diverged from cache-cold answers"
    )
    assert warm_hit_rate == 1.0, (
        f"warm batch was not served fully from cache (hit rate {warm_hit_rate})"
    )
    return row, service


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-datasets", type=int, default=200)
    parser.add_argument("--n-queries", type=int, default=100)
    parser.add_argument("--dim", type=int, default=1)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    args = parser.parse_args()

    lake, repo, queries = build_workload(args.n_datasets, args.n_queries, args.dim)
    batch_plan = plan_batch(queries)
    print(
        f"lake: {args.n_datasets} datasets (d = {args.dim}); batch: "
        f"{args.n_queries} queries, {batch_plan.n_leaves_raw} raw leaves, "
        f"{batch_plan.n_leaves_unique} unique "
        f"(planner dedup {batch_plan.dedup_ratio:.0%})"
    )

    table = TableReporter(
        "BENCH-SERVICE: throughput vs shard count (cache cold/warm)",
        ["shards", "build (s)", "cold (s)", "cold q/s", "warm (s)",
         "warm q/s", "speedup", "cold hit", "warm hit"],
    )
    rows = []
    reference = None
    for n_shards in args.shards:
        row, service = run_shard_count(repo, queries, n_shards)
        if n_shards == 4 or (4 not in args.shards and reference is None):
            reference = reference_answers(lake, repo, queries, service)
            answers = [r.indexes for r in service.search_batch(queries)]
            assert answers == reference, (
                "sharded answers diverged from the single-engine reference"
            )
            row["matches_single_engine"] = True
            print(f"equivalence: n_shards={service.n_shards} answers identical "
                  f"to a single DatasetSearchEngine on all {len(queries)} queries")
        service.close()
        rows.append(row)
        table.add_row(
            [row["n_shards"], row["build_s"], row["cold_s"], row["cold_qps"],
             row["warm_s"], row["warm_qps"], row["speedup_warm_vs_cold"],
             row["cold_hit_rate"], row["warm_hit_rate"]]
        )
        assert row["speedup_warm_vs_cold"] > 1.0, (
            "cache-warm batch was not faster than cache-cold"
        )
    table.print()

    path = json_report(
        REPORT,
        rows,
        meta={
            "bench": "service_throughput",
            "n_datasets": args.n_datasets,
            "n_queries": args.n_queries,
            "dim": args.dim,
            "eps": EPS,
            "sample_size": SAMPLE_SIZE,
            "duplicate_leaf_rate": DUPLICATE_LEAF_RATE,
            "planner_dedup_ratio": batch_plan.dedup_ratio,
        },
    )
    print(f"wrote {path}")
    print("Cache-warm batches beat cache-cold at every shard count.")


def test_service_batch_warm(service_1d, service_queries_1d, benchmark):
    service_1d.search_batch(service_queries_1d)  # prime the cache
    benchmark(lambda: service_1d.search_batch(service_queries_1d))


if __name__ == "__main__":
    main()
