"""Command-line interface: explore the library without writing code.

Subcommands
-----------
``demo-ptile``
    Generate a synthetic data lake, build the Ptile range index, run one
    percentile query, and report quality versus ground truth.
``demo-pref``
    Same for the preference index.
``lake-stats``
    Generate a lake and print per-dataset summary statistics.
``serve``
    Build a :class:`~repro.service.QueryService` over a synthetic lake and
    expose it over a stdlib-HTTP JSON endpoint (see
    :mod:`repro.service.server` for the wire format), including the live
    mutation API (``POST /datasets`` / ``DELETE /datasets``).
``demo-mutation``
    Run a churn stream (query batches interleaved with live dataset
    ingestion and removal) against a query service and report per-event
    latencies plus how warm the leaf cache stayed across mutations.

Examples
--------
::

    python -m repro.cli demo-ptile --n 40 --dim 2 --theta 0.2 0.6
    python -m repro.cli demo-pref --n 40 --k 5 --tau 0.8
    python -m repro.cli lake-stats --n 10 --family gaussian
    python -m repro.cli serve --n 100 --shards 4 --port 8765
    python -m repro.cli demo-mutation --n 24 --events 20 --shards 2
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

# What the parser needs, and no more: a handler imports what it runs, so
# ``serve`` never loads the demo modules.
from repro.errors import ReproError
from repro.index.backend import DYNAMIC_ENGINES
from repro.workloads.generators import FAMILIES, synthetic_data_lake


def _add_lake_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=40, help="number of datasets")
    parser.add_argument("--dim", type=int, default=2, help="dimension d")
    parser.add_argument(
        "--family", choices=FAMILIES, default="clustered", help="data family"
    )
    parser.add_argument("--median-size", type=int, default=800)
    parser.add_argument("--seed", type=int, default=0)


def _make_lake(args: argparse.Namespace):
    rng = np.random.default_rng(args.seed)
    lake = synthetic_data_lake(
        args.n, args.dim, rng, family=args.family, median_size=args.median_size
    )
    return lake, rng


def cmd_demo_ptile(args: argparse.Namespace) -> int:
    from repro.bench.harness import TableReporter
    from repro.core.ptile_range import PtileRangeIndex
    from repro.geometry.interval import Interval
    from repro.geometry.rectangle import Rectangle
    from repro.synopsis.exact import ExactSynopsis

    lake, rng = _make_lake(args)
    region = Rectangle([args.region_lo] * args.dim, [args.region_hi] * args.dim)
    theta = Interval(args.theta[0], args.theta[1])
    index = PtileRangeIndex(
        [ExactSynopsis(p) for p in lake], eps=args.eps, rng=rng
    )
    result = index.query(region, theta)
    masses = [region.count_inside(p) / p.shape[0] for p in lake]
    truth = {i for i, m in enumerate(masses) if m in theta}
    table = TableReporter(
        f"Ptile demo: mass in {region} within [{theta.lo}, {theta.hi}]",
        ["dataset", "exact mass", "reported", "in exact answer"],
    )
    for i in sorted(result.index_set | truth):
        table.add_row([i, masses[i], i in result.index_set, i in truth])
    table.print()
    print(f"recall: {len(truth & result.index_set)}/{len(truth)} "
          f"(guaranteed {len(truth)}/{len(truth)}); "
          f"eps_effective = {index.eps_effective:.3f}")
    return 0 if truth <= result.index_set else 1


def cmd_demo_pref(args: argparse.Namespace) -> int:
    from repro.bench.harness import TableReporter
    from repro.core.pref_index import PrefIndex
    from repro.synopsis.exact import ExactSynopsis

    lake, _rng = _make_lake(args)
    index = PrefIndex(
        [ExactSynopsis(p) for p in lake], k=args.k, eps=args.eps
    )
    direction = np.ones(args.dim) / np.sqrt(args.dim)
    result = index.query(direction, args.tau)
    scores = [float(np.sort(p @ direction)[max(0, len(p) - args.k)]) for p in lake]
    truth = {i for i, s in enumerate(scores) if s >= args.tau}
    table = TableReporter(
        f"Pref demo: k={args.k}-th best projection on the diagonal >= {args.tau}",
        ["dataset", "exact score", "reported", "in exact answer"],
    )
    for i in sorted(result.index_set | truth):
        table.add_row([i, scores[i], i in result.index_set, i in truth])
    table.print()
    print(f"recall: {len(truth & result.index_set)}/{len(truth)} "
          f"(guaranteed {len(truth)}/{len(truth)}); "
          f"net directions = {index.n_directions}")
    return 0 if truth <= result.index_set else 1


def _build_lake_service(args: argparse.Namespace):
    from repro.core.framework import Repository
    from repro.service import QueryService

    lake, _rng = _make_lake(args)
    repo = Repository.from_arrays(lake)
    return QueryService(
        repository=repo,
        n_shards=args.shards,
        cache_capacity=args.cache_capacity,
        eps=args.eps,
        sample_size=args.sample_size,
        seed=args.seed,
        engine=getattr(args, "engine", "kd"),
        capacity=args.capacity,
        tracing=getattr(args, "trace", False),
        slow_query_threshold_ms=getattr(args, "slow_log", None),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.service import QueryService, serve

    if args.failpoints:
        from repro.service import faults

        faults.arm(args.failpoints)
        print(f"fault injection armed: {args.failpoints} (testing only)")

    if args.workers > 1:
        # Multi-process serving always goes through a snapshot file: the
        # parent loads it mmap'ed once, forks, and the workers share the
        # mapped pages (see repro.service.supervisor).
        from repro.service.supervisor import serve_forked

        if not args.snapshot:
            print("serve: --workers > 1 requires --snapshot PATH",
                  file=sys.stderr)
            return 2
        if not os.path.exists(args.snapshot):
            print(f"building snapshot {args.snapshot} from a synthetic lake "
                  f"({args.n} datasets) ...")
            service = _build_lake_service(args)
            service.warm()
            service.save(args.snapshot)
            service.close()
        elif args.trace or args.slow_log is not None:
            print("serve: --trace / --slow-log do not reach forked workers; "
                  f"they serve the settings {args.snapshot} was saved with",
                  file=sys.stderr)
        serve_forked(
            args.snapshot, workers=args.workers, host=args.host,
            port=args.port, max_inflight=args.max_inflight,
            max_queue=args.max_queue,
        )
        return 0

    if args.snapshot and os.path.exists(args.snapshot):
        service = QueryService.load(args.snapshot)
        # The file carries the settings it was saved with; a flag given
        # now overrides them, an absent one leaves them.
        if args.trace:
            service.observability.tracing = True
        if args.slow_log is not None:
            service.observability.slow_log.threshold_ms = args.slow_log
        print(f"loaded snapshot {args.snapshot} "
              f"({service.n_datasets} datasets, engine "
              f"{service.engine_kind!r}, {service.n_shards} shard(s))")
    else:
        service = _build_lake_service(args)
        if args.snapshot:
            service.warm()
            service.save(args.snapshot)
            print(f"wrote snapshot {args.snapshot}")
        print(
            f"serving {service.n_datasets} datasets (d = "
            f"{service.repository.dim}, family = {args.family}) over "
            f"{service.n_shards} shard(s), engine {service.engine_kind!r}, "
            f"cache capacity {args.cache_capacity}"
        )
    if service.observability.tracing:
        print("tracing every batch (per-stage spans feed /metrics; "
              "responses carry 'trace')")
    threshold_ms = service.observability.slow_log.threshold_ms
    if threshold_ms is not None:
        print(f"slow-query log on: threshold {threshold_ms} ms "
              f"(dump with GET /stats/slow)")
    if args.warm:
        print("warming shard indexes ...")
        service.warm()
    import json as _json

    example = _json.dumps(
        {
            "expression": {
                "op": "ptile",
                "lo": [0.0] * service.repository.dim,
                "hi": [0.5] * service.repository.dim,
                "theta": [0.1],
            }
        }
    )
    print(f"try: curl -s -X POST -d '{example}' "
          f"http://{args.host}:{args.port}/search")
    serve(service, host=args.host, port=args.port,
          max_inflight=args.max_inflight, max_queue=args.max_queue)
    return 0


def cmd_federate(args: argparse.Namespace) -> int:
    from repro.service.federation import FederatedCoordinator, serve_federation

    coordinator = FederatedCoordinator(
        rpc_timeout_s=args.rpc_timeout,
        max_retries=args.max_retries,
        hedge_delay_s=args.hedge_delay if args.hedge_delay > 0 else None,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        merge_margin=args.merge_margin,
        tracing=args.trace,
    )
    for url in args.node:
        try:
            receipt = coordinator.add_node(url)
        except ReproError as exc:
            print(f"federate: cannot register node {url}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"registered node {receipt['node_id']}: {receipt['url']} "
              f"({receipt['n_datasets']} datasets at offset "
              f"{receipt['offset']})")
    if not args.node:
        print("no --node given; register nodes at runtime with "
              "POST /nodes {\"url\": ..., \"n_datasets\": ...}")
    serve_federation(coordinator, host=args.host, port=args.port)
    return 0


def cmd_demo_mutation(args: argparse.Namespace) -> int:
    import time

    from repro.bench.harness import TableReporter
    from repro.core.framework import Repository
    from repro.geometry.rectangle import Rectangle
    from repro.service import QueryService
    from repro.workloads.queries import ambient_gaussian_dataset, mutation_workload

    rng = np.random.default_rng(args.seed)
    ambient = Rectangle([0.0] * args.dim, [1.0] * args.dim)
    lake = [
        ambient_gaussian_dataset(rng, ambient, args.median_size)
        for _ in range(args.n)
    ]
    service = QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=args.shards,
        eps=args.eps,
        sample_size=args.sample_size,
        seed=args.seed,
        bounding_box=ambient,
        capacity=args.capacity if args.capacity is not None else 4 * args.n,
    )
    service.warm()
    events = mutation_workload(
        args.events, args.dim, rng, n_initial=args.n, ambient=ambient
    )
    table = TableReporter(
        f"churn stream: {args.n} initial datasets, {args.events} events, "
        f"{service.n_shards} shard(s)",
        ["event", "kind", "detail", "latency (ms)", "hits", "upgrades",
         "misses", "live"],
    )
    for ei, (kind, payload) in enumerate(events):
        before = service.cache.snapshot()
        t0 = time.perf_counter()
        if kind == "queries":
            service.search_batch(payload)
            detail = f"{len(payload)} queries"
        elif kind == "add":
            receipt = service.add_datasets(payload)
            detail = f"+{len(payload)} datasets" + (
                " (rebuilt)" if receipt["rebuilt"] else ""
            )
        else:
            service.remove_datasets(payload)
            detail = f"-{payload}"
        ms = (time.perf_counter() - t0) * 1e3
        after = service.cache.snapshot()
        table.add_row(
            [ei, kind, detail, ms,
             after["hits"] - before["hits"],
             after["upgrades"] - before["upgrades"],
             after["misses"] - before["misses"],
             service.n_live]
        )
    table.print()
    snap = service.cache.snapshot()
    print(
        f"cache after churn: hit rate {snap['hit_rate']:.2f}, "
        f"{snap['upgrades']} upgrades, {snap['invalidations']} invalidations "
        f"(mutations do not flush the cache)"
    )
    service.close()
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import snapshot as snapshot_mod

    if args.snapshot_command == "inspect":
        print(_json.dumps(snapshot_mod.inspect(args.path), indent=2))
        return 0
    # build: synthesize a lake, warm every shard index, persist.
    service = _build_lake_service(args)
    print(f"building {args.n} datasets (d = {args.dim}, family = "
          f"{args.family}) on {args.shards} shard(s) ...")
    service.warm()
    info = service.save(args.out, generation=args.generation)
    service.close()
    print(f"wrote {info['path']}: kind {info['kind']!r}, generation "
          f"{info['generation']}, {info['n_arrays']} segments, "
          f"{info['file_bytes']} bytes")
    print(f"serve it: python -m repro.cli serve --snapshot {args.out} "
          f"--workers 4")
    return 0


def cmd_lake_stats(args: argparse.Namespace) -> int:
    from repro.bench.harness import TableReporter

    lake, _rng = _make_lake(args)
    table = TableReporter(
        f"synthetic lake: {args.n} datasets, d = {args.dim}, family = {args.family}",
        ["dataset", "points", "mean", "std"],
    )
    for i, pts in enumerate(lake):
        table.add_row(
            [i, pts.shape[0],
             np.round(pts.mean(axis=0), 3).tolist(),
             np.round(pts.std(axis=0), 3).tolist()]
        )
    table.print()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the analysis package is pure stdlib, but keeping it
    # off the demo/serve import path means a lint-only breakage cannot take
    # the serving CLI down with it.
    from repro.analysis.runner import main as lint_main

    return lint_main(list(args.paths))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distribution-aware dataset search (PODS 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo-ptile", help="run a percentile-query demo")
    _add_lake_args(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--region-lo", type=float, default=0.0)
    p.add_argument("--region-hi", type=float, default=0.5)
    p.add_argument("--theta", type=float, nargs=2, default=(0.2, 0.6),
                   metavar=("A", "B"))
    p.set_defaults(func=cmd_demo_ptile)

    p = sub.add_parser("demo-pref", help="run a preference-query demo")
    _add_lake_args(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--tau", type=float, default=0.8)
    p.set_defaults(func=cmd_demo_pref)

    p = sub.add_parser("lake-stats", help="summarize a generated lake")
    _add_lake_args(p)
    p.set_defaults(func=cmd_lake_stats)

    p = sub.add_parser(
        "serve", help="serve a query service over HTTP (JSON endpoint)"
    )
    _add_lake_args(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--sample-size", type=int, default=None,
                   help="coreset size override (default: theoretical bound)")
    p.add_argument("--shards", type=int, default=4,
                   help="number of repository shards")
    p.add_argument("--cache-capacity", type=int, default=4096,
                   help="leaf-result cache capacity (0 disables)")
    p.add_argument("--engine", choices=DYNAMIC_ENGINES, default="kd",
                   help="range-search backend for every shard: 'kd', the "
                        "one serving backend (the static 'rangetree' is the "
                        "paper's textbook structure for the theorem benches)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--warm", action="store_true",
                   help="build shard indexes before accepting requests")
    p.add_argument("--capacity", type=int, default=None,
                   help="dataset capacity the accuracy contract is sized "
                        "for (enables live ingestion up to this count "
                        "without precision drift)")
    p.add_argument("--trace", action="store_true",
                   help="trace every batch (per-stage spans on /metrics; "
                        "responses include a 'trace' span tree)")
    p.add_argument("--slow-log", type=float, default=None, metavar="MS",
                   help="log queries slower than MS milliseconds "
                        "(dump via GET /stats/slow)")
    p.add_argument("--snapshot", default=None, metavar="PATH",
                   help="serve from this snapshot file (mmap cold start); "
                        "built from the synthetic lake first if missing")
    p.add_argument("--workers", type=int, default=1,
                   help="pre-forked serving processes (> 1 needs --snapshot; "
                        "worker 0 is the single writer)")
    p.add_argument("--max-inflight", type=int, default=None, metavar="N",
                   help="admission control: cap concurrently-executing "
                        "search requests at N; excess load is shed with "
                        "429 + Retry-After (default: unbounded)")
    p.add_argument("--max-queue", type=int, default=0, metavar="N",
                   help="let N excess search requests wait briefly for an "
                        "inflight slot before shedding (default 0)")
    p.add_argument("--failpoints", default=None, metavar="SPEC",
                   help="arm fault injection, e.g. 'shard_eval=sleep:0.2' "
                        "(testing only; see repro.service.faults)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "federate",
        help="run a scatter-gather coordinator over running 'repro serve' "
             "nodes (circuit breakers, hedged retries; a node that cannot "
             "answer puts its whole slice in the maybe band)",
    )
    p.add_argument("--node", action="append", default=[], metavar="URL",
                   help="a node's base URL, e.g. http://10.0.0.2:8765 "
                        "(repeatable; more can join later via POST /nodes)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8770)
    p.add_argument("--rpc-timeout", type=float, default=5.0, metavar="S",
                   help="per-attempt node RPC timeout, seconds")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries per node call after a failed attempt")
    p.add_argument("--hedge-delay", type=float, default=0.25, metavar="S",
                   help="fire one duplicate RPC if the primary hasn't "
                        "answered after S seconds (0 disables hedging)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive failures that trip a node's breaker")
    p.add_argument("--breaker-reset", type=float, default=2.0, metavar="S",
                   help="seconds an open breaker waits before one "
                        "half-open probe")
    p.add_argument("--merge-margin", type=float, default=0.15,
                   help="fraction of a query deadline reserved for the "
                        "merge phase")
    p.add_argument("--trace", action="store_true",
                   help="record scatter/gather/merge spans per batch")
    p.set_defaults(func=cmd_federate)

    p = sub.add_parser(
        "snapshot",
        help="build or inspect engine snapshot files (mmap cold starts)",
    )
    snap_sub = p.add_subparsers(dest="snapshot_command", required=True)
    b = snap_sub.add_parser(
        "build", help="build a warmed query service over a synthetic lake "
                      "and persist it"
    )
    _add_lake_args(b)
    b.add_argument("out", help="snapshot file to write")
    b.add_argument("--eps", type=float, default=0.1)
    b.add_argument("--sample-size", type=int, default=None)
    b.add_argument("--shards", type=int, default=4)
    b.add_argument("--cache-capacity", type=int, default=4096)
    b.add_argument("--capacity", type=int, default=None)
    b.add_argument("--generation", type=int, default=0,
                   help="generation counter to stamp into the header")
    b.set_defaults(func=cmd_snapshot)
    i = snap_sub.add_parser("inspect", help="print a snapshot's header summary")
    i.add_argument("path", help="snapshot file to inspect")
    i.set_defaults(func=cmd_snapshot)

    p = sub.add_parser(
        "demo-mutation",
        help="run a churn stream (queries + live ingest/remove) and report "
             "cache warmth",
    )
    # Not _add_lake_args: churn data is always ambient Gaussian blobs (the
    # mutation_workload distribution), so a --family flag would be a no-op.
    p.add_argument("--n", type=int, default=24, help="initial dataset count")
    p.add_argument("--dim", type=int, default=1, help="dimension d")
    p.add_argument("--median-size", type=int, default=150,
                   help="points per dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--sample-size", type=int, default=16,
                   help="coreset size override (default 16: keeps the demo "
                        "interactive)")
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--events", type=int, default=20,
                   help="length of the churn stream")
    p.add_argument("--capacity", type=int, default=None,
                   help="accuracy-contract capacity (default: 4x the "
                        "initial dataset count)")
    p.set_defaults(func=cmd_demo_mutation)

    p = sub.add_parser(
        "lint",
        help="run the repo's AST invariant checks (lock discipline, "
             "hot-path purity, failpoint guards, wire and snapshot schemas)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
