"""BENCH-RESILIENCE — deadline-bounded tail latency and crash recovery.

Measures the fault-tolerance layer end to end:

- **deadline section** — a shard-evaluation failpoint injects a fixed
  per-shard stall, then ``search_batch`` runs under a sweep of
  ``deadline_ms`` budgets.  Reported per budget: latency p50/p99, the
  fraction of queries answered degraded, and (asserted, always) the
  soundness containment ``must ⊆ exact ⊆ must ∪ maybe`` of every
  degraded answer against a clean twin service.  The point of the
  numbers: p99 tracks the *budget*, not the injected stall — a deadline
  that does not cap tail latency is decoration.
- **recovery section** (fork-gated) — a 3-worker supervisor fleet under
  live ``/search/batch`` traffic has a non-writer worker SIGKILLed.
  Reported: time from kill to respawn, requests served, HTTP 5xx count
  (asserted **zero** — in-flight connection resets are transport errors,
  not served errors), and transport-error count for honesty.

Targets (asserted in full mode):

- with a 30 ms/shard stall armed, p99 under a 50 ms budget must come in
  under the unbounded p99 (the stall times the shard count);
- every degraded answer satisfies the containment (asserted in smoke
  mode too — soundness is not a perf target);
- the killed worker respawns in under 5 s and zero 5xx are served.

Writes ``BENCH_resilience.json`` next to the repo root.  ``--smoke``
runs a tiny sweep (and skips the JSON) for CI; the recovery section is
skipped cleanly on platforms without ``os.fork``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import tempfile
import threading
import time
import urllib.error

import numpy as np

from repro.bench.harness import TableReporter, http_post_json, json_report
from repro.core.framework import Repository
from repro.service import QueryService, faults
from repro.service.server import expression_to_json
from repro.service.supervisor import ServiceSupervisor, fork_available
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

EPS = 0.2
SAMPLE_SIZE = 12
SEED = 2026
N_SHARDS = 4
REPORT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_resilience.json",
)

STALL_S = 0.03            # injected per-shard-eval stall
BOUNDED_BUDGET_MS = 50.0  # the budget whose p99 must beat unbounded p99
RESPAWN_TARGET_S = 5.0


def build_workload(n_datasets: int, n_queries: int, dim: int):
    lake = synthetic_data_lake(
        n_datasets, dim, np.random.default_rng(SEED),
        family="clustered", median_size=200,
    )
    queries = batched_query_workload(
        n_queries, dim, np.random.default_rng(SEED + 1)
    )
    return lake, queries


def build_service(lake) -> QueryService:
    return QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=N_SHARDS,
        eps=EPS,
        sample_size=SAMPLE_SIZE,
        seed=SEED,
    )


def assert_containment(degraded, exact) -> None:
    for deg, ex in zip(degraded, exact):
        exact_set = set(ex.indexes)
        if not deg.stats.get("degraded"):
            assert sorted(deg.indexes) == sorted(ex.indexes), (
                "undegraded answer diverged from exact"
            )
            continue
        must = set(deg.indexes)
        maybe = set(deg.maybe_bitmap.to_list())
        assert must <= exact_set <= must | maybe, (
            f"containment violated: must={sorted(must)} "
            f"exact={sorted(exact_set)} maybe={sorted(maybe)}"
        )


def run_deadline_point(
    lake, queries, exact, budget_ms, repeats
) -> dict:
    """Latency distribution + degraded fraction at one budget.

    A fresh service per point: the leaf cache must not smuggle exact
    answers from an earlier, more generous budget into this one.
    """
    svc = build_service(lake)
    try:
        faults.arm(f"shard_eval=sleep:{STALL_S}")
        latencies = []
        degraded = 0
        total = 0
        for _ in range(repeats):
            svc.invalidate_cache()
            t0 = time.perf_counter()
            results = (
                svc.search_batch(queries, deadline_ms=budget_ms)
                if budget_ms is not None
                else svc.search_batch(queries)
            )
            latencies.append(time.perf_counter() - t0)
            degraded += sum(1 for r in results if r.stats.get("degraded"))
            total += len(results)
            faults.disarm()
            assert_containment(results, exact)
            faults.arm(f"shard_eval=sleep:{STALL_S}")
    finally:
        faults.disarm()
        svc.close()
    lat = np.asarray(latencies)
    return {
        "budget_ms": budget_ms,
        "repeats": repeats,
        "p50_ms": float(np.percentile(lat, 50) * 1e3),
        "p99_ms": float(np.percentile(lat, 99) * 1e3),
        "degraded_fraction": degraded / total,
        "containment_ok": True,
    }


def run_recovery(lake, queries, n_workers: int, warm_requests: int) -> dict:
    """Kill a non-writer under traffic; measure respawn + served errors."""
    svc = build_service(lake)
    svc.warm()
    workdir = tempfile.mkdtemp()
    snap = os.path.join(workdir, "resilience.snap")
    svc.save(snap)
    svc.close()

    sup = ServiceSupervisor(
        snap, workers=n_workers, port=0, monitor_interval=0.05,
        backoff_base=0.1, quiet=True,
    )
    statuses: list[int] = []
    transport_errors = 0
    stop = threading.Event()
    try:
        host, port = sup.start()
        body = json.dumps(
            {"expressions": [expression_to_json(q) for q in queries]}
        ).encode()
        url = f"http://{host}:{port}/search/batch"

        def traffic() -> None:
            nonlocal transport_errors
            while not stop.is_set():
                try:
                    # 429s are backpressure, not failures: honor the
                    # gate's Retry-After before counting the request.
                    statuses.append(
                        http_post_json(url, body, timeout=10, stop=stop)
                    )
                except (urllib.error.URLError, ConnectionError, OSError):
                    transport_errors += 1
                time.sleep(0.005)

        thread = threading.Thread(target=traffic, daemon=True)
        thread.start()
        while len(statuses) < warm_requests:
            time.sleep(0.01)

        victim_slot = n_workers - 1  # never the writer
        victim = sup.pids[victim_slot]
        t_kill = time.monotonic()
        os.kill(victim, signal.SIGKILL)
        respawn_s = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            health = sup.health()
            worker = health["workers"][victim_slot]
            if worker["alive"] and worker["restarts"] >= 1:
                respawn_s = time.monotonic() - t_kill
                break
            time.sleep(0.02)
        # let traffic settle over the healed fleet
        settled = len(statuses)
        deadline = time.monotonic() + 10
        while len(statuses) < settled + warm_requests and (
            time.monotonic() < deadline
        ):
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=10)
    finally:
        stop.set()
        sup.stop()
        os.unlink(snap)
        os.rmdir(workdir)

    fivexx = sum(1 for s in statuses if s >= 500)
    assert respawn_s is not None, "killed worker never respawned"
    assert fivexx == 0, f"served {fivexx} HTTP 5xx during recovery"
    return {
        "workers": n_workers,
        "requests_served": len(statuses),
        "served_5xx": fivexx,
        "transport_errors": transport_errors,
        "kill_to_respawn_s": respawn_s,
        "respawn_within_target": respawn_s <= RESPAWN_TARGET_S,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-datasets", type=int, default=60)
    parser.add_argument("--n-queries", type=int, default=16)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=12)
    parser.add_argument(
        "--budgets-ms", type=float, nargs="+",
        default=[5.0, BOUNDED_BUDGET_MS, 2000.0],
    )
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI sweep: fewer repeats/queries, no JSON report",
    )
    args = parser.parse_args()
    if args.smoke:
        args.n_datasets, args.n_queries, args.repeats = 24, 6, 3
        args.budgets_ms = [5.0, BOUNDED_BUDGET_MS]

    lake, queries = build_workload(
        args.n_datasets, args.n_queries, args.dim
    )
    clean = build_service(lake)
    exact = clean.search_batch(queries)
    clean.close()

    table = TableReporter(
        "BENCH-RESILIENCE: deadline budgets under a "
        f"{STALL_S * 1e3:.0f}ms/shard injected stall",
        ["budget (ms)", "p50 (ms)", "p99 (ms)", "degraded frac"],
    )
    rows = []
    for budget in [None, *args.budgets_ms]:
        row = run_deadline_point(
            lake, queries, exact, budget, args.repeats
        )
        rows.append(row)
        table.add_row(
            [
                "unbounded" if budget is None else budget,
                row["p50_ms"],
                row["p99_ms"],
                row["degraded_fraction"],
            ]
        )
    table.print()
    print(
        f"containment must ⊆ exact ⊆ must∪maybe asserted on all "
        f"{args.repeats}x{args.n_queries} queries at every budget"
    )

    unbounded = rows[0]
    bounded = next(
        (r for r in rows if r["budget_ms"] == BOUNDED_BUDGET_MS), None
    )
    if not args.smoke and bounded is not None:
        assert bounded["p99_ms"] < unbounded["p99_ms"], (
            f"deadline did not cap tail latency: bounded p99 "
            f"{bounded['p99_ms']:.1f}ms >= unbounded "
            f"{unbounded['p99_ms']:.1f}ms"
        )
        assert bounded["degraded_fraction"] > 0.0, (
            "the stall never triggered degradation — the sweep is vacuous"
        )

    recovery_rows = []
    if fork_available():
        recovery = run_recovery(
            lake, queries, args.workers,
            warm_requests=10 if args.smoke else 40,
        )
        recovery_rows.append(recovery)
        rec_table = TableReporter(
            "BENCH-RESILIENCE: non-writer SIGKILL under live traffic",
            ["workers", "requests", "5xx", "transport errs",
             "respawn (s)"],
        )
        rec_table.add_row(
            [
                recovery["workers"],
                recovery["requests_served"],
                recovery["served_5xx"],
                recovery["transport_errors"],
                recovery["kill_to_respawn_s"],
            ]
        )
        rec_table.print()
        if not args.smoke:
            assert recovery["respawn_within_target"], (
                f"respawn took {recovery['kill_to_respawn_s']:.2f}s "
                f"(> {RESPAWN_TARGET_S}s)"
            )
    else:
        print("recovery section skipped: platform has no os.fork")

    if args.smoke:
        print("smoke mode: JSON report not written")
        return
    path = json_report(
        REPORT,
        rows + recovery_rows,
        meta={
            "bench": "resilience",
            "stall_s": STALL_S,
            "bounded_budget_ms": BOUNDED_BUDGET_MS,
            "engine": "kd",
            "n_shards": N_SHARDS,
            "n_datasets": args.n_datasets,
            "n_queries": args.n_queries,
            "fork_available": fork_available(),
        },
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
