"""Socket-level benchmark of ``repro serve`` / ``repro federate``.

    python benchmarks/e2e/run.py --seed S [--workload W] [--trace 0|1]
                                 [--seconds T] [--smoke] [--repeat K]

runs the workloads (all four, or one), untraced (``--trace 0``: the
end-to-end metrics), traced (``--trace 1``: the per-layer metrics), or
both when ``--trace`` is not given.  Every run checks every answer and
prints every metric by name with its unit, then its result as one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the command
exits non-zero on any violation.  With ``--workload`` and ``--trace``
(the driver's form) that object is the last line of the output; otherwise
the runs are also written to ``benchmarks/e2e/out/results.json`` with the
host fingerprint.  README.md explains workloads, metrics and how to read
a trace file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parents[1]
if not (ROOT_DIR / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to benchmark: {ROOT_DIR / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT_DIR / "src"))

import numpy as np  # noqa: E402

import spans as span_tools  # noqa: E402
import workloads  # noqa: E402
from client import (  # noqa: E402
    Connection,
    answers,
    drive_all,
    get,
    indexes,
    take_queries,
)
from hostinfo import fingerprint, load_average  # noqa: E402
from oracle import ExactLake  # noqa: E402
from procs import Child, Fleet  # noqa: E402
from repro.core.framework import Repository  # noqa: E402
from repro.core.predicates import Predicate  # noqa: E402
from repro.service import QueryService  # noqa: E402

OUT = HERE / "out"
SPEC = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Set-ups per untraced run, whose ``setup_s`` is their median: at least
#: 3, and up to 7 while they took under 6 s together.  One spawn does not
#: repeat: where the kernel puts the child's build threads decides between
#: 0.7 and 1.5 s for the same build (README, "Baseline observations"), and
#: the first spawns after a pause land differently from those that follow.
MIN_SPAWNS, MAX_SPAWNS, SPAWN_BUDGET_S = 3, 7, 6.0
RESTART_PROBES = 32  # answers recorded before the restart, replayed after
TRACED_REQUESTS = 300  # cap on the traced continuation
PROBE_REQUESTS = 64  # fresh-connection / product-tracer / direct-to-node probes
DEGRADE_PROBES = 32  # batches answered from the synopsis screen alone
AUDIT_SAMPLE = 128  # single-leaf answers through the slack audit
LIBRARY_SAMPLE = 8  # expressions cross-checked against Expression.ground_truth


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    nodes: list  # QueryService children; nodes[0] is the one that restarts
    front: Child  # the child clients talk to (the coordinator, if any)
    setup_s: float

    @property
    def children(self) -> list:
        return self.nodes if self.front in self.nodes else self.nodes + [self.front]


def hand_over(lake: list, scratch: Path) -> dict:
    """The lake as two arrays on disk: all points, and points per dataset."""
    files = {"points": str(scratch / "points.npy"), "sizes": str(scratch / "sizes.npy")}
    np.save(files["points"], np.concatenate(lake))
    np.save(files["sizes"], np.array([len(a) for a in lake]))
    return files


def deploy(fleet: Fleet, workload, files: dict, trace_build: bool) -> Deployment:
    """Spawn the workload's processes; returns once all report READY."""
    t0 = time.perf_counter()
    spec = {
        "role": "node",
        **files,
        **workloads.ACCURACY,
        "capacity": workload.capacity,
        "bounding_box": workload.bounding_box,
        "trace_build": trace_build,
    }
    if not workload.nodes:
        node = fleet.spawn("node", spec)
        node.wait_ready()
        return Deployment([node], node, time.perf_counter() - t0)
    # Every node in the lake's global accuracy frame, built concurrently.
    box = Repository.from_arrays(workload.lake).bounding_box()
    spec["bounding_box"] = [box.lo.tolist(), box.hi.tolist()]
    edges = np.linspace(0, len(workload.lake), workload.nodes + 1).astype(int)
    nodes = [
        fleet.spawn("node", {**spec, "slice": [int(lo), int(hi)]})
        for lo, hi in zip(edges, edges[1:])
    ]
    for node in nodes:
        node.wait_ready()
    urls = [f"http://127.0.0.1:{node.port}" for node in nodes]
    front = fleet.spawn("coordinator", {"role": "coordinator", "nodes": urls})
    front.wait_ready()
    return Deployment(nodes, front, time.perf_counter() - t0)


def stats_of(deployment: Deployment) -> dict:
    """``/stats`` of every node, summed where it counts, plus the front's."""
    per_node = [json.loads(get(n.port, "/stats")) for n in deployment.nodes]
    out: dict = {"nodes": per_node}
    if deployment.front not in deployment.nodes:
        out["federation"] = json.loads(get(deployment.front.port, "/stats"))["federation"]
    return out


def _delta(before: dict, after: dict, *path: str) -> float:
    """Sum over nodes of the growth of one ``/stats`` counter."""
    def read(stats: dict) -> float:
        total = 0.0
        for node in stats["nodes"]:
            value = node
            for key in path:
                value = value[key]
            total += value
        return total

    return read(after) - read(before)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
@dataclass
class Verdict:
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # ordinal -> (phase, why)
    correct_timed_exprs: int = 0
    checked: int = 0
    audited: int = 0
    maybe_fraction: float = 0.0

    def fail(self, ordinal: int, phase: str, why: str) -> None:
        self.failures.setdefault(ordinal, (phase, why))


class Reference:
    """A single in-process service over the whole lake (federated oracle)."""

    def __init__(self, lake: list, defaults: dict) -> None:
        accuracy = workloads.ACCURACY
        self.service = QueryService(
            repository=Repository.from_arrays(lake),
            n_shards=defaults["shards"],
            engine=defaults["engine"],
            eps=accuracy["eps"],
            sample_size=accuracy["sample_size"],
            seed=accuracy["service_seed"],
        )
        self._answers: dict = {}

    def answer(self, expr) -> np.ndarray:
        if id(expr) not in self._answers:
            self._answers[id(expr)] = self.service.search(expr).bitmap.to_array()
        return self._answers[id(expr)]

    def close(self) -> None:
        self.service.close()


def verify(
    workload,
    samples: list,
    replays: list,
    contract: dict,
    seed: int,
    reference: Optional[Reference],
) -> Verdict:
    """Check every recorded reply, in the order the server saw them.

    ``replays`` pairs each pre-restart probe with its post-restart replay;
    the two must report the same datasets.
    """
    verdict = Verdict()
    lake = ExactLake(workload.lake)
    ordered = sorted(samples, key=lambda s: s.start)
    verdict.attempted = len(ordered)
    ordinal_of = {id(s): i for i, s in enumerate(ordered)}
    singles = []  # (ordinal, leaf, answer) candidates for the slack audit
    queried = []  # (ordinal, expression) candidates for the library check
    maybe_sizes = []
    for i, sample in enumerate(ordered):
        request = sample.request
        if sample.status != 200:
            verdict.fail(i, sample.phase, f"HTTP {sample.status}: {sample.data[:160]!r}")
            continue
        if request.kind == "add":
            expected = lake.add(request.payload)
            if sample.json()["indexes"] != expected:
                verdict.fail(i, sample.phase, f"add receipt is not {expected}")
            continue
        if request.kind == "remove":
            lake.remove(request.payload)
            continue
        results = answers(sample)
        if len(results) != len(request.exprs):
            verdict.fail(i, sample.phase, f"{len(results)} results for {len(request.exprs)}")
            continue
        for expr, result in zip(request.exprs, results):
            reported = indexes(result)
            if sample.phase == "degrade":
                # Screened bounds: exact must lie inside must ∪ maybe.
                maybe = np.asarray(result.get("maybe_indexes", []), dtype=np.int64)
                maybe_sizes.append(len(maybe) / lake.n)
                why = lake.check(expr, np.concatenate([reported, maybe]))
            elif result.get("degraded"):
                why = "healthy traffic got a degraded answer"
            elif sample.phase == "direct":
                # Node 0 alone, which owns the first slice of the global
                # frame: exactly the single service's answer cut to it.
                whole = reference.answer(expr)
                same = np.array_equal(reported, whole[whole < contract["n_datasets"]])
                why = None if same else "node 0 differs from the single service on its slice"
            else:
                why = lake.check(expr, reported)
                if why is None and reference is not None:
                    if not np.array_equal(reported, reference.answer(expr)):
                        why = "differs from a single service over the whole lake"
                if isinstance(expr, Predicate):
                    singles.append((i, expr, reported))
            verdict.checked += 1
            if why is not None:
                verdict.fail(i, sample.phase, why)
        queried.append((i, request.exprs[0]))

    rng = np.random.default_rng([seed, 9])
    for j in rng.permutation(len(singles))[:AUDIT_SAMPLE]:
        i, leaf, reported = singles[j]
        why = lake.audit(leaf, reported, contract["eps"], contract["eps_effective"])
        verdict.audited += 1
        if why is not None:
            verdict.fail(i, ordered[i].phase, why)
    for j in rng.permutation(len(queried))[:LIBRARY_SAMPLE]:
        i, expr = queried[j]
        why = lake.matches_library(expr)
        if why is not None:
            verdict.fail(i, ordered[i].phase, why)
    for before, after in replays:
        if after.status != 200 or before.status != 200:
            continue  # already a failure above
        same = all(
            np.array_equal(indexes(a), indexes(b))
            for a, b in zip(answers(before), answers(after))
        )
        if not same:
            verdict.fail(ordinal_of[id(after)], after.phase, "answer changed across restart")
    if maybe_sizes:
        verdict.maybe_fraction = float(np.mean(maybe_sizes))
    # Counted last: the audits above may have failed a request after the
    # recall check passed it.
    verdict.correct_timed_exprs = sum(
        len(sample.request.exprs)
        for i, sample in enumerate(ordered)
        if sample.phase == "timed" and i not in verdict.failures
    )
    return verdict


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def pct(values: list, q: float) -> float:
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(values, q))


def enough(setups: list) -> bool:
    """Whether the set-ups timed so far give the median of an untraced run."""
    return len(setups) >= MAX_SPAWNS or (
        len(setups) >= MIN_SPAWNS and sum(setups) >= SPAWN_BUDGET_S
    )


def snapshot(deployment: Deployment, scratch: Path) -> tuple:
    """``QueryService.save`` in the first node; returns (path, reply)."""
    path = str(scratch / "service.snap")
    return path, deployment.nodes[0].command("save", path=path)


def restart(fleet, deployment: Deployment, stream, scratch: Path, n_probes: int):
    """Snapshot the first node, kill it, restart it from the file, replay.

    Returns ``(restart_s, save reply, the restarted child, replay pairs,
    the connection used)``; ``restart_s`` runs from the spawn to the first
    replayed reply.  Probes and replays are single ``/search`` requests on
    one connection each, so none waits out the keep-alive stall.
    """
    link = Connection(deployment.front.port, persistent=False)
    probes = [workloads.search(r.exprs[0]) for r in take_queries(stream, n_probes)]
    before = [link.send(r, "probe") for r in probes]
    path, saved = snapshot(deployment, scratch)
    old = deployment.nodes[0]
    federated = deployment.front is not old
    port = old.port if federated else 0  # the coordinator knows the node by URL
    fleet.kill(old)
    t0 = time.perf_counter()
    new = fleet.spawn("restart", {"role": "node", "snapshot": path, "port": port})
    new.wait_ready()
    deployment.nodes[0] = new
    if not federated:
        deployment.front = new
        link.port = new.port
    after = [link.send(probes[0], "replay")]
    restart_s = time.perf_counter() - t0
    after += [link.send(r, "replay") for r in probes[1:]]
    return restart_s, saved, new, list(zip(before, after)), link


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload; returns metrics, verdict and context."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    if smoke:
        seconds = 4.0 if trace else 2.0  # every phase 2 s
    try:
        with Fleet(scratch) as fleet:
            return _run(fleet, scratch, name, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(fleet, scratch, name, seed, seconds, trace, smoke) -> dict:
    load_before = load_average()
    laps: dict = {}  # where this run's own wall time went, by phase
    mark = [time.perf_counter()]

    def lap(phase: str) -> None:
        now = time.perf_counter()
        laps[phase] = laps.get(phase, 0.0) + now - mark[0]
        mark[0] = now

    workload = workloads.build(name, seed, smoke)
    files = hand_over(workload.lake, scratch)
    lap("generate")

    setups = []
    while True:
        deployment = deploy(fleet, workload, files, trace_build=trace)
        setups.append(deployment.setup_s)
        if trace or smoke or enough(setups):
            break
        for child in deployment.children:
            fleet.kill(child)
    built = [dict(node.ready) for node in deployment.nodes]
    contract = built[0]["contract"]
    defaults = built[0]["defaults"]
    lap("setup")

    # One connection per warm-up request: nothing waits out the stall.
    warm = Connection(deployment.front.port, persistent=False)
    for request in workload.warmup:
        warm.send(request, "warmup")
    build_spans = []  # one list per node: span ids are per process
    if trace:
        for node in deployment.nodes:
            build_spans.append(node.command("spans")["spans"])
            node.command("trace_off")
    lap("warmup")

    # -- the timed phase: spans off, every connection at once ----------
    timed_s = seconds / 2 if trace else seconds
    connections = [Connection(deployment.front.port) for _ in workload.streams]
    conn = connections[0]
    stats_before = stats_of(deployment)
    timed = drive_all(connections, workload.streams, "timed", timed_s)
    stats_after = stats_of(deployment)
    peak_rss_mb = sum(child.peak_rss_mb() for child in deployment.children)
    for extra in connections[1:]:
        extra.close()
    wall_s = max(s.end for s in timed) - min(s.start for s in timed)
    lap("timed")

    side: list = []  # connections of the side probes and of the restart
    replays: list = []
    if trace:
        shrink = 4 if smoke else 1  # smoke sends a quarter of every probe
        traced_spans, side = traced_phases(
            deployment, workload, conn, seconds - timed_s, shrink
        )
        lap("traced")
        restart_s, saved, restarted, replays, link = restart(
            fleet, deployment, workload.streams[0], scratch, RESTART_PROBES // shrink
        )
        side.append(link)
    else:
        saved = snapshot(deployment, scratch)[1]
    conn.close()
    lap("snapshot")
    samples = [s for c in [warm] + connections + side for s in c.log]

    reference = Reference(workload.lake, defaults["serve"]) if workload.nodes else None
    try:
        verdict = verify(workload, samples, replays, contract, seed, reference)
    finally:
        if reference is not None:
            reference.close()
    lap("verify")

    queries = [s for s in timed if s.request.kind == "query" and s.status == 200]
    latencies = [s.ms for s in queries]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load_average_before": load_before,
        "phases_s": laps,
        "serving_defaults": defaults,
        "attempted": verdict.attempted,
        "failed": len(verdict.failures),
        "failures": [
            {"ordinal": i, "phase": phase, "why": why}
            for i, (phase, why) in sorted(verdict.failures.items())
        ],
    }
    if not trace:
        result["setup_spawns_s"] = setups  # setup_s is their median
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "req_p50_ms": pct(latencies, 50),
            "req_p95_ms": pct(latencies, 95),
            "throughput_qps": verdict.correct_timed_exprs / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "snapshot_mb": saved["bytes"] / 1e6,
        }
        return result

    requests = traced_requests(conn, traced_spans)
    metrics = count_metrics(
        workload, timed, queries, verdict, stats_before, stats_after, conn, side
    )
    metrics.update(build_metrics(built, build_spans))
    metrics.update(span_metrics(workload, requests, phase_ms([conn], "traced"), latencies))
    metrics["snapshot.save_s"] = saved["save_s"]
    metrics["snapshot.load_s"] = restarted.ready["build_s"]
    metrics["snapshot.restart_s"] = restart_s
    metrics["snapshot.bytes_per_dataset"] = saved["bytes"] / saved["n_datasets"]
    # A layer that must not run on this workload reads an explicit 0; any
    # other metric nobody computed is an error, not a 0.
    computed_idle = set(metrics) & set(workload.idle)
    if computed_idle:
        raise RuntimeError(f"{name} declares {sorted(computed_idle)} idle, yet measured them")
    metrics.update(dict.fromkeys(workload.idle, 0.0))
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: {sorted(set(metrics) ^ set(PER_LAYER))}"
        )
    result["metrics"] = metrics
    if not smoke:
        write_trace(name, requests, conn)
    return result


def traced_phases(deployment, workload, conn, seconds, shrink) -> tuple:
    """The traced continuation and the side probes of a ``--trace 1`` run.

    Returns the front child's spans and the side probes' connections.
    """
    front = deployment.front
    stream = workload.streams[0]
    n_probe = PROBE_REQUESTS // shrink
    front.command("trace_serve")
    conn.drive(stream, "traced", seconds=seconds, limit=TRACED_REQUESTS)
    if "degrade.screen_ms" not in workload.idle:
        # What a synopsis-first tier would prune: the same kind of batch,
        # answered from the screen alone (never-seen leaves, so none cached).
        for request in take_queries(stream, DEGRADE_PROBES // shrink):
            conn.send(workloads.batch(request.exprs, degrade=True), "degrade")
    spans = front.command("spans")["spans"]
    front.command("trace_off")

    fresh = Connection(front.port, persistent=False)
    fresh.drive(stream, "fresh", limit=n_probe)
    side = [fresh]
    if "observability.trace_overhead_ratio" not in workload.idle:
        # The product's own tracer, request by request, on the same pool.
        for request in take_queries(stream, n_probe):
            conn.send(workloads.search(request.exprs[0], trace=True), "product_trace")
    if workload.nodes:
        direct = Connection(deployment.nodes[0].port)
        for request in take_queries(stream, n_probe):
            direct.send(request, "direct")
        direct.close()
        side.append(direct)
    return spans, side


def phase_ms(connections: list, phase: str) -> list:
    return [
        s.ms
        for c in connections
        for s in c.log
        if s.phase == phase and s.status == 200 and s.request.kind == "query"
    ]


def count_metrics(workload, timed, queries, verdict, before, after, conn, side) -> dict:
    """Counts from ``/stats`` deltas over the untraced phase, and the client's view.

    Metrics of a layer the workload declares idle are left out.
    """
    m: dict = {}
    latencies = [s.ms for s in queries]
    hits = _delta(before, after, "cache", "hits")
    misses = _delta(before, after, "cache", "misses")
    upgrades = _delta(before, after, "cache", "upgrades")
    m["cache.hit_rate"] = hits / (hits + misses + upgrades)
    m["cache.upgrades"] = upgrades
    m["cache.evictions"] = _delta(before, after, "cache", "evictions")
    m["cache.resident_bytes"] = sum(n["cache"]["resident_bytes"] for n in after["nodes"])
    plan_hits = _delta(before, after, "plan_cache", "hits")
    m["planner.plan_cache_hit_rate"] = plan_hits / (
        plan_hits + _delta(before, after, "plan_cache", "misses")
    )
    raw = _delta(before, after, "telemetry", "leaves_raw")
    unique = _delta(before, after, "telemetry", "leaves_unique")
    m["planner.dedup_ratio"] = 1.0 - unique / raw
    m["sharding.shard_tasks"] = _delta(before, after, "executor", "shard_tasks")

    adds = [s for s in timed if s.request.kind == "add" and s.status == 200]
    receipts = [s.json() for s in adds]
    m["sharding.delta_size_max"] = max(
        [r["delta_size"] for r in receipts] + [n["delta_size"] for n in after["nodes"]]
    )
    m["sharding.rebuilds"] = sum(1 for r in receipts if r["rebuilt"])
    if "ingest.samples" not in workload.idle:
        m["ingest.samples"] = len(adds)
        m["ingest.p50_ms"] = pct([s.ms for s in adds], 50)
        m["ingest.p95_ms"] = pct([s.ms for s in adds], 95)

    if workload.nodes:
        def grown(key: str) -> float:
            return sum(
                a[key] - b[key]
                for a, b in zip(after["federation"]["nodes"], before["federation"]["nodes"])
            )

        m["federation.retries"] = grown("retries")
        m["federation.hedges"] = grown("hedges")
        m["federation.degraded_fraction"] = grown("degraded_served") / grown("ok_calls")
        m["federation.overhead_ratio"] = pct(latencies, 50) / pct(phase_ms(side, "direct"), 50)

    m["client.samples"] = len(latencies)
    m["client.p99_ms"] = pct(latencies, 99)
    m["client.max_ms"] = max(latencies)
    m["client.error_rate"] = len(verdict.failures) / verdict.attempted
    m["client.mean_out_size"] = float(
        np.mean([r.get("out_size", len(r.get("indexes", ()))) for s in queries[:256]
                 for r in answers(s)])
    )
    m["server.response_bytes"] = float(np.mean([len(s.data) for s in queries]))
    m["server.fresh_conn_p50_ms"] = pct(phase_ms(side, "fresh"), 50)
    if "observability.trace_overhead_ratio" not in workload.idle:
        m["observability.trace_overhead_ratio"] = (
            pct(phase_ms([conn], "product_trace"), 50) / pct(latencies, 50)
        )
    m["oracle.checked"] = verdict.checked
    m["oracle.audited"] = verdict.audited
    if "degrade.maybe_fraction" not in workload.idle:
        m["degrade.maybe_fraction"] = verdict.maybe_fraction
    return m


def build_metrics(built: list, build_spans: list) -> dict:
    """Build-stage seconds from the build-time recorders, and child rusage."""
    m: dict = {}
    totals = [span_tools.self_seconds(node_spans) for node_spans in build_spans]
    for metric, span_name in (
        ("geometry.enum_s", "geometry.enum"),
        ("core.ptile_build_s", "core.ptile_build"),
        ("core.pref_build_s", "core.pref_build"),
        ("index.build_s", "index.build"),
    ):
        m[metric] = sum(t.get(span_name, 0.0) for t in totals)
    every = [s for node_spans in build_spans for s in node_spans]
    m["geometry.rectangles"] = sum(
        s.get("n_out", 0) for s in every if s["name"] == "geometry.enum"
    )
    # warm() mostly waits for its pool, so its wall time, not its self time.
    m["sharding.warm_s"] = sum(
        s["end"] - s["start"] for s in every if s["name"] == "sharding.warm"
    )
    for key in ("cpu_user_s", "cpu_sys_s", "minor_faults"):
        m[f"setup.{key}"] = sum(b[key] for b in built)
    return m


def traced_requests(conn: Connection, server_spans: list) -> list:
    """``(ordinal, client sample, attributed server spans)`` per traced request.

    A server root belongs to the client span that encloses it; roots no
    client span encloses (none are expected) are dropped.
    """
    clients = [s for s in conn.log if s.phase in ("traced", "degrade")]
    starts = [s.start for s in clients]
    out = []
    for entry in span_tools.attribute(server_spans):
        k = int(np.searchsorted(starts, entry["root"]["start"])) - 1
        if k >= 0 and entry["root"]["end"] <= clients[k].end:
            out.append((k, clients[k], entry))
    return out


#: Span names behind each ``*_ms`` layer metric.
LAYER_SPANS = {
    "server.handler_ms": (span_tools.ROOT,),
    "server.decode_ms": ("server.decode",),
    "service.search_batch_ms": ("service.search_batch",),
    "planner.plan_ms": ("planner.plan",),
    "planner.combine_ms": ("planner.combine",),
    "cache.lookup_ms": ("cache.lookup",),
    "sharding.eval_leaves_ms": ("sharding.eval_leaves",),
    "sharding.add_synopses_ms": ("sharding.add_synopses",),
    "core.eval_leaf_batch_ms": ("core.eval_leaf_batch",),
    "index.report_many_ms": ("index.report_groups_many", "index.report_many"),
    "degrade.screen_ms": ("degrade.screen",),
    "federation.search_batch_ms": ("federation.search_batch",),
}


def span_metrics(workload, requests: list, traced_ms: list, untraced_ms: list) -> dict:
    """Per-layer wall-clock shares of the traced continuation.

    A layer the workload declares idle must have left no span, and is left
    out; every other layer must have left one.
    """
    per_name: dict = {}  # span name -> ms per request in which it ran
    unattributed, ratios, inner, rpc = [], [], [], []
    leaves, boxes, ids, groups = [], [], 0, 0
    for _k, sample, entry in requests:
        root = entry["root"]
        for span in entry["spans"]:
            if span["name"] == "core.eval_leaf_batch":
                leaves.append(span["n_in"])
            elif span["name"] == "index.report_groups_many":
                boxes.append(span["n_in"])
                groups += span["n_out"]
            elif span["name"] == "index.report_many":
                ids += span["n_out"]
            elif span["name"] == "federation.rpc":
                rpc.append((span["end"] - span["start"]) * 1e3)
        for span_name, share in entry["shares"].items():
            per_name.setdefault(span_name, []).append(share * 1e3)
        if sample.phase != "traced" or sample.request.kind != "query":
            continue
        client_s = sample.end - sample.start
        gap = client_s - (root["end"] - root["start"])
        unattributed.append(gap * 1e3)
        ratios.append((sum(entry["shares"].values()) + gap) / client_s)
        inner += [
            (s["end"] - s["start"]) * 1e3
            for s in entry["spans"]
            if s["name"] in ("service.search_batch", "federation.search_batch")
            and s["parent"] == root["id"]
        ]

    m = {
        "trace.requests": len(unattributed),
        "trace.unattributed_ms": pct(unattributed, 50),
        "trace.attributed_ratio": pct(ratios, 50),
        "trace.recorder_overhead_ms": pct(traced_ms, 50) - pct(untraced_ms, 50),
        "server.wire_overhead_ms": pct(traced_ms, 50) - pct(inner, 50),
    }
    for metric, names in LAYER_SPANS.items():
        ran = [n for n in names if n in per_name]
        if metric in workload.idle:
            if ran:
                raise RuntimeError(f"{workload.name} declares {metric} idle, yet {ran} ran")
            continue
        if not ran:
            raise RuntimeError(f"{workload.name}: no traced request ran {names}")
        # Median ms per traced request in which the layer ran.
        m[metric] = sum(pct(per_name[n], 50) for n in ran)
    if "federation.rpc_p50_ms" not in workload.idle:
        m["federation.rpc_p50_ms"] = pct(rpc, 50)
    if "core.leaves_per_call" not in workload.idle:
        m["core.leaves_per_call"] = float(np.mean(leaves))
        m["index.boxes_per_call"] = float(np.mean(boxes))
        m["index.ids_per_result"] = ids / groups
    return m


def write_trace(name: str, requests: list, conn: Connection) -> None:
    """``out/trace_<workload>.json``: server spans plus client.request roots.

    ``request`` is the ordinal of the traced request on its connection;
    server spans carry the ordinal of the client span that encloses them.
    """
    clients = [s for s in conn.log if s.phase in ("traced", "degrade")]
    out = [
        {"id": f"c{k}", "name": "client.request", "start": s.start, "end": s.end,
         "parent": None, "request": k}
        for k, s in enumerate(clients)
    ]
    for k, _sample, entry in requests:
        for span in entry["spans"]:
            parent = span["parent"] if span["parent"] is not None else f"c{k}"
            out.append({**span, "parent": parent, "request": k})
    (OUT / f"trace_{name}.json").write_text(json.dumps(out))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def contract_line(result: dict) -> str:
    table = PER_LAYER if result["trace"] else END_TO_END
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": table[name]["unit"]}
                for name, value in result["metrics"].items()
            },
        }
    )


def print_result(result: dict) -> None:
    """Every metric with its unit, then the result as one JSON line."""
    table = PER_LAYER if result["trace"] else END_TO_END
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end (untraced run)"
    print(f"\n== {result['workload']} · seed {result['seed']} · {kind} ==")
    for metric, value in result["metrics"].items():
        print(f"  {metric:34s} {value:14.4f} {table[metric]['unit']}")
    print("  run phases (s): " + ", ".join(f"{k} {v:.1f}" for k, v in result["phases_s"].items()))
    print(
        f"  operations: {result['attempted']} attempted, {result['failed']} failed"
        f" (error_rate {result['failed'] / result['attempted']:.4f})"
    )
    for failure in result["failures"][:10]:
        print(f"  FAILED request {failure['ordinal']} ({failure['phase']}): {failure['why']}")
    print(contract_line(result), flush=True)


def spread_report(runs: list) -> dict:
    """Median, quartiles and spread (IQR / median) per end-to-end metric.

    Over the untraced runs of each workload.  A metric whose spread
    exceeds its bound is flagged unresolved: a difference that size
    between two commits means nothing.
    """
    summary: dict = {}
    print("\n== spread over sets (end-to-end metrics; spread = IQR / median) ==")
    for name in workloads.WORKLOADS:
        mine = [r for r in runs if r["workload"] == name and not r["trace"]]
        if len(mine) < 2:
            continue
        summary[name] = {}
        for metric, meta in END_TO_END.items():
            values = [r["metrics"][metric] for r in mine]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            resolved = spread <= meta["bound"]
            summary[name][metric] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread,
                "bound": meta["bound"], "resolved": resolved,
            }
            print(
                f"  {name:16s} {metric:16s} median {q2:12.4f} {meta['unit']:4s}"
                f" q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f}"
                f" bound {meta['bound']:.2f}"
                + ("" if resolved else "   UNRESOLVED: spread exceeds the bound")
            )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=2027)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics; default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="lakes 10x smaller, 2 s phases, nothing written")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="K complete sets, then the spread per metric")
    args = parser.parse_args()

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    runs = []
    for _ in range(args.repeat):
        for name in names:
            for trace in traces:
                runs.append(run_once(name, args.seed, args.seconds, trace, args.smoke))
                print_result(runs[-1])
    failed = sum(r["failed"] for r in runs)
    if len(runs) > 1:
        # Not the driver's form: nothing has to be the last line.
        spread = spread_report(runs) if args.repeat > 1 else {}
        if not args.smoke:
            report = {"host": fingerprint(), "command": sys.argv, "spread": spread, "runs": runs}
            (OUT / "results.json").write_text(json.dumps(report, indent=1))
            print(f"\nwrote {OUT / 'results.json'}")
        print(f"\n{failed} failed operation(s)")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
