"""CI smoke check for the /metrics Prometheus endpoint.

Boots a small service behind the stdlib HTTP server and scrapes it fresh:
every required counter family but the per-request one already renders,
at 0.  Then it drives traced and untraced batches, an add (whose next
batch upgrades cached answers from the delta shard), an add outside the
bounding box (one rebuild), a cache flush and a degraded batch over the
wire, scrapes ``/metrics`` again and asserts the exposition is
well-formed and complete:

- every non-comment line parses as ``name{labels} value``;
- no family is typed twice and no ``(name, labels)`` series repeats (a
  Prometheus scrape rejects both);
- every required metric family is present with a ``# TYPE`` header;
- histogram ``_bucket`` series are cumulative and end in ``+Inf`` equal
  to ``_count``;
- ``/stats`` and ``/metrics`` agree on every counter that has a
  ``/stats`` twin (:data:`STATS_TWINS`; a family with no sample yet
  must read 0 there), and ``/stats/slow`` on the slow-query count;
- the rebuild and the flush are one invalidation each:
  ``cache.invalidations == cache.generation == 2``.

Then the same over the shared HTTP edge's second server: a federation
coordinator over that node answers one batch, its ``/metrics`` goes
through the same parser, its request histogram carries one ``endpoint``
label per route hit plus ``other`` for a scanned path, and an unknown
path is a JSON 404 on both servers.

Run from the repo root: ``PYTHONPATH=src python scripts/metrics_smoke.py``.
Exits non-zero (assertion) on any violation; prints one summary line on
success.  No third-party HTTP or Prometheus client is used, so the check
runs anywhere the test suite runs.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.request

import numpy as np

from repro.core.framework import Repository
from repro.service import QueryService
from repro.service.federation import FederatedCoordinator, make_federation_server
from repro.service.server import expression_to_json, make_server
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$"
)

REQUIRED_FAMILIES = {
    "repro_stage_seconds": "histogram",
    "repro_query_seconds": "histogram",
    "repro_batch_seconds": "histogram",
    "repro_request_seconds": "histogram",
    "repro_requests_total": "counter",
    "repro_queries_total": "counter",
    "repro_batches_total": "counter",
    "repro_cache_hits_total": "counter",
    "repro_cache_misses_total": "counter",
    "repro_cache_upgrades_total": "counter",
    "repro_cache_evictions_total": "counter",
    "repro_cache_invalidations_total": "counter",
    "repro_plan_cache_hits_total": "counter",
    "repro_plan_cache_misses_total": "counter",
    "repro_executor_leaf_evals_total": "counter",
    "repro_executor_shard_tasks_total": "counter",
    "repro_executor_delta_evals_total": "counter",
    "repro_slow_queries_total": "counter",
    "repro_cache_resident_bytes": "gauge",
    "repro_index_bytes": "gauge",
    "repro_datasets_live": "gauge",
    "repro_tombstones": "gauge",
    "repro_delta_shard_depth": "gauge",
    "repro_shard_size": "gauge",
}

#: Counter family -> the ``/stats`` ``(section, key)`` that counts the same
#: events; the two must read the same value.
STATS_TWINS = {
    "repro_queries_total": ("telemetry", "n_queries"),
    "repro_batches_total": ("telemetry", "n_batches"),
    "repro_cache_hits_total": ("cache", "hits"),
    "repro_cache_misses_total": ("cache", "misses"),
    "repro_cache_upgrades_total": ("cache", "upgrades"),
    "repro_cache_evictions_total": ("cache", "evictions"),
    "repro_cache_invalidations_total": ("cache", "invalidations"),
    "repro_plan_cache_hits_total": ("plan_cache", "hits"),
    "repro_plan_cache_misses_total": ("plan_cache", "misses"),
    "repro_plan_cache_evictions_total": ("plan_cache", "evictions"),
    "repro_executor_leaf_evals_total": ("executor", "leaf_evals"),
    "repro_executor_shard_tasks_total": ("executor", "shard_tasks"),
    "repro_executor_delta_evals_total": ("executor", "delta_evals"),
    "repro_slow_queries_total": ("observability", "slow_queries"),
    "repro_degraded_queries_total": ("resilience", "degraded_queries"),
    "repro_deadline_expirations_total": ("resilience", "deadline_expirations"),
    "repro_requests_shed_total": ("resilience", "requests_shed"),
}


def fetch(url: str) -> tuple[bytes, str]:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read(), resp.headers.get("Content-Type", "")


def post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(url, data=json.dumps(payload).encode())
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def scrape(base: str) -> tuple[dict, dict]:
    """``/metrics`` of ``base`` as ``(types, samples)``; every line parses."""
    text, ctype = fetch(f"{base}/metrics")
    assert ctype.startswith("text/plain"), ctype
    types: dict[str, str] = {}
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.decode("utf-8").splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in types, f"family typed twice: {name}"
            types[name] = kind
            continue
        if line.startswith("#") or not line:
            continue
        m = SAMPLE_LINE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        labels = {}
        if m.group("labels"):
            for part in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"',
                                   m.group("labels")):
                labels[part[0]] = part[1]
        series = samples.setdefault(m.group("name"), [])
        assert all(labels != seen for seen, _ in series), (
            f"repeated series: {line!r}"
        )
        series.append((labels, float(m.group("value"))))
    return types, samples


def check_histogram(family: str, samples: dict) -> None:
    """Buckets must be cumulative, ending at +Inf == _count."""
    by_series: dict[tuple, list[tuple[float, float]]] = {}
    for labels, value in samples[family + "_bucket"]:
        le = labels.pop("le")
        key = tuple(sorted(labels.items()))
        bound = float("inf") if le == "+Inf" else float(le)
        by_series.setdefault(key, []).append((bound, value))
    counts = {tuple(sorted(lbl.items())): v
              for lbl, v in samples[family + "_count"]}
    for key, buckets in by_series.items():
        buckets.sort()
        values = [v for _, v in buckets]
        assert values == sorted(values), (
            f"{family}{dict(key)}: buckets not cumulative"
        )
        assert buckets[-1][0] == float("inf")
        assert values[-1] == counts[key], (
            f"{family}{dict(key)}: +Inf bucket != _count"
        )


def assert_json_404(url: str) -> None:
    try:
        fetch(url)
    except urllib.error.HTTPError as exc:
        assert exc.code == 404, exc.code
        assert "error" in json.loads(exc.read()), "404 body is not a JSON error"
    else:
        raise AssertionError(f"{url} is not a 404")


def check_coordinator(node_base: str, expressions: list) -> int:
    """The coordinator's side of the shared edge; returns samples parsed."""
    coordinator = FederatedCoordinator()
    coordinator.add_node(node_base)
    httpd = make_federation_server(coordinator, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    base = f"http://{host}:{port}"
    try:
        payload = post(f"{base}/search/batch", {"expressions": expressions})
        assert len(payload["results"]) == len(expressions)
        assert payload["federation"]["coverage"] == 1.0, payload["federation"]
        fetch(f"{base}/healthz")
        assert_json_404(f"{base}/wp-login.php")
        types, samples = scrape(base)
        family = "repro_federation_request_seconds"
        assert types.get(family) == "histogram", types.get(family)
        check_histogram(family, samples)
        endpoints = {lbl["endpoint"] for lbl, _ in samples[family + "_count"]}
        assert endpoints == {"/search/batch", "/healthz", "other"}, endpoints
        return sum(len(v) for v in samples.values())
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()
        coordinator.close()


def check_fresh(base: str) -> None:
    """A node that has answered nothing renders every required counter
    family (the per-request one counts from its first request), at 0."""
    types, samples = scrape(base)
    for family, kind in REQUIRED_FAMILIES.items():
        if kind != "counter" or family == "repro_requests_total":
            continue
        assert types.get(family) == "counter", (
            f"{family}: not rendered on a fresh node"
        )
        assert samples.get(family) == [({}, 0.0)], (family, samples.get(family))


def check_twins(samples: dict, stats: dict) -> None:
    """Every counter with a ``/stats`` twin reads the same on both."""
    for family, (section, key) in STATS_TWINS.items():
        series = samples.get(family, [({}, 0.0)])
        assert len(series) == 1 and series[0][0] == {}, (family, series)
        assert series[0][1] == stats[section][key], (
            f"/stats {section}.{key} = {stats[section][key]} but "
            f"/metrics {family} = {series[0][1]}"
        )


def main() -> int:
    lake = synthetic_data_lake(41, 1, np.random.default_rng(7),
                               family="clustered", median_size=80)
    service = QueryService(
        repository=Repository.from_arrays(lake[:40]),
        n_shards=2, eps=0.2, sample_size=8, seed=7, capacity=48,
        slow_query_threshold_ms=0.0,
    )
    httpd = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    base = f"http://{host}:{port}"
    try:
        queries = batched_query_workload(
            6, 1, np.random.default_rng(8), pref_fraction=0.25, max_leaves=3,
        )
        expressions = [expression_to_json(q) for q in queries]
        check_fresh(base)
        for trace in (False, True, False):  # cold, traced warm, untraced warm
            payload = post(
                f"{base}/search/batch",
                {"expressions": expressions, "trace": trace},
            )
            assert ("trace" in payload) == trace, payload.keys()
        added = post(f"{base}/datasets", {"datasets": [lake[40].tolist()]})
        assert added["rebuilt"] is False, added
        post(f"{base}/search/batch", {"expressions": expressions})  # upgrades
        far = np.random.default_rng(9).uniform(50.0, 60.0, size=(80, 1))
        rebuilt = post(f"{base}/datasets", {"datasets": [far.tolist()]})
        assert rebuilt["rebuilt"] and rebuilt["reason"] == "bounding_box", rebuilt
        post(f"{base}/cache/invalidate", {})
        post(f"{base}/search/batch", {"expressions": expressions, "degrade": True})

        types, samples = scrape(base)
        for family, kind in REQUIRED_FAMILIES.items():
            assert types.get(family) == kind, (
                f"{family}: expected TYPE {kind}, got {types.get(family)}"
            )
            suffix = "_bucket" if kind == "histogram" else ""
            assert samples.get(family + suffix), f"{family}: no samples"
            if kind == "histogram":
                check_histogram(family, samples)

        stats, _ = fetch(f"{base}/stats")
        stats = json.loads(stats)
        check_twins(samples, stats)
        for section, key in (("cache", "upgrades"), ("cache", "invalidations"),
                             ("executor", "delta_evals"),
                             ("resilience", "degraded_queries")):
            assert stats[section][key] > 0, f"{section}.{key} never counted"
        flushes = (stats["cache"]["invalidations"], stats["cache"]["generation"])
        assert flushes == (2, 2), f"one rebuild + one flush read as {flushes}"
        slow, _ = fetch(f"{base}/stats/slow")
        slow = json.loads(slow)
        assert slow["n_recorded"] >= 1, "slow log empty at threshold 0"
        assert slow["n_recorded"] == stats["observability"]["slow_queries"]

        assert_json_404(f"{base}/wp-login.php")
        n_coordinator = check_coordinator(base, expressions)

        n_families = len(REQUIRED_FAMILIES)
        n_samples = sum(len(v) for v in samples.values())
        print(f"metrics smoke: {n_families} required families present, "
              f"{n_samples} samples parsed, buckets cumulative, "
              f"{len(STATS_TWINS)} counters agree with /stats, slow log "
              f"recording; coordinator over "
              f"the node: {n_coordinator} samples parsed, endpoint labels "
              f"follow the route table, unknown paths are JSON 404s")
        return 0
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        service.close()


if __name__ == "__main__":
    raise SystemExit(main())
