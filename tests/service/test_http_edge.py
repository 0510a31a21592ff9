"""The shared HTTP edge, over real sockets, on a node and a coordinator.

One hostile-input table (``ROWS``) and one sweep generated from the
:mod:`repro.wire` field tables (``SWEPT``): every row or case is a request
a confused or malicious client can send; each must be answered with a
JSON error — the ``4xx`` its row names, ``400`` for every generated case,
never a ``5xx``, never a hang — and must leave the connection either
explicitly closed or correctly framed for the *next* request on it.  One route-table test pins status code and top-level payload keys of
every ``(verb, path)`` both servers route (captured at the parent of the
PR that introduced the shared envelope) and the ``endpoint`` metric
labels that follow from the table.
"""

from __future__ import annotations

import json
import socket
from typing import NamedTuple, Optional

import numpy as np
import pytest
import wire_cases
from peers import serving

from repro import wire
from repro.core.framework import Repository
from repro.service import QueryService
from repro.errors import QueryError
from repro.service.admission import AdmissionGate
from repro.service.federation import FederatedCoordinator, make_federation_server
from repro.service.server import expression_from_json, http_call, make_server
from repro.workloads.generators import synthetic_data_lake

N = 8
GOOD = {"op": "ptile", "lo": [0.0], "hi": [0.6], "theta": [0.05]}
NAN = float("nan")
PROM = "text/plain; version=0.0.4; charset=utf-8"


class Edge(NamedTuple):
    service: QueryService
    gate: AdmissionGate
    coordinator: FederatedCoordinator
    servers: dict  # name -> httpd


@pytest.fixture(scope="module")
def edge():
    lake = synthetic_data_lake(
        N, 1, np.random.default_rng(5), family="clustered", median_size=60
    )
    service = QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2, eps=0.2, sample_size=8, seed=1, capacity=2 * N,
    )
    gate = AdmissionGate(max_inflight=1, max_queue=0)
    node = make_server(service, port=0, gate=gate)
    # No hedge: a duplicate RPC would be shed by the one-slot gate.
    coordinator = FederatedCoordinator(seed=1, max_retries=0, hedge_delay_s=None)
    fed = make_federation_server(coordinator, port=0)
    with serving(node) as node_url, serving(fed):
        coordinator.add_node(node_url)
        yield Edge(service, gate, coordinator, {"node": node, "fed": fed})
    coordinator.close()
    service.close()


class Conn:
    """One raw keep-alive connection; replies parsed by hand."""

    def __init__(self, httpd) -> None:
        self.sock = socket.create_connection(httpd.server_address[:2], timeout=5)
        self.file = self.sock.makefile("rb")

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def request(self, verb, path, body=None, content_length=None):
        """Send one request; returns ``(status, headers, raw body)``."""
        raw = body if isinstance(body, bytes) else (
            b"" if body is None else json.dumps(body).encode()
        )
        head = f"{verb} {path} HTTP/1.1\r\nHost: edge\r\n"
        if body is not None or content_length is not None:
            length = len(raw) if content_length is None else content_length
            head += f"Content-Length: {length}\r\n"
        self._quickack()
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + raw)
        status = int(self.file.readline().split()[1])
        headers = {}
        while (line := self.file.readline().strip()):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        self._quickack()
        return status, headers, self.file.read(int(headers["content-length"]))

    def _quickack(self) -> None:
        # The server writes headers and body separately; unless the first is
        # ACKed at once, Nagle holds the second for ~40 ms.  The kernel
        # clears the flag as it goes, hence once per read.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)


class Row(NamedTuple):
    id: str
    server: str
    verb: str
    path: str
    body: object
    status: int = 400
    content_length: Optional[str] = None
    saturate: bool = False  # hold the node's only admission slot meanwhile


def _both(id, verb, path, body, **kw):
    return [Row(f"{s}-{id}", s, verb, path, body, **kw) for s in ("node", "fed")]


PREF = {"op": "pref", "vector": [1.0], "k": 2, "tau": 0.1}


def _pref(**over):
    return {"expression": {**PREF, **over}}


ROWS = [
    # -- framing: the client's error, and never the next request's -------
    *_both("cl-word", "POST", "/search", b"{}", content_length="abc"),
    *_both("cl-negative", "POST", "/search/batch", b"{}", content_length="-5"),
    *_both("cl-superscript", "POST", "/search", b"{}", content_length="\xb2"),
    # rfile.read would allocate the declared length up front.
    *_both("cl-huge", "POST", "/search", b"{}", content_length="99999999999999"),
    Row("node-cl-delete", "node", "DELETE", "/datasets", b"{}", content_length="abc"),
    Row("fed-cl-delete", "fed", "DELETE", "/nodes", b"{}", content_length="-5"),
    *_both("not-json", "POST", "/search", b"{nope"),
    *_both("not-utf8", "POST", "/search", b"\xff\xfe"),
    *_both("json-array", "POST", "/search/batch", [GOOD]),
    *_both("json-too-deep", "POST", "/search", b"[" * 100_000 + b"]" * 100_000),
    *_both("unrouted-post", "POST", "/nope", {"x": 1}, status=404),
    *_both("unrouted-delete", "DELETE", "/search", {"x": 1}, status=404),
    *_both("unrouted-get", "GET", "/search", None, status=404),
    Row("node-shed-then-next", "node", "POST", "/search", {"expression": GOOD},
        status=429, saturate=True),
    # -- expression decoder ---------------------------------------------
    *_both("no-expression", "POST", "/search", {}),
    *_both("unknown-op", "POST", "/search", {"expression": {"op": "nonsense"}}),
    *_both("empty-batch", "POST", "/search/batch", {"expressions": []}),
    *_both("format-csv", "POST", "/search/batch",
           {"expressions": [GOOD], "format": "csv"}),
    *_both("nan-lo", "POST", "/search", {"expression": {**GOOD, "lo": [NAN]}}),
    *_both("nan-hi", "POST", "/search/batch",
           {"expressions": [{**GOOD, "hi": [NAN]}]}),
    *_both("nan-theta", "POST", "/search", {"expression": {**GOOD, "theta": [NAN]}}),
    *_both("nan-tau", "POST", "/search", _pref(tau=NAN)),
    *_both("inf-vector", "POST", "/search", _pref(vector=[float("inf")])),
    *_both("fractional-k", "POST", "/search", _pref(k=1.7)),
    *_both("boolean-k", "POST", "/search", _pref(k=True)),
    # A healthy node's 400 relayed by the coordinator, not counted against it.
    *_both("wrong-dimension", "POST", "/search",
           {"expression": {**GOOD, "lo": [0, 0], "hi": [0.5, 0.5]}}),
    *_both("bad-deadline", "POST", "/search",
           {"expression": GOOD, "deadline_ms": "soon"}),
    # -- flags and budgets: JSON booleans, a finite JSON number -----------
    # bool("false") is True: the string would switch the flag *on*.
    Row("node-degrade-string", "node", "POST", "/search",
        {"expression": GOOD, "degrade": "false"}),
    Row("node-trace-string", "node", "POST", "/search",
        {"expression": GOOD, "trace": "false"}),
    Row("node-record-times-string", "node", "POST", "/search/batch",
        {"expressions": [GOOD], "record_times": "no"}),
    Row("node-degrade-number", "node", "POST", "/search/batch",
        {"expressions": [GOOD], "degrade": 0}),
    *_both("string-deadline", "POST", "/search",
           {"expression": GOOD, "deadline_ms": "5"}),
    *_both("boolean-deadline", "POST", "/search/batch",
           {"expressions": [GOOD], "deadline_ms": True}),  # float(True): 1 ms
    *_both("infinite-deadline", "POST", "/search",
           {"expression": GOOD, "deadline_ms": float("inf")}),
    # -- node mutations ---------------------------------------------------
    Row("node-datasets-missing", "node", "POST", "/datasets", {}),
    Row("node-datasets-ragged", "node", "POST", "/datasets", {"datasets": [[[1], [1, 2]]]}),
    Row("node-delete-empty", "node", "DELETE", "/datasets", {"indexes": []}),
    Row("node-delete-fraction", "node", "DELETE", "/datasets", {"indexes": [1.5]}),
    Row("node-delete-boolean", "node", "DELETE", "/datasets", {"indexes": [True]}),
    Row("node-delete-unknown", "node", "DELETE", "/datasets", {"indexes": [999]}),
    # -- coordinator registry --------------------------------------------
    Row("fed-node-no-url", "fed", "POST", "/nodes", {"url": ""}),
    *[
        Row(f"fed-node-{key}-{i}", "fed", "POST", "/nodes",
            {"url": "http://127.0.0.1:9", "n_datasets": 2, key: value})
        for key, values in {
            "n_datasets": ["many", 2.5, 0, True],
        }.items()
        for i, value in enumerate(values)
    ],
    Row("fed-remove-boolean", "fed", "DELETE", "/nodes", {"node_id": True}),
    Row("fed-remove-unknown", "fed", "DELETE", "/nodes", {"node_id": 99}),
]


@pytest.mark.parametrize("row", ROWS, ids=[r.id for r in ROWS])
def test_hostile_input(edge, row):
    conn = Conn(edge.servers[row.server])
    if row.saturate:
        assert edge.gate.try_acquire()
    try:
        status, headers, raw = conn.request(
            row.verb, row.path, row.body, row.content_length
        )
        assert status == row.status, raw
        assert headers["content-type"] == "application/json"
        assert set(json.loads(raw)) >= {"error"}
        if row.content_length is not None:
            # Framing is lost: the server says so and hangs up.
            assert headers["connection"] == "close"
            assert conn.file.read() == b""
        else:
            # The next request on the connection is parsed from its own
            # first byte, whatever the body of the refused one was.
            status, _headers, raw = conn.request("GET", "/healthz")
            assert status == 200 and json.loads(raw)["status"] == "ok"
    finally:
        if row.saturate:
            edge.gate.release()
        conn.close()


# ----------------------------------------------------------------------
# The generated sweep: every HTTP body table, from one valid body each
# ----------------------------------------------------------------------
TREE = {"op": "and", "children": [
    {**GOOD, "theta": [0.05, 0.9]}, {"op": "or", "children": [PREF, GOOD]}]}
FLAGS = {"record_times": True, "trace": True, "degrade": False, "deadline_ms": 60_000}
SEARCHES = {
    ("POST", "/search"): (wire.SEARCH, {"expression": TREE, **FLAGS}),
    ("POST", "/search/batch"): (
        wire.SEARCH_BATCH, {"expressions": [GOOD, TREE], "format": "bitset", **FLAGS}),
}
SWEPT = {
    "node": {
        **SEARCHES,
        ("POST", "/datasets"): (
            wire.ADD_DATASETS, {"datasets": [[[0.1], [0.2]], [[0.3], [0.4]]]}),
        ("DELETE", "/datasets"): (wire.REMOVE_DATASETS, {"indexes": [0, 1]}),
    },
    "fed": {
        **SEARCHES,
        ("POST", "/nodes"): (wire.ADD_NODE, {
            "url": "http://127.0.0.1:9", "n_datasets": 2}),
        ("DELETE", "/nodes"): (wire.REMOVE_NODE, {"node_id": 0}),
    },
}


def test_the_sweep_covers_every_routed_body(edge):
    for name, swept in SWEPT.items():
        routes = edge.servers[name].RequestHandlerClass.routes
        bodied = {route for route in routes if route[0] != "GET"}
        assert set(swept) == bodied - {("POST", "/cache/invalidate")}  # no fields


def test_every_table_field_is_documented_where_its_route_is():
    from repro.service import federation, server

    docs = {"node": server.__doc__, "fed": federation.__doc__}
    for name, swept in SWEPT.items():
        for (verb, path), (table, _valid) in swept.items():
            _before, heading, section = docs[name].partition(f"``{verb} {path}``")
            assert heading, (name, verb, path)
            missing = [f for f in table.fields if f"``{f}``" not in section]
            assert not missing, (name, verb, path, missing)
    _before, _heading, section = server.__doc__.partition("``EXPR`` is a recursive")
    for op, record in wire.EXPRESSION.variants.items():
        assert f'"{op}"' in section
        assert all(f'"{f}"' in section for f in record.fields), op


@pytest.mark.parametrize(
    "name, route",
    [
        pytest.param(name, route, id=f"{name}-{route[0]}-{route[1].strip('/')}")
        for name in SWEPT for route in SWEPT[name]
    ],
)
def test_generated_hostile_bodies(edge, name, route):
    """No generated case is answered with anything but a 400 JSON error,
    and the same connection serves a valid search right after each."""
    table, valid = SWEPT[name][route]
    conn = Conn(edge.servers[name])
    state = (edge.service.n_datasets, edge.service.n_live, edge.coordinator.n_nodes,
             edge.service.cache.generation)
    escaped, n_cases = [], 0
    for label, bad in wire_cases.cases(table, valid):
        n_cases += 1
        status, headers, raw = conn.request(*route, bad)
        ok = status == 400 and headers["content-type"] == "application/json"
        if not (ok and "error" in json.loads(raw)):
            escaped.append((label, status, raw[:120]))
        assert edge.gate.snapshot()["inflight"] == 0
        status, _headers, raw = conn.request("POST", "/search", {"expression": GOOD})
        if status != 200:
            escaped.append((label, "the next request", status, raw[:120]))
    conn.close()
    assert escaped == []
    assert n_cases >= 10  # 14 (DELETE /nodes) to 301 (/search/batch); 1 360 in all
    assert state == (edge.service.n_datasets, edge.service.n_live,
                     edge.coordinator.n_nodes, edge.service.cache.generation)


# ----------------------------------------------------------------------
# Bugs the table closed, each a 200 (or a 500 later) at the parent of PR 21
# ----------------------------------------------------------------------
def test_an_oversized_node_is_refused_and_search_keeps_working(edge):
    # 10**30 registered, then every /search was "Maximum allowed dimension
    # exceeded"; 2**40 was a 128 GiB allocation attempt.
    conn = Conn(edge.servers["fed"])
    for n_datasets in (10**30, 2**40, 2**31):
        status, _h, raw = conn.request(
            "POST", "/nodes", {"url": "http://127.0.0.1:1", "n_datasets": n_datasets})
        assert status == 400 and "n_datasets" in json.loads(raw)["error"], raw
        assert edge.coordinator.n_nodes == 1
        assert edge.gate.snapshot()["inflight"] == 0
        status, _h, raw = conn.request("POST", "/search", {"expression": GOOD})
        assert status == 200, raw
    conn.close()


def test_the_federated_universe_is_bounded_too():
    coordinator = FederatedCoordinator()
    coordinator.add_node("http://127.0.0.1:1", n_datasets=2**31 - 2)
    with pytest.raises(QueryError, match="past 2147483647"):
        coordinator.add_node("http://127.0.0.1:1", n_datasets=2)
    assert coordinator.n_nodes == 1 and coordinator.n_datasets == 2**31 - 2
    coordinator.add_node("http://127.0.0.1:1", n_datasets=1)
    coordinator.close()


# The synopsis fields POST /nodes used to decode, each with a value it used
# to refuse: they left ``wire.ADD_NODE``, so they are ignored like any
# unknown key, whatever they hold — never decoded, never a 5xx.
RETIRED_ADD_NODE_FIELDS = {
    "synopses": ["xx", [3, 4], 7],
    "eps": [NAN, -1, "a", True],
    "eps_effective": [float("inf")],
}


@pytest.fixture(scope="module")
def registry():
    """A coordinator of its own, so registrations leave ``edge`` alone."""
    coordinator = FederatedCoordinator(seed=1, max_retries=0, hedge_delay_s=None)
    httpd = make_federation_server(coordinator, port=0)
    with serving(httpd):
        yield coordinator, httpd
    coordinator.close()


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"fed-node-{key}-{i}")
    for key, values in RETIRED_ADD_NODE_FIELDS.items()
    for i, value in enumerate(values)
])
def test_a_retired_add_node_field_is_ignored(registry, key, value):
    coordinator, httpd = registry
    conn = Conn(httpd)
    body = {"url": "http://127.0.0.1:9", "n_datasets": 2, key: value}
    status, _h, raw = conn.request("POST", "/nodes", body)
    receipt = json.loads(raw)
    assert status == 200, raw
    assert set(receipt) == {
        "node_id", "url", "n_datasets", "offset", "total_datasets"}
    assert (receipt["n_datasets"], receipt["offset"]) == (2, 0)
    assert coordinator.n_nodes == 1
    status, _h, raw = conn.request(
        "DELETE", "/nodes", {"node_id": receipt["node_id"]})
    assert status == 200 and json.loads(raw)["removed"], raw
    assert coordinator.n_nodes == 0
    conn.close()


def test_a_probed_n_datasets_is_read_like_a_posted_one(edge, monkeypatch):
    from repro.service import federation

    for reported in (10**30, True, "8", 0):
        reply = json.dumps({"n_datasets": reported}).encode()
        monkeypatch.setattr(federation, "http_call", lambda *a, **k: (200, reply))
        with pytest.raises(QueryError, match="/healthz n_datasets"):
            edge.coordinator.add_node("http://127.0.0.1:1")
    assert edge.coordinator.n_nodes == 1


STRING_AND_BOOLEAN_PROBES = {
    "datasets-strings": ("POST", "/datasets", {"datasets": [[["1.5"], ["2.5"]]]}),
    "datasets-booleans": ("POST", "/datasets", {"datasets": [[[True], [False]]]}),
    "ptile-lo-string": ("POST", "/search", {"expression": {**GOOD, "lo": ["0"]}}),
    "ptile-hi-string": ("POST", "/search", {"expression": {**GOOD, "hi": ["0.6"]}}),
    "ptile-theta-string": ("POST", "/search", {"expression": {**GOOD, "theta": ["0.2"]}}),
    "ptile-theta-boolean": ("POST", "/search", {"expression": {**GOOD, "theta": [True]}}),
    "pref-vector-string": ("POST", "/search", _pref(vector=["1.0"])),
    "pref-vector-boolean": ("POST", "/search", _pref(vector=[True])),
    "pref-tau-string": ("POST", "/search", _pref(tau="0.5")),
    "pref-tau-boolean": ("POST", "/search", _pref(tau=True)),
    "node-url-words": ("POST", "/nodes", {"url": "not a url", "n_datasets": 1}),
    "node-url-ftp": ("POST", "/nodes", {"url": "ftp://x", "n_datasets": 1}),
}


@pytest.mark.parametrize("probe", STRING_AND_BOOLEAN_PROBES)
def test_strings_and_booleans_are_not_numbers(edge, probe):
    verb, path, body = STRING_AND_BOOLEAN_PROBES[probe]
    generation = edge.service.cache.generation
    n_datasets = edge.service.n_datasets
    for name in ("node", "fed"):
        routes = edge.servers[name].RequestHandlerClass.routes
        if (verb, path) not in routes:
            continue
        conn = Conn(edge.servers[name])
        status, _h, raw = conn.request(verb, path, body)
        assert status == 400 and "error" in json.loads(raw), (name, raw)
        status, _h, _raw = conn.request("GET", "/healthz")
        assert status == 200
        conn.close()
    # The string dataset used to be ingested, fall outside the box and
    # force a full rebuild and a cache flush.
    assert edge.service.cache.generation == generation
    assert edge.service.n_datasets == n_datasets and edge.coordinator.n_nodes == 1


def test_deep_nesting_is_a_client_error(edge):
    deep = GOOD
    for _ in range(400):
        deep = {"op": "and", "children": [deep]}
    for name in ("node", "fed"):
        conn = Conn(edge.servers[name])
        status, _h, raw = conn.request("POST", "/search", {"expression": deep})
        assert status == 400 and "error" in json.loads(raw)
        assert edge.gate.snapshot()["inflight"] == 0
        conn.close()


def _metric_labels(text: str, family: str) -> set:
    """``endpoint`` labels of ``family``; every sample line must parse."""
    labels = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        float(value)
        if name.startswith(family + "_count{"):
            labels.add(name.split('endpoint="')[1].split('"')[0])
    return labels


def test_healthy_after_the_table(edge):
    # Runs after every ROWS case (file order): nothing above tombstoned a
    # dataset, registered a node, tripped the breaker or wedged the gate.
    (expect,) = edge.service.search_batch([expression_from_json(GOOD)])
    replies = {}
    for name in ("node", "fed"):
        conn = Conn(edge.servers[name])
        status, _h, raw = conn.request("POST", "/search", {"expression": GOOD})
        conn.close()
        assert status == 200
        # Else the coordinator's forwarded request can meet a held slot.
        assert edge.gate.snapshot()["inflight"] == 0
        replies[name] = json.loads(raw)
        assert replies[name]["indexes"] == expect.indexes
    assert replies["fed"]["federation"]["coverage"] == 1.0
    assert edge.service.n_live == N and edge.coordinator.n_nodes == 1
    (node,) = edge.coordinator.stats()["federation"]["nodes"]
    assert node["breaker"]["state"] == "closed"
    assert node["breaker"]["consecutive_failures"] == 0
    assert node["failed_calls"] == 0


def test_the_slot_is_released_before_the_reply_bytes_go_out(edge, monkeypatch):
    # An answered client's next request — or the coordinator's forwarded one
    # — must never be shed by the slot of the request it was answered for.
    handler = edge.servers["node"].RequestHandlerClass
    inflight_at_write = []

    class Recording:
        def __init__(self, wfile):
            self.wfile = wfile

        def write(self, data):
            inflight_at_write.append(edge.gate.snapshot()["inflight"])
            return self.wfile.write(data)

        def __getattr__(self, name):
            return getattr(self.wfile, name)

    real_setup = handler.setup

    def setup(self):
        real_setup(self)
        self.wfile = Recording(self.wfile)

    monkeypatch.setattr(handler, "setup", setup)
    conn = Conn(edge.servers["node"])
    status, _h, _raw = conn.request("POST", "/search", {"expression": GOOD})
    conn.close()
    assert status == 200
    assert inflight_at_write and set(inflight_at_write) == {0}
    monkeypatch.undo()
    # The behavioural form: a fresh connection per request, back to back
    # (what ``http_call`` does for the coordinator), against the one slot.
    host, port = edge.servers["node"].server_address[:2]
    body = json.dumps({"expression": GOOD}).encode()
    statuses = [
        http_call(f"http://{host}:{port}/search", body, timeout=5)[0]
        for _ in range(200)
    ]
    assert statuses == [200] * 200
    assert edge.gate.snapshot()["inflight"] == 0


# ----------------------------------------------------------------------
# Route table: (request body, status, top-level keys | content type)
# ----------------------------------------------------------------------
POINTS = [[0.1], [0.2], [0.3]]
PINNED = {
    "node": {
        ("GET", "/healthz"): (None, 200, {
            "status", "engine", "n_datasets", "n_live", "n_shards",
            "snapshot_generation", "worker_id", "worker_count"}),
        ("GET", "/stats"): (None, 200, {
            "cache", "capacity", "delta_size", "engine", "executor",
            "n_datasets", "n_live", "n_removed", "n_shards", "observability",
            "plan_cache", "resilience", "serving", "shard_sizes", "telemetry",
            "admission"}),  # "admission": this fixture serves behind a gate
        ("GET", "/stats/slow"): (None, 200, {
            "threshold_ms", "n_recorded", "slow_queries"}),
        ("GET", "/metrics"): (None, 200, PROM),
        ("POST", "/search"): (
            {"expression": GOOD, "record_times": True, "trace": True}, 200,
            {"indexes", "emit_times", "stats", "duration_s", "trace"}),
        ("POST", "/search/batch"): (
            {"expressions": [GOOD], "format": "bitset"}, 200, {"results"}),
        ("POST", "/datasets"): ({"datasets": [POINTS]}, 200, {
            "indexes", "rebuilt", "reason", "n_datasets", "n_live",
            "delta_size"}),
        ("DELETE", "/datasets"): ({"indexes": [N]}, 200, {
            "removed", "n_datasets", "n_live"}),
        ("POST", "/cache/invalidate"): ({}, 200, {"generation"}),
        # Routed on a supervisor worker's admin port only.
        ("POST", "/admin/promote"): ({}, 404, {"error"}),
    },
    "fed": {
        ("GET", "/healthz"): (None, 200, {
            "status", "role", "n_nodes", "n_datasets"}),
        ("GET", "/stats"): (None, 200, {"federation"}),
        ("GET", "/metrics"): (None, 200, PROM),
        ("POST", "/search"): (
            {"expression": GOOD}, 200, {"indexes", "stats", "federation"}),
        ("POST", "/search/batch"): (
            {"expressions": [GOOD]}, 200, {"results", "federation"}),
        ("POST", "/nodes"): ({"url": "http://127.0.0.1:9", "n_datasets": 3}, 200, {
            "node_id", "url", "n_datasets", "offset", "total_datasets"}),
        ("DELETE", "/nodes"): ({"node_id": 1}, 200, {
            "node_id", "url", "removed", "total_datasets"}),
    },
}
FAMILY = {"node": "repro_request_seconds", "fed": "repro_federation_request_seconds"}
# The node's /stats "telemetry" block: what the benchmark, the supervisor
# and metrics_smoke.py read by name.
TELEMETRY_KEYS = {
    "n_queries", "n_batches", "throughput_qps", "latency_mean_s",
    "latency_p50_s", "latency_p95_s", "latency_max_s", "latency_bucket_p50_s",
    "latency_bucket_p95_s", "latency_bucket_p99_s", "leaves_raw",
    "leaves_unique", "cache_hits", "cache_misses", "cache_upgrades",
    "shared_leaves", "mean_out_size"}


# "fed" first: the node's POST /datasets grows its universe past what the
# coordinator registered (answers would degrade with universe_drift).
@pytest.mark.parametrize("name", ["fed", "node"])
def test_route_table(edge, name):
    httpd = edge.servers[name]
    routes = httpd.RequestHandlerClass.routes
    pinned = PINNED[name]
    # Every routed (verb, path) is pinned; a new route must add its row.
    assert set(routes) <= set(pinned)
    unrouted = [(verb, "/nope") for verb in ("GET", "POST", "DELETE")]
    conn = Conn(httpd)
    for verb, path in [*pinned, *unrouted]:
        body, status, shape = pinned.get((verb, path), (None, 404, {"error"}))
        if body is None and verb != "GET":
            body = {}
        got, headers, raw = conn.request(verb, path, body)
        assert got == status, (verb, path, raw)
        if isinstance(shape, str):
            assert headers["content-type"] == shape
        else:
            assert set(json.loads(raw)) == shape, (verb, path)
            if (name, verb, path) == ("node", "GET", "/stats"):
                assert set(json.loads(raw)["telemetry"]) == TELEMETRY_KEYS
    _status, _headers, raw = conn.request("GET", "/metrics")
    conn.close()
    paths = {path for _verb, path in routes}
    assert _metric_labels(raw.decode(), FAMILY[name]) == paths | {"other"}


def test_http_call(edge):
    port = edge.servers["node"].server_address[1]
    status, raw = http_call(f"http://127.0.0.1:{port}/nope", timeout=5)
    assert status == 404 and "error" in json.loads(raw)
    status, raw = http_call(f"http://127.0.0.1:{port}/search", b"{}", timeout=5)
    assert status == 400
    with socket.socket() as placeholder:  # a bound, never-listening port
        placeholder.bind(("127.0.0.1", 0))
        dead = placeholder.getsockname()[1]
        with pytest.raises(OSError):
            http_call(f"http://127.0.0.1:{dead}/healthz", timeout=2)
