"""Stdlib-HTTP JSON endpoint over a :class:`~repro.service.QueryService`.

Wire format.  Request bodies are JSON objects read through the
:mod:`repro.wire` field tables and nothing else: unknown keys are ignored;
an optional field left out or ``null`` keeps its default; integers may
arrive as ``5.0``; numbers are finite unless a range below says otherwise;
arrays are numeric, not strings or booleans; anything else is a ``400``
naming the field.

``POST /search``
    ``expression``: ``EXPR``, required.  ``record_times``, ``degrade``:
    ``true`` / ``false``, default ``false``.  ``trace``: ``true`` /
    ``false``, default the service's ``tracing=`` setting.
    ``deadline_ms``: a number in (0, inf), default no deadline.
    → ``{"indexes": [...], "emit_times": [...], "stats": {...}}``.  With
    ``record_times`` the emit stamps are *relative to the query start* (a
    ``duration_s`` field is included) — absolute ``perf_counter`` values
    are meaningless outside the server process.  With tracing the payload
    gains ``"trace"``: the span tree of the serving pipeline, all times
    relative to the query start (see :mod:`repro.service.observability`
    for the schema).
``POST /search/batch``
    ``expressions``: a list of one or more ``EXPR``, required.
    ``format``: ``"indexes"`` (default) or ``"bitset"``.  ``record_times``,
    ``trace``, ``degrade``, ``deadline_ms``: as for ``/search``.
    → ``{"results": [{"indexes": [...], "stats": {...}}, ...]}``: with
    ``record_times`` each result carries its batch-start-relative
    ``emit_times`` plus ``duration_s``, and with tracing the *response*
    carries one top-level ``"trace"`` span tree for the whole batch
    (per-query assembly spans are tagged with their query index).
    With ``"format": "bitset"`` each result instead carries the packed
    answer ``{"bitset": {"encoding": "u64le+b64", "n_bits": N, "words":
    B64}, "out_size": k, "stats": {...}}`` — the base64 of the
    little-endian ``uint64`` word buffer, encoded zero-copy from the
    warm path's bitmap.  Bit ``i`` set means dataset ``i`` is in the
    answer; decode with :func:`repro.core.bitset.bitmap_from_wire`.  For
    batch answers averaging more than ~64/6 members per 64 datasets the
    packed form is also smaller on the wire than the decimal index list.
``POST /datasets``
    ``datasets``: a list of one or more ``(n, d)`` arrays of finite
    numbers, one point array per new dataset (``[[[x, y], ...], ...]``),
    required → the :meth:`~repro.service.service.QueryService.add_datasets`
    receipt ``{"indexes": [...], "rebuilt": false, ...}``.  Ingestion is
    live: cached leaf answers are upgraded from the delta shard, not
    flushed.
``DELETE /datasets``
    ``indexes``: a list of one or more integers >= 0, required → the
    :meth:`~repro.service.service.QueryService.remove_datasets` receipt;
    removal is a read-time mask (indexes are stable, never reused).
``POST /cache/invalidate``
    → ``{"generation": n}``
``GET /stats``
    → the service's :meth:`~repro.service.service.QueryService.stats`
``GET /stats/slow``
    → ``{"threshold_ms": t, "n_recorded": n, "slow_queries": [...]}`` —
    the k worst queries at or above the slow-query threshold, worst
    first, each with its stats (and trace, when the query was traced).
``GET /metrics``
    → the Prometheus text exposition: per-stage/per-endpoint latency
    histograms, cache and shard gauges, lifetime counters.  Rendered
    from the same snapshot pass as ``/stats``, so the two never
    disagree.
``GET /healthz``
    → ``{"status": "ok", "n_datasets": N, "n_live": L, "n_shards": S,
    "snapshot_generation": g, "worker_id": w, "worker_count": c}`` — the
    serving fields identify which pre-forked worker answered and which
    snapshot generation it is serving (``0``/``1`` defaults for a plain
    single-process server); ``/stats`` carries the same trio under a
    ``"serving"`` key.

Each server's handler class is its own and binds one node object: the
service, the admission gate and the serving fields above.  A request reads
them afresh, so a pre-forked worker (:mod:`repro.service.supervisor`)
swaps in the service of a newer snapshot generation, or takes the writer
role, between requests and without re-creating the listening socket.  A
worker that is not the writer answers the mutating endpoints (``POST
/datasets``, ``DELETE /datasets``) with ``409`` (the supervisor's admin
``/healthz`` names the writer), so a load balancer spraying requests
across workers cannot fork divergent states.  The coordinator and the
supervisor's admin port bind their own object (a coordinator, a
supervisor) through the same private ``_handler``, so no other module
builds a handler class.

``EXPR`` is a recursive object (:data:`repro.wire.EXPRESSION`)::

    {"op": "and" | "or", "children": [EXPR, ...]}               # one or more
    {"op": "ptile", "lo": [..], "hi": [..], "theta": [a, b?]}   # b omitted/null = inf
    {"op": "pref", "vector": [..], "k": 5, "tau": 0.8}

``lo`` / ``hi``: equally long arrays, ``lo <= hi``, an open side ``-Infinity``
/ ``Infinity``; ``theta``: one or two numbers ``a <= b`` (either may be
infinite); ``vector``: a nonzero array; ``k``: an integer >= 1; ``tau``: a number.

The server is a ``ThreadingHTTPServer``; concurrency is safe because the
service serializes shard access with per-shard locks and the cache and
the serving totals guard their mutable state with their own locks.

Error contract — decided once, in :class:`JsonRequestHandler`, for this
server, the federation coordinator and the supervisor's admin port.  Error
bodies are ``{"error": "..."}``; the request body is drained before any
reply, so keep-alive framing survives every row:

=====  ==============================================================
400    the client's error: a ``Content-Length`` that is not a
       non-negative integer or is over 64 MiB (with ``Connection:
       close`` — framing is lost), a body that is not a JSON object,
       anything a decoder or the service refuses (any
       :class:`~repro.errors.ReproError`)
404    no route for this verb and path
409    a mutation sent to a read-only worker
429    shed by the admission gate (``Retry-After`` says when)
5xx    never from input: 500 is a bug; 503 is the supervisor's
       ``/healthz`` over a fleet that is not whole
=====  ==============================================================
"""

from __future__ import annotations

import http.client
import json
import math
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.core.bitset import DatasetBitmap
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import And, Expression, Or, Predicate
from repro.core.results import QueryResult
from repro.errors import QueryError, ReproError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.service import admission, faults
from repro.service.admission import AdmissionGate
from repro.wire import (
    ADD_DATASETS,
    EXPRESSION,
    REMOVE_DATASETS,
    SEARCH,
    SEARCH_BATCH,
    decode,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import QueryService


# ----------------------------------------------------------------------
# Expression (de)serialization
# ----------------------------------------------------------------------
def expression_from_json(obj: dict) -> Expression:
    """Parse the wire format into a predicate expression tree."""
    return _expression(decode(EXPRESSION, obj, "expression"))


def _expression(node: dict) -> Expression:
    """The AST of one decoded ``EXPR`` record: what a table cannot say is
    checked here (``lo <= hi``, ``a <= b``, a nonzero ``vector``)."""
    op = node["op"]
    if op in ("and", "or"):
        children = [_expression(child) for child in node["children"]]
        return And(children) if op == "and" else Or(children)
    try:
        if op == "ptile":
            a, b = (*node["theta"], None)[:2]  # [a] reads as [a, null]
            if a is None:
                raise ValueError("theta[0] must be a number")
            theta = Interval(a, math.inf if b is None else b)
            rect = Rectangle(node["lo"], node["hi"])
            return Predicate(PercentileMeasure(rect), theta)
        measure = PreferenceMeasure(node["vector"], k=node["k"])
        return Predicate(measure, Interval.at_least(node["tau"]))
    except ValueError as exc:
        raise QueryError(f"bad {op} leaf: {exc}")


def expression_to_json(expression: Expression) -> dict:
    """Inverse of :func:`expression_from_json` (round-trips the AST)."""
    if isinstance(expression, (And, Or)):
        return {
            "op": "and" if isinstance(expression, And) else "or",
            "children": [expression_to_json(c) for c in expression.children],
        }
    if isinstance(expression, Predicate):
        measure = expression.measure
        if expression.theta.lo_open or expression.theta.hi_open:
            # The wire format has no open/closed flags; parsing the closed
            # form back would silently flip boundary membership.
            raise QueryError(
                "open-endpoint theta intervals are not representable in the "
                "JSON wire format"
            )
        if isinstance(measure, PercentileMeasure):
            theta: list = [expression.theta.lo]
            if math.isfinite(expression.theta.hi):
                theta.append(expression.theta.hi)
            return {
                "op": "ptile",
                "lo": [float(x) for x in measure.rect.lo],
                "hi": [float(x) for x in measure.rect.hi],
                "theta": theta,
            }
        if isinstance(measure, PreferenceMeasure):
            if math.isfinite(expression.theta.hi):
                # The engine only answers one-sided preference predicates;
                # dropping the upper bound here would silently weaken the
                # query on the way back in.
                raise QueryError(
                    "preference predicates serialize only one-sided "
                    "theta = [a, inf)"
                )
            return {
                "op": "pref",
                "vector": [float(x) for x in measure.vector],
                "k": measure.k,
                "tau": expression.theta.lo,
            }
    raise QueryError(f"cannot serialize {type(expression).__name__}")


# ----------------------------------------------------------------------
# The HTTP edge: one result codec, one outbound call, one inbound envelope
# ----------------------------------------------------------------------
def parse_batch_body(body: dict, single: bool) -> dict:
    """The decoded fields of a search body (:data:`repro.wire.SEARCH_BATCH`).

    ``expressions`` stay JSON — each server decodes them through its own
    module's ``expression_from_json``.  ``single`` reads a ``/search``
    body: a one-element batch, always answered as ``indexes``.
    """
    if not single:
        return decode(SEARCH_BATCH, body, "")
    fields = decode(SEARCH, body, "")
    fields["expressions"], fields["format"] = [fields.pop("expression")], "indexes"
    return fields


def encode_result(result: QueryResult, fmt: str, n_datasets: int) -> dict:
    """One result's wire object, for the node and the coordinator alike.

    ``bitset`` encodes the warm path's bitmap zero-copy (the word buffer,
    never a Python index list); only a ``record_times`` result — an index
    list in emission order — is packed here, over ``n_datasets`` bits.  A
    degraded result's main payload is its *must* set; ``degraded`` and the
    disjoint ``maybe_*`` set tell a bounded answer from an exact one.
    """
    out: dict
    if fmt == "bitset":
        bitmap = result.bitmap
        if bitmap is None:
            bitmap = DatasetBitmap.from_indices(result.indexes, n_datasets)
        out = {
            "bitset": bitmap.to_wire(),
            "out_size": result.out_size,
            "stats": result.stats,
        }
    else:
        out = {"indexes": result.indexes, "stats": result.stats}
    if result.stats.get("degraded"):
        maybe = result.maybe_bitmap
        assert maybe is not None  # every degraded producer sets it
        out["degraded"] = True
        out["maybe_" + fmt] = maybe.to_wire() if fmt == "bitset" else maybe.to_list()
    if result.start_time is not None:
        # Absolute perf_counter stamps are process-local: ship offsets
        # from the query/batch start, the origin of the trace spans too.
        out["emit_times"] = [t - result.start_time for t in result.emit_times]
        out["duration_s"] = result.end_time - result.start_time
    return out


def http_call(
    url: str, body: Optional[bytes] = None, *, timeout: float
) -> Tuple[int, bytes]:
    """One outbound exchange — a GET, or a JSON POST when ``body`` is given
    — as ``(status, reply bytes)``.  An HTTP error status is *returned*, not
    raised (what a 400 or a 503 means is the caller's policy); a transport
    failure (refused, reset, timed out, garbled reply) is an ``OSError``."""
    headers = {} if body is None else {"Content-Type": "application/json"}
    request = urllib.request.Request(url, data=body, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()
    except http.client.HTTPException as exc:
        raise OSError(f"garbled HTTP reply from {url}: {exc!r}") from exc


#: The largest request body read, bytes: far above any real body (a batch
#: of expressions is a few KB), far below what one allocation may cost.
_MAX_BODY_BYTES = 64 * 2**20


class JsonRequestHandler(BaseHTTPRequestHandler):
    """The one request envelope of the repo's three stdlib HTTP servers.

    A subclass supplies ``routes`` — ``(verb, path) -> function``, called
    as ``route(handler)`` for a GET and ``route(handler, body)`` with the
    parsed JSON object otherwise — and may override the :meth:`admit` /
    :meth:`release` / :meth:`observe` hooks.  Framing, status codes (the
    module docstring's error contract) and metric labels are decided here,
    so node, coordinator and supervisor admin port cannot drift on them.
    """

    quiet: bool = True
    protocol_version = "HTTP/1.1"
    routes: Dict[Tuple[str, str], Callable[..., None]] = {}

    def log_message(self, fmt: str, *args: object) -> None:  # pragma: no cover
        if not self.quiet:
            super().log_message(fmt, *args)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # -- hooks ---------------------------------------------------------
    def admit(self) -> bool:
        """May this routed request run?  A refusal sends its own reply."""
        return True

    def release(self) -> None:
        """Undo :meth:`admit` (idempotent): runs before a reply's bytes go
        out — an answered client's next request must not meet the slot of
        the one it was answered for — and again on every exit, raise
        included."""

    def observe(self, endpoint: str, seconds: float, status: int) -> None:
        """One finished request; ``endpoint`` is a routed path or ``other``
        (an URL-scanning client cannot blow up the label cardinality)."""

    # -- envelope ------------------------------------------------------
    def _dispatch(self, verb: str) -> None:
        t0 = time.perf_counter()
        self._status = 500  # what observe() sees if no reply gets out
        try:
            # Drain the body before ANY reply: an unread body would be
            # parsed as the next request line on a keep-alive connection.
            raw = self._read_body()
            if raw is None:
                return
            route = self.routes.get((verb, self.path))
            if route is None:
                self._send_json({"error": f"unknown path {self.path}"}, status=404)
                return
            try:
                if not self.admit():
                    return
                if verb == "GET":
                    route(self)
                else:
                    route(self, self._parse_json(raw))
            finally:
                self.release()
        except ReproError as exc:
            self._send_json({"error": str(exc)}, status=400)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_json({"error": f"internal error: {exc}"}, status=500)
        finally:
            known = any(path == self.path for _verb, path in self.routes)
            endpoint = self.path if known else "other"
            self.observe(endpoint, time.perf_counter() - t0, self._status)

    def _read_body(self) -> Optional[bytes]:
        """The request body; None once a bad length has been answered."""
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            error = f"Content-Length {length!r} is not a non-negative integer"
        elif int(length) > _MAX_BODY_BYTES:
            # Read would allocate the declared length before the first byte.
            error = f"Content-Length {length} is over {_MAX_BODY_BYTES} bytes"
        else:
            return self.rfile.read(int(length))
        # Framing is lost — where the next request starts is unknowable,
        # the body being unread — so the connection closes after the reply.
        self._send_json(
            {"error": error}, status=400, extra_headers={"Connection": "close"}
        )
        return None

    @staticmethod
    def _parse_json(raw: bytes) -> dict:
        try:
            obj = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise QueryError(f"request body is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise QueryError("request body must be a JSON object")
        return obj

    def _send(
        self,
        status: int,
        raw: bytes,
        content_type: str,
        extra_headers: Optional[dict] = None,
    ) -> None:
        self._status = status
        self.release()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(raw)

    def _send_json(
        self,
        payload: dict,
        status: int = 200,
        extra_headers: Optional[dict] = None,
    ) -> None:
        raw = json.dumps(payload).encode("utf-8")
        self._send(status, raw, "application/json", extra_headers)

    def _send_text(self, body: str) -> None:
        # The Prometheus text exposition content type.
        self._send(
            200, body.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
        )


class _Node:
    """What a node's handler serves: the service, the admission gate, and
    the fleet fields.  A single-process server is worker 0 of 1, at
    generation 0, and the writer; a pre-forked worker
    (:mod:`repro.service.supervisor`) sets the fields and overrides the
    two hooks."""

    def __init__(self, service: QueryService, gate: Optional[AdmissionGate]) -> None:
        self.service = service
        #: Admission gate for the search endpoints; None = admit everything.
        self.gate = gate
        self.worker_id = 0
        self.worker_count = 1
        self.generation = 0
        #: A reader answers mutations with ``409``.
        self.writer = True

    def mutated(self) -> None:
        """After each successful mutation; one process has no one to tell."""

    def promote(self) -> None:
        """Take the writer role (routed on a worker's admin port only)."""
        self.writer = True


#: Endpoints the admission gate applies to: the ones that do real query
#: work.  Health probes, stats and mutations stay ungated so operators
#: can always see (and heal) an overloaded server.
_GATED_ENDPOINTS = frozenset({"/search", "/search/batch"})


class _ServiceRequestHandler(JsonRequestHandler):
    """The node's routes over one bound :class:`_Node`.

    Every request is observed into the service's
    ``repro_request_seconds{endpoint=...}`` histogram and
    ``repro_requests_total{endpoint=..., status=...}`` counter.  Each
    request reads the node's fields afresh, so a worker that swapped in a
    newer service or took the writer role serves it from its next request.
    """

    node: _Node  # bound per server by _handler
    _held: Optional[AdmissionGate] = None  # the gate slot this request holds

    @property
    def service(self) -> QueryService:
        return self.node.service

    # -- hooks ---------------------------------------------------------
    def admit(self) -> bool:
        if self.path == "/datasets" and not self.node.writer:
            self._send_json(
                {
                    "error": "this worker is read-only; send mutations to the "
                    "fleet's writer (writer_id in the supervisor's admin /healthz)"
                },
                status=409,
            )
            return False
        gate = self.node.gate
        if gate is not None and self.path in _GATED_ENDPOINTS:
            if not gate.try_acquire():
                # Shed: never touches the service, so query telemetry stays
                # a picture of admitted work; the status-labelled request
                # counter and the shed counter record the rejection.
                self.service.observability.registry.inc("repro_requests_shed_total")
                self._send_json(
                    {
                        "error": "server is at capacity; retry later",
                        "retry_after_s": admission.RETRY_AFTER_S,
                    },
                    status=429,
                    extra_headers={
                        "Retry-After": str(max(1, math.ceil(admission.RETRY_AFTER_S)))
                    },
                )
                return False
            self._held = gate
        if self.command == "POST":
            if faults.ARMED is not None:
                faults.hit("handler")
        return True

    def release(self) -> None:
        held, self._held = self._held, None
        if held is not None:
            held.release()

    def observe(self, endpoint: str, seconds: float, status: int) -> None:
        self.service.observability.observe_request(endpoint, seconds, status)

    # -- helpers -------------------------------------------------------
    def _serving_fields(self) -> dict:
        """Worker identity + snapshot generation (defaults single-process)."""
        node = self.node
        return {
            "snapshot_generation": node.generation,
            "worker_id": node.worker_id,
            "worker_count": node.worker_count,
        }

    def _mutated(self, receipt: dict) -> None:
        self.node.mutated()
        self._send_json(receipt)

    # -- routes --------------------------------------------------------
    def _healthz(self) -> None:
        service = self.service
        self._send_json(
            {
                "status": "ok",
                "engine": service.engine_kind,
                "n_datasets": service.n_datasets,
                "n_live": service.n_live,
                "n_shards": service.n_shards,
                **self._serving_fields(),
            }
        )

    def _stats(self) -> None:
        stats = self.service.stats()
        stats["serving"] = self._serving_fields()
        gate = self.node.gate
        if gate is not None:
            stats["admission"] = gate.snapshot()
        self._send_json(stats)
    def _stats_slow(self) -> None:
        obs = self.service.observability
        self._send_json(
            {
                "threshold_ms": obs.slow_log.threshold_ms,
                "n_recorded": int(
                    obs.registry.counter_value("repro_slow_queries_total")
                ),
                "slow_queries": obs.slow_log.snapshot(),
            }
        )

    def _metrics(self) -> None:
        self._send_text(self.service.observability.render_prometheus())

    def _search(self, body: dict) -> None:
        single = self.path == "/search"
        fields = parse_batch_body(body, single)
        fmt = fields.pop("format")
        service = self.service
        results = service.search_batch(
            [expression_from_json(e) for e in fields.pop("expressions")], **fields
        )
        n_datasets = service.n_datasets
        encoded = [encode_result(r, fmt, n_datasets) for r in results]
        if single:
            payload = encoded[0]
            payload.setdefault("emit_times", [])
        else:
            payload = {"results": encoded}
        if results[0].trace is not None:
            # One span tree per batch (stages are batch-wide; per-query
            # assembly spans carry their query index).
            payload["trace"] = results[0].trace
        self._send_json(payload)

    def _add_datasets(self, body: dict) -> None:
        parsed = decode(ADD_DATASETS, body, "")["datasets"]
        self._mutated(self.service.add_datasets(datasets=parsed))

    def _remove_datasets(self, body: dict) -> None:
        parsed = decode(REMOVE_DATASETS, body, "")["indexes"]
        self._mutated(self.service.remove_datasets(parsed))

    def _invalidate(self, body: dict) -> None:
        self.service.invalidate_cache()
        self._send_json({"generation": self.service.cache.generation})

    routes = {
        ("GET", "/healthz"): _healthz,
        ("GET", "/stats"): _stats,
        ("GET", "/stats/slow"): _stats_slow,
        ("GET", "/metrics"): _metrics,
        ("POST", "/search"): _search,
        ("POST", "/search/batch"): _search,
        ("POST", "/datasets"): _add_datasets,
        ("DELETE", "/datasets"): _remove_datasets,
        ("POST", "/cache/invalidate"): _invalidate,
    }


def _handler(base: type, quiet: bool, **attrs: Any) -> type:
    """A handler class of ``base`` bound to ``attrs`` (the object its
    routes serve), one per server: a patch on one server's class touches
    no other."""
    name = "Bound" + base.__name__.lstrip("_")
    return type(name, (base,), {"quiet": quiet, **attrs})


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = True,
    gate: Optional[AdmissionGate] = None,
) -> ThreadingHTTPServer:
    """A ready-to-run HTTP server bound to ``service`` (port 0 = ephemeral).

    ``gate`` bounds concurrent search requests (see
    :class:`~repro.service.admission.AdmissionGate`).
    """
    handler = _handler(_ServiceRequestHandler, quiet, node=_Node(service, gate))
    return ThreadingHTTPServer((host, port), handler)


def _serve_forever(
    httpd: ThreadingHTTPServer, banner: str, close: Callable[[], None]
) -> None:
    """Announce the address and the route table, serve until Ctrl-C, then
    close the socket and the served object (node and coordinator alike)."""
    host, port = httpd.server_address[:2]
    print(banner.format(url=f"http://{host}:{port}"))
    routes = httpd.RequestHandlerClass.routes  # type: ignore[attr-defined]
    print("endpoints: " + ", ".join(f"{verb} {path}" for verb, path in routes))
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down")
    finally:
        httpd.server_close()
        close()


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = False,
    max_inflight: Optional[int] = None,
    max_queue: int = 0,
) -> None:
    """Serve forever (Ctrl-C to stop); the ``repro serve`` entry point.

    ``max_inflight`` caps concurrently-executing search requests (None =
    unbounded); ``max_queue`` lets that many excess requests wait briefly
    for a slot before being shed with ``429``.
    """
    gate = (
        AdmissionGate(max_inflight=max_inflight, max_queue=max_queue)
        if max_inflight is not None
        else None
    )
    httpd = make_server(service, host, port, quiet=quiet, gate=gate)
    _serve_forever(httpd, "repro service listening on {url}", service.close)
