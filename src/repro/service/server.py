"""Stdlib-HTTP JSON endpoint over a :class:`~repro.service.QueryService`.

Wire format (all bodies JSON):

``POST /search``
    ``{"expression": EXPR, "record_times": false, "trace": false}`` →
    ``{"indexes": [...], "emit_times": [...], "stats": {...}}``; with
    ``record_times`` the emit stamps are *relative to the query start* (a
    ``duration_s`` field is included) — absolute ``perf_counter`` values
    are meaningless outside the server process.  With ``"trace": true``
    (or a service constructed with ``tracing=True``; an explicit
    ``false`` opts out) the payload gains ``"trace"``: the span tree of
    the serving pipeline, all times relative to the query start (see
    :mod:`repro.service.observability` for the schema).
``POST /search/batch``
    ``{"expressions": [EXPR, ...]}`` →
    ``{"results": [{"indexes": [...], "stats": {...}}, ...]}``.
    Accepts the same ``record_times`` and ``trace`` flags as
    ``/search``: with ``record_times`` each result carries its
    batch-start-relative ``emit_times`` plus ``duration_s``, and with
    tracing the *response* carries one top-level ``"trace"`` span tree
    for the whole batch (per-query assembly spans are tagged with their
    query index) on the same clock.
    With ``"format": "bitset"`` each result instead carries the packed
    answer ``{"bitset": {"encoding": "u64le+b64", "n_bits": N, "words":
    B64}, "out_size": k, "stats": {...}}`` — the base64 of the
    little-endian ``uint64`` word buffer, encoded zero-copy from the
    warm path's bitmap (no per-index Python objects are ever
    materialized).  Bit ``i`` set means dataset ``i`` is in the answer;
    decode with :func:`repro.core.bitset.bitmap_from_wire`.  For batch
    answers averaging more than ~64/6 members per 64 datasets the packed
    form is also smaller on the wire than the decimal index list.
``POST /datasets``
    ``{"datasets": [[[x, y], ...], ...]}`` (one point array per new
    dataset) → the :meth:`~repro.service.service.QueryService.add_datasets`
    receipt ``{"indexes": [...], "rebuilt": false, ...}``.  Ingestion is
    live: cached leaf answers are upgraded from the delta shard, not
    flushed.
``DELETE /datasets``
    ``{"indexes": [i, ...]}`` → the
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

Multi-process serving (:mod:`repro.service.supervisor`) binds one handler
class per worker over a *provider* — a zero-argument callable returning
the current service — so a sibling worker can hot-swap its engine when
the writer publishes a new snapshot generation without re-creating the
listening socket.  Non-writer workers are constructed read-only: mutating
endpoints (``POST /datasets``, ``DELETE /datasets``) answer ``409`` and
name the writer, so a load balancer spraying requests across workers
cannot fork divergent states.

``EXPR`` is a recursive object::

    {"op": "and" | "or", "children": [EXPR, ...]}
    {"op": "ptile", "lo": [..], "hi": [..], "theta": [a, b?]}   # b omitted/null = inf
    {"op": "pref", "vector": [..], "k": 5, "tau": 0.8}

The server is a ``ThreadingHTTPServer``; concurrency is safe because the
service serializes shard access with per-shard locks and the cache and
telemetry guard their mutable state with their own locks.
"""

from __future__ import annotations

import json
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional

import numpy as np

from repro.core.bitset import DatasetBitmap
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import And, Expression, Or, Predicate
from repro.core.results import QueryResult
from repro.errors import QueryError, ReproError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.service import faults
from repro.service.admission import AdmissionGate
from repro.service.service import QueryService


# ----------------------------------------------------------------------
# Expression (de)serialization
# ----------------------------------------------------------------------
def expression_from_json(obj: dict) -> Expression:
    """Parse the wire format into a predicate expression tree."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise QueryError("expression must be an object with an 'op' field")
    op = obj["op"]
    if op in ("and", "or"):
        children = obj.get("children")
        if not isinstance(children, list) or not children:
            raise QueryError(f"'{op}' needs a non-empty 'children' list")
        parsed = [expression_from_json(c) for c in children]
        return And(parsed) if op == "and" else Or(parsed)
    if op == "ptile":
        try:
            rect = Rectangle(obj["lo"], obj["hi"])
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"bad ptile leaf: {exc}")
        theta = obj.get("theta")
        if not isinstance(theta, list) or not 1 <= len(theta) <= 2:
            raise QueryError("'theta' must be [a] or [a, b]")
        try:
            lo = float(theta[0])
            hi = (
                float(theta[1])
                if len(theta) == 2 and theta[1] is not None
                else math.inf
            )
            return Predicate(PercentileMeasure(rect), Interval(lo, hi))
        except (TypeError, ValueError) as exc:
            raise QueryError(f"bad ptile theta: {exc}")
    if op == "pref":
        try:
            measure = PreferenceMeasure(
                np.asarray(obj["vector"], dtype=float), k=int(obj["k"])
            )
            tau = float(obj["tau"])
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"bad pref leaf: {exc}")
        return Predicate(measure, Interval.at_least(tau))
    raise QueryError(f"unknown op {op!r}")


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


def _result_bitmap(result: QueryResult, service: QueryService) -> DatasetBitmap:
    """The result's packed answer, zero-copy where the warm path made one.

    Results carry their bitmap straight through — encoding touches only
    the word buffer, never a Python index list.  Only ``record_times``
    results (an index list in emission order) are packed here.
    """
    if result.bitmap is not None:
        return result.bitmap
    return DatasetBitmap.from_indices(result.indexes, service.n_datasets)


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
#: Paths that get their own ``endpoint`` label on the request metrics;
#: anything else is folded into ``"other"`` so an URL-scanning client
#: cannot blow up the label cardinality.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/healthz",
        "/stats",
        "/stats/slow",
        "/metrics",
        "/search",
        "/search/batch",
        "/datasets",
        "/cache/invalidate",
        "/admin/promote",
    }
)

#: Endpoints the admission gate applies to: the ones that do real query
#: work.  Health probes, stats and mutations stay ungated so operators
#: can always see (and heal) an overloaded server.
_GATED_ENDPOINTS = frozenset({"/search", "/search/batch"})


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Shared JSON-over-HTTP plumbing for the repo's stdlib handlers.

    Owns nothing but the wire mechanics: JSON request parsing with a
    :class:`~repro.errors.QueryError` on malformed bodies, JSON and
    Prometheus-text responses with correct ``Content-Length``, quiet
    logging, and the ``_status`` stamp the metrics observers read.  The
    service handler below and the federation coordinator's handler
    (:mod:`repro.service.federation`) both subclass it, so the two
    servers cannot drift on framing details.
    """

    quiet: bool = True
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: object) -> None:  # pragma: no cover
        if not self.quiet:
            super().log_message(fmt, *args)

    def _send_json(
        self,
        payload: dict,
        status: int = 200,
        extra_headers: Optional[dict] = None,
    ) -> None:
        self._status = status
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, body: str, status: int = 200) -> None:
        self._status = status
        raw = body.encode("utf-8")
        self.send_response(status)
        # The Prometheus text exposition content type.
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise QueryError(f"request body is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise QueryError("request body must be a JSON object")
        return obj


class _ServiceRequestHandler(JsonRequestHandler):
    """Routes HTTP verbs to the bound service; set via ``make_handler``.

    Every handled request is observed into the service's
    ``repro_request_seconds{endpoint=...}`` histogram and
    ``repro_requests_total{endpoint=..., status=...}`` counter.

    ``service`` is either a plain class attribute (single-process mode)
    or a property over a provider callable (supervisor workers, which
    hot-swap the engine on snapshot-generation bumps).  ``context`` is a
    *shared, mutable* dict the supervisor updates in place — worker
    identity and the serving snapshot generation — read fresh on every
    request.
    """

    service: QueryService  # injected by make_handler
    writable: bool = True
    #: Called (no args) after each successful mutation — the supervisor's
    #: writer worker publishes a new snapshot generation here.
    on_mutate: Optional[Callable[[], None]] = None
    #: Admission gate for the search endpoints; None = admit everything.
    gate: Optional[AdmissionGate] = None
    #: Writer-promotion hook, bound ONLY on a supervisor worker's admin
    #: port (the public port must 404 it — a load balancer reaching it
    #: could mint a second writer).  Flips this worker writable.
    promote_hook: Optional[Callable[[], None]] = None
    context: dict = {}

    # -- helpers -------------------------------------------------------
    def _observe(self, t0: float) -> None:
        endpoint = self.path if self.path in _KNOWN_ENDPOINTS else "other"
        self.service.observability.observe_request(
            endpoint, time.perf_counter() - t0, getattr(self, "_status", 500)
        )

    def _serving_fields(self) -> dict:
        """Worker identity + snapshot generation (defaults single-process)."""
        ctx = self.context
        return {
            "snapshot_generation": int(ctx.get("snapshot_generation", 0)),
            "worker_id": int(ctx.get("worker_id", 0)),
            "worker_count": int(ctx.get("worker_count", 1)),
        }

    def _mutated(self) -> None:
        if self.on_mutate is not None:
            self.on_mutate()

    def _reject_read_only(self) -> None:
        self._send_json(
            {
                "error": "this worker is read-only; send mutations to the "
                "writer worker (worker 0)"
            },
            status=409,
        )

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:
        t0 = time.perf_counter()
        try:
            if self.path == "/healthz":
                service = self.service
                payload = {
                    "status": "ok",
                    "engine": service.engine_kind,
                    "n_datasets": service.n_datasets,
                    "n_live": service.n_live,
                    "n_shards": service.n_shards,
                }
                payload.update(self._serving_fields())
                self._send_json(payload)
            elif self.path == "/stats":
                stats = self.service.stats()
                stats["serving"] = self._serving_fields()
                if self.gate is not None:
                    stats["admission"] = self.gate.snapshot()
                self._send_json(stats)
            elif self.path == "/stats/slow":
                log = self.service.observability.slow_log
                self._send_json(
                    {
                        "threshold_ms": log.threshold_ms,
                        "n_recorded": log.n_recorded,
                        "slow_queries": log.snapshot(),
                    }
                )
            elif self.path == "/metrics":
                self._send_text(self.service.observability.render_prometheus())
            else:
                self._send_json({"error": f"unknown path {self.path}"}, status=404)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_json({"error": f"internal error: {exc}"}, status=500)
        finally:
            self._observe(t0)

    @staticmethod
    def _trace_flag(body: dict) -> Optional[bool]:
        """The request's trace override (None = service default)."""
        trace = body.get("trace")
        return None if trace is None else bool(trace)

    @staticmethod
    def _search_kwargs(body: dict) -> dict:
        """The optional search knobs shared by /search and /search/batch."""
        kwargs: dict = {}
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is not None:
            kwargs["deadline_ms"] = deadline_ms
        if body.get("degrade"):
            kwargs["degrade"] = True
        return kwargs

    @staticmethod
    def _degraded_fields(result: QueryResult, fmt: str = "indexes") -> dict:
        """The extra wire fields of a degraded answer (empty when exact).

        The main ``indexes``/``bitset`` payload of a degraded result is
        its *must* set; these fields add the disjoint *maybe* set and the
        degradation metadata, so clients can tell an exact answer from a
        bounded one without inspecting stats.
        """
        if not result.stats.get("degraded"):
            return {}
        out: dict = {"degraded": True}
        maybe = result.maybe_bitmap
        if fmt == "bitset":
            out["maybe_bitset"] = maybe.to_wire()
        else:
            out["maybe_indexes"] = maybe.to_list()
        return out

    def do_POST(self) -> None:
        t0 = time.perf_counter()
        gate = self.gate
        gated = gate is not None and self.path in _GATED_ENDPOINTS
        if gated and not gate.try_acquire():
            # Shed: never touches the service, so query telemetry stays a
            # picture of admitted work; the status-labelled request
            # counter and the shed counter record the rejection.
            self.service.observability.registry.inc("repro_requests_shed_total")
            self._send_json(
                {
                    "error": "server is at capacity; retry later",
                    "retry_after_s": gate.retry_after_s,
                },
                status=429,
                extra_headers={
                    "Retry-After": str(max(1, math.ceil(gate.retry_after_s)))
                },
            )
            self._observe(t0)
            return
        try:
            self._handle_post(t0)
        finally:
            if gated:
                gate.release()

    def _handle_post(self, t0: float) -> None:
        try:
            if faults.ARMED is not None:
                faults.hit("handler")
            body = self._read_json()
            if self.path == "/search":
                expr = expression_from_json(body.get("expression"))
                result = self.service.search(
                    expr,
                    record_times=bool(body.get("record_times", False)),
                    trace=self._trace_flag(body),
                    **self._search_kwargs(body),
                )
                payload = {
                    "indexes": result.indexes,
                    "emit_times": [],
                    "stats": result.stats,
                }
                payload.update(self._degraded_fields(result))
                if result.start_time is not None:
                    # Absolute perf_counter stamps are process-local and
                    # meaningless on the wire; ship start-relative offsets.
                    payload["emit_times"] = [
                        t - result.start_time for t in result.emit_times
                    ]
                    payload["duration_s"] = result.end_time - result.start_time
                if result.trace is not None:
                    payload["trace"] = result.trace
                self._send_json(payload)
            elif self.path == "/search/batch":
                exprs_json = body.get("expressions")
                if not isinstance(exprs_json, list) or not exprs_json:
                    raise QueryError("'expressions' must be a non-empty list")
                fmt = body.get("format", "indexes")
                if fmt not in ("indexes", "bitset"):
                    raise QueryError(
                        f"'format' must be 'indexes' or 'bitset', got {fmt!r}"
                    )
                exprs = [expression_from_json(e) for e in exprs_json]
                results = self.service.search_batch(
                    exprs,
                    record_times=bool(body.get("record_times", False)),
                    trace=self._trace_flag(body),
                    **self._search_kwargs(body),
                )
                encoded = []
                for r in results:
                    if fmt == "bitset":
                        one = {
                            "bitset": _result_bitmap(r, self.service).to_wire(),
                            "out_size": r.out_size,
                            "stats": r.stats,
                        }
                    else:
                        one = {"indexes": r.indexes, "stats": r.stats}
                    one.update(self._degraded_fields(r, fmt))
                    if r.start_time is not None:
                        # Batch-start-relative, on the same clock as the
                        # trace spans (one shared origin per batch).
                        one["emit_times"] = [
                            t - r.start_time for t in r.emit_times
                        ]
                        one["duration_s"] = r.end_time - r.start_time
                    encoded.append(one)
                payload = {"results": encoded}
                if results and results[0].trace is not None:
                    # One span tree per batch (stages are batch-wide;
                    # per-query assembly spans carry their query index).
                    payload["trace"] = results[0].trace
                self._send_json(payload)
            elif self.path == "/admin/promote":
                if self.promote_hook is None:
                    # Not the admin port (or single-process mode): hide the
                    # endpoint entirely rather than reveal a writer control.
                    self._send_json(
                        {"error": f"unknown path {self.path}"}, status=404
                    )
                else:
                    self.promote_hook()
                    payload = {"promoted": True}
                    payload.update(self._serving_fields())
                    self._send_json(payload)
            elif self.path == "/datasets":
                if not self.writable:
                    self._reject_read_only()
                    return
                arrays = body.get("datasets")
                if not isinstance(arrays, list) or not arrays:
                    raise QueryError(
                        "'datasets' must be a non-empty list of point arrays"
                    )
                parsed = []
                for a in arrays:
                    try:
                        parsed.append(np.asarray(a, dtype=float))
                    except (TypeError, ValueError) as exc:
                        raise QueryError(f"bad dataset array: {exc}")
                receipt = self.service.add_datasets(datasets=parsed)
                self._mutated()
                self._send_json(receipt)
            elif self.path == "/cache/invalidate":
                self.service.invalidate_cache()
                self._send_json({"generation": self.service.cache.generation})
            else:
                self._send_json({"error": f"unknown path {self.path}"}, status=404)
        except ReproError as exc:
            self._send_json({"error": str(exc)}, status=400)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_json({"error": f"internal error: {exc}"}, status=500)
        finally:
            self._observe(t0)

    def do_DELETE(self) -> None:
        t0 = time.perf_counter()
        try:
            body = self._read_json()
            if self.path == "/datasets":
                if not self.writable:
                    self._reject_read_only()
                    return
                indexes = body.get("indexes")
                if not isinstance(indexes, list) or not indexes:
                    raise QueryError("'indexes' must be a non-empty list of ints")
                try:
                    parsed = [int(i) for i in indexes]
                except (TypeError, ValueError) as exc:
                    raise QueryError(f"bad dataset index: {exc}")
                receipt = self.service.remove_datasets(parsed)
                self._mutated()
                self._send_json(receipt)
            else:
                self._send_json({"error": f"unknown path {self.path}"}, status=404)
        except ReproError as exc:
            self._send_json({"error": str(exc)}, status=400)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._send_json({"error": f"internal error: {exc}"}, status=500)
        finally:
            self._observe(t0)


def make_handler(
    service: Optional[QueryService] = None,
    quiet: bool = True,
    *,
    provider: Optional[Callable[[], QueryService]] = None,
    context: Optional[dict] = None,
    on_mutate: Optional[Callable[[], None]] = None,
    writable: bool = True,
    gate: Optional[AdmissionGate] = None,
    promote_hook: Optional[Callable[[], None]] = None,
) -> type:
    """A request-handler class bound to a service (or a service provider).

    Exactly one of ``service`` / ``provider`` must be given.  A provider
    is a zero-argument callable returning the *current* service — the
    supervisor's hot-swap hook: each request resolves it afresh, so a
    worker that just reloaded a newer snapshot generation serves it
    without touching the listening socket.  ``context`` is kept by
    reference (not copied) so the owner can update worker/generation
    fields in place; ``on_mutate`` fires after each successful mutation
    (the writer worker's publish hook); ``writable=False`` turns both
    mutating endpoints into ``409`` rejections.

    ``gate`` bounds concurrent search requests (see
    :class:`~repro.service.admission.AdmissionGate`); ``promote_hook``
    enables ``POST /admin/promote`` — bind it ONLY on a private admin
    port, since whoever can reach it can mint a writer.
    """
    if (service is None) == (provider is None):
        raise ValueError("pass exactly one of 'service' or 'provider'")
    namespace: dict = {
        "quiet": quiet,
        "writable": writable,
        "on_mutate": staticmethod(on_mutate) if on_mutate is not None else None,
        "context": context if context is not None else {},
        "gate": gate,
    }
    if promote_hook is not None:
        namespace["promote_hook"] = staticmethod(promote_hook)
    if provider is not None:
        namespace["_provider"] = staticmethod(provider)
        namespace["service"] = property(lambda self: self._provider())
    else:
        namespace["service"] = service
    return type("BoundServiceRequestHandler", (_ServiceRequestHandler,), namespace)


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = True,
    **handler_kwargs: Any,
) -> ThreadingHTTPServer:
    """A ready-to-run HTTP server bound to ``service`` (port 0 = ephemeral)."""
    return ThreadingHTTPServer(
        (host, port), make_handler(service, quiet, **handler_kwargs)
    )


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
    addr = httpd.server_address
    print(f"repro service listening on http://{addr[0]}:{addr[1]}")
    print("endpoints: GET /healthz, GET /stats, GET /stats/slow, "
          "GET /metrics, POST /search, POST /search/batch, "
          "POST /datasets, DELETE /datasets, POST /cache/invalidate")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down")
    finally:
        httpd.server_close()
        service.close()
