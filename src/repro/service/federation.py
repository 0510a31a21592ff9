"""Federated scatter-gather coordinator over per-node ``repro serve`` nodes.

The paper's federated setting (Section 1.1) is a marketplace: sellers
publish synopses, the index answers over the union of their catalogs,
and "missing sellers is generally unacceptable".  This module promotes
the one-process demo (``examples/federated_market.py``) to a real
topology: a :class:`FederatedCoordinator` owns a registry of *nodes*
(independent ``repro serve`` HTTP instances, each over a disjoint slice
of the global dataset universe), scatters ``POST /search/batch`` to all
of them, and merges the per-node bitset answers with the same
offset-shifted OR algebra the sharded executor uses in-process
(:meth:`~repro.core.bitset.DatasetBitmap.shift_into`) — sound because
every dataset lives in exactly one node, exactly like shards.  Nodes
built with :func:`federated_node_service` share the *global* accuracy
frame (``capacity``, global-index coresets, one bounding box), which
makes the healthy-path merge bit-identical to a single service over the
whole lake, not merely sound.

Robustness is the headline; the coordinator never turns a node problem
into a 500:

- **Sub-deadlines** — a query's ``deadline_ms`` budget is carved into a
  per-node RPC budget (the whole budget minus a merge-margin reserve, on
  the same monotonic :class:`~repro.service.deadline.Deadline` clock as
  the rest of the serving layer).  The forwarded body carries a slightly
  smaller ``deadline_ms`` so a healthy-but-slow node *degrades itself*
  (its own synopsis screen) instead of timing out on the wire.
- **Bounded retries + hedging** — failed RPC attempts are retried up to
  ``max_retries`` times with capped exponential backoff and full jitter
  (so a blip does not resynchronize every retry into a thundering herd);
  on the *first* attempt a single hedged duplicate request fires after
  ``hedge_delay_s`` if the primary looks like a straggler, and the first
  success wins.
- **Circuit breaker** — ``breaker_threshold`` consecutive failures trip
  a node's breaker open; while open the coordinator answers for that
  node from its registered synopsis screen without burning budget on
  doomed RPCs.  After ``breaker_reset_s`` a single half-open probe is
  admitted: success closes the breaker, failure re-opens it.
- **Graceful degradation** — a node that is down, tripped, drifted, or
  over budget contributes the three-valued screen of its *registered*
  synopses (:func:`~repro.service.degrade.screen_synopses` +
  :func:`~repro.service.planner.combine_bounds`): a **must** bitmap of
  datasets certainly in its answer and a **maybe** bitmap of datasets
  possibly in it.  Nodes registered without synopses degrade to
  ``(∅, full)`` — still sound, just uninformative.  Because nodes
  partition the universe, OR-merging per-node ``must``/``maybe`` pairs
  preserves ``must ⊆ exact ⊆ must ∪ maybe`` globally, and the answer
  reports ``coverage``: the fraction of the universe answered exactly.

Failure injection: the ``node_rpc`` failpoint
(:mod:`repro.service.faults`) fires at the top of every RPC attempt in
the coordinator process, so a chaos test can stall or fail every scatter
leg without touching the node processes.

HTTP surface (see :func:`make_federation_server`):

- ``POST /nodes`` — register a node.  ``url``: an ``http(s)://host[:port]``
  string, required (only the shape is checked: a node that is down still
  registers).  ``n_datasets``: an integer in [1, 2**31 - 1], default the
  node's ``/healthz`` is probed for it; the federated universe has the
  same ceiling.  ``synopses``: a list of :mod:`repro.synopsis.serialize`
  payloads, one per dataset, default none (every number in one is finite,
  every error bound — ``delta``, ``delta_pref``, ``radius`` — is >= 0,
  ``n_points`` an integer in [1, 2**53]).  ``eps``, ``eps_effective``:
  numbers >= 0, default unknown.
- ``DELETE /nodes`` — ``node_id``: an integer >= 0, required; drops the
  node (later nodes' offsets shift down; the universe stays contiguous).
- ``POST /search`` / ``POST /search/batch`` — the single-node bodies
  (``expression`` / ``expressions``, ``format``, ``deadline_ms``; the
  node-only ``record_times`` / ``trace`` / ``degrade`` are type-checked
  and otherwise unused) and replies, plus a ``"federation"`` object
  reporting per-node outcomes and per-result ``coverage``.
- ``GET /stats`` — per-node health: breaker state, attempt/retry/hedge
  counters, last error.  ``GET /metrics`` — Prometheus text exposition
  with per-node latency histograms and scatter/gather/merge stage
  timings.  ``GET /healthz`` — liveness plus the federated universe size.
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.bitset import DatasetBitmap, bitmap_from_wire
from repro.core.predicates import Expression
from repro.core.results import QueryResult
from repro.errors import ConstructionError, QueryError
from repro.service import faults
from repro.service.deadline import Deadline
from repro.service.degrade import screen_synopses
from repro.service.observability import NO_SPAN, MetricsRegistry, Tracer
from repro.service.planner import combine_bounds, plan_query
from repro.service.server import (
    JsonRequestHandler,
    _serve_forever,
    encode_result,
    expression_from_json,
    expression_to_json,
    http_call,
    parse_batch_body,
)
from repro.synopsis.base import Synopsis
from repro.synopsis.serialize import from_dict as synopsis_from_dict
from repro.wire import ADD_NODE, N_DATASETS, NODE_REPLY, REMOVE_NODE, decode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.rectangle import Rectangle
    from repro.service.service import QueryService

#: One node's parsed per-expression answer: (must, maybe-or-None).
NodeAnswer = Tuple[DatasetBitmap, Optional[DatasetBitmap]]

#: ``/healthz`` probe timeout used when a node registers without
#: ``n_datasets``, seconds.
PROBE_TIMEOUT_S = 2.0


class NodeRPCError(RuntimeError):
    """A node RPC leg that failed after retries (internal control flow).

    Never escapes the coordinator: every :class:`NodeRPCError` is
    converted into a synopsis-screened degraded contribution.  ``reason``
    is the wire-visible label (``"unreachable"``, ``"breaker_open"``,
    ``"budget_exhausted"``, ``"universe_drift"``, ...).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


class CircuitBreaker:
    """Consecutive-failure breaker with single-probe half-open recovery.

    States: ``closed`` (all traffic admitted) → ``open`` after
    ``threshold`` consecutive failures (all traffic rejected for
    ``reset_s``) → ``half_open`` (exactly one probe admitted) → back to
    ``closed`` on probe success or ``open`` on probe failure; a probe that
    ends with neither verdict (:meth:`release_probe`) leaves it half-open
    with the slot free.  The clock is injectable so tests can drive
    transitions without sleeping.

    Examples
    --------
    >>> t = [0.0]
    >>> b = CircuitBreaker(threshold=2, reset_s=1.0, clock=lambda: t[0])
    >>> b.record_failure(), b.record_failure(), b.state  # the second trips
    (False, True, 'open')
    >>> b.allow()
    False
    >>> t[0] = 1.5
    >>> b.allow(), b.allow()  # one half-open probe, not two
    (True, False)
    >>> b.record_success(); b.state
    'closed'
    """

    def __init__(
        self,
        threshold: int = 3,
        reset_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = int(threshold)
        self.reset_s = float(reset_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"  # guarded-by: _lock
        self._failures = 0  # guarded-by: _lock
        self._opened_at = 0.0  # guarded-by: _lock
        self._probe_inflight = False  # guarded-by: _lock
        self._trips = 0  # guarded-by: _lock

    def allow(self) -> bool:
        """May a request go out now?  Half-open admits exactly one probe."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at < self.reset_s:
                    return False
                self._state = "half_open"
                self._probe_inflight = True
                return True
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probe_inflight = False

    def release_probe(self) -> None:
        """Free the half-open probe slot without a verdict: the next
        request is the probe.  A no-op once a verdict was recorded."""
        with self._lock:
            self._probe_inflight = False

    def record_failure(self) -> bool:
        """Count one failure; True when it is the one that opens the
        breaker (a trip — the caller's cue to count it too)."""
        with self._lock:
            if self._state == "half_open":
                self._probe_inflight = False
            else:
                self._failures += 1
                if self._state == "open" or self._failures < self.threshold:
                    return False
            self._state = "open"
            self._opened_at = self._clock()
            self._trips += 1
            return True

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "trips": self._trips,
                "threshold": self.threshold,
                "reset_s": self.reset_s,
            }


class FederatedNode:
    """One registered node: address, universe slice, screen, health."""

    def __init__(
        self,
        node_id: int,
        url: str,
        n_datasets: int,
        synopses: Optional[Sequence[Synopsis]],
        eps: Optional[float],
        eps_effective: Optional[float],
        breaker: CircuitBreaker,
    ) -> None:
        self.node_id = node_id
        self.url = url.rstrip("/")
        self.n_datasets = int(n_datasets)
        self.synopses = list(synopses) if synopses is not None else None
        self.eps = eps
        self.eps_effective = eps_effective
        self.breaker = breaker
        self._lock = threading.Lock()
        self.ok_calls = 0  # guarded-by: _lock
        self.failed_calls = 0  # guarded-by: _lock
        self.retries = 0  # guarded-by: _lock
        self.hedges = 0  # guarded-by: _lock
        self.degraded_served = 0  # guarded-by: _lock
        self.last_error: Optional[str] = None  # guarded-by: _lock
        self.last_latency_s: Optional[float] = None  # guarded-by: _lock

    def note_success(self, latency_s: float) -> None:
        with self._lock:
            self.ok_calls += 1
            self.last_latency_s = latency_s

    def note_failure(self, error: str) -> None:
        with self._lock:
            self.failed_calls += 1
            self.last_error = error

    def note_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def note_hedge(self) -> None:
        with self._lock:
            self.hedges += 1

    def note_degraded(self) -> None:
        with self._lock:
            self.degraded_served += 1

    def snapshot(self) -> dict:
        with self._lock:
            counters = {
                "ok_calls": self.ok_calls,
                "failed_calls": self.failed_calls,
                "retries": self.retries,
                "hedges": self.hedges,
                "degraded_served": self.degraded_served,
                "last_error": self.last_error,
                "last_latency_ms": (
                    self.last_latency_s * 1e3
                    if self.last_latency_s is not None
                    else None
                ),
            }
        return {
            "node_id": self.node_id,
            "url": self.url,
            "n_datasets": self.n_datasets,
            "synopses_registered": self.synopses is not None,
            "breaker": self.breaker.snapshot(),
            **counters,
        }


class FederatedBatch:
    """One scatter-gather outcome: merged results + per-node metadata."""

    __slots__ = ("results", "nodes", "coverage", "n_datasets", "trace")

    def __init__(
        self,
        results: List[QueryResult],
        nodes: List[dict],
        coverage: float,
        n_datasets: int,
        trace: Optional[dict] = None,
    ) -> None:
        self.results = results
        self.nodes = nodes
        self.coverage = coverage
        self.n_datasets = n_datasets
        self.trace = trace

    def meta(self) -> dict:
        """The wire-format ``"federation"`` object."""
        out: dict = {
            "n_datasets": self.n_datasets,
            "coverage": self.coverage,
            "nodes": self.nodes,
        }
        if self.trace is not None:
            out["trace"] = self.trace
        return out


class FederatedCoordinator:
    """Scatter-gather ``/search/batch`` over registered nodes; never 500s
    on a node failure.

    Parameters
    ----------
    rpc_timeout_s:
        Per-attempt transport timeout when the query carries no deadline
        (with a deadline, the attempt budget is the tighter of the two).
    max_retries:
        Failed-attempt retries per node call (attempts = 1 + retries).
    backoff_base_s, backoff_max_s:
        Capped exponential retry backoff; each sleep is fully jittered in
        ``[base·2^k/2, base·2^k]`` so simultaneous failures de-correlate.
    hedge_delay_s:
        Straggler hedge: if the first attempt has not answered after this
        long, one duplicate request fires and the first success wins.
        ``None`` disables hedging.
    breaker_threshold, breaker_reset_s:
        Per-node circuit breaker (see :class:`CircuitBreaker`).
    merge_margin:
        Fraction of a query's deadline budget reserved for the merge
        phase (the scatter legs see the rest).
    seed:
        Seeds backoff jitter (tests pin it; production leaves it None).
    tracing:
        Record scatter/gather/merge spans on every batch and ship the
        span tree in the ``"federation"`` metadata.
    """

    def __init__(
        self,
        *,
        rpc_timeout_s: float = 5.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 0.5,
        hedge_delay_s: Optional[float] = 0.25,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 2.0,
        merge_margin: float = 0.15,
        seed: Optional[int] = None,
        tracing: bool = False,
    ) -> None:
        if not 0.0 <= merge_margin < 1.0:
            raise ValueError(
                f"merge_margin must be in [0, 1), got {merge_margin}"
            )
        self.rpc_timeout_s = float(rpc_timeout_s)
        self.max_retries = max(0, int(max_retries))
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.hedge_delay_s = (
            float(hedge_delay_s) if hedge_delay_s is not None else None
        )
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self.merge_margin = float(merge_margin)
        self.tracing = bool(tracing)
        self._lock = threading.Lock()
        self._nodes: Dict[int, FederatedNode] = {}  # guarded-by: _lock
        self._next_node_id = 0  # guarded-by: _lock
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock
        self._rng_lock = threading.Lock()
        self._rng = random.Random(seed)  # guarded-by: _rng_lock
        self.registry = MetricsRegistry()
        self._declare_metrics()

    # -- metrics -------------------------------------------------------
    def _declare_metrics(self) -> None:
        reg = self.registry
        reg.declare_histogram(
            "repro_federation_node_seconds",
            "Per-node scatter RPC latency (successful calls).",
        )
        reg.declare_histogram(
            "repro_federation_stage_seconds",
            "Coordinator pipeline stage latency (gather, merge).",
        )
        reg.declare_histogram(
            "repro_federation_request_seconds",
            "Coordinator HTTP request latency by endpoint.",
        )
        reg.describe(
            "repro_federation_requests_total",
            "counter",
            "Coordinator batches served, by outcome (exact/degraded).",
        )
        reg.describe(
            "repro_federation_node_attempts_total",
            "counter",
            "Node RPC attempts, by node and outcome.",
        )
        reg.describe(
            "repro_federation_retries_total",
            "counter",
            "Node RPC retries after a failed attempt.",
        )
        reg.describe(
            "repro_federation_hedges_total",
            "counter",
            "Hedged duplicate RPCs fired against stragglers.",
        )
        reg.describe(
            "repro_federation_breaker_trips_total",
            "counter",
            "Circuit-breaker open transitions across all nodes.",
        )
        reg.describe(
            "repro_federation_degraded_nodes_total",
            "counter",
            "Node contributions answered from the synopsis screen.",
        )
        reg.describe(
            "repro_federation_nodes",
            "gauge",
            "Registered node count.",
        )
        reg.gauge_source(self._gauges)

    def _gauges(self) -> List[Tuple[str, dict, float]]:
        with self._lock:
            n = len(self._nodes)
        return [("repro_federation_nodes", {}, float(n))]

    # -- node registry -------------------------------------------------
    def add_node(
        self,
        url: str,
        *,
        n_datasets: Optional[int] = None,
        synopses: Optional[Sequence[Union[Synopsis, dict]]] = None,
        eps: Optional[float] = None,
        eps_effective: Optional[float] = None,
    ) -> dict:
        """Register a node; returns its id and universe slice.

        ``n_datasets`` defaults to probing the node's ``/healthz``.
        ``synopses`` (optional, one per dataset, objects or the
        :mod:`repro.synopsis.serialize` wire dicts) power the node's
        degraded answers; without them an absent node contributes
        ``(∅, full slice)``.  ``eps`` / ``eps_effective`` are the node
        engine's accuracy-contract parameters — they tighten the screen's
        *can't* side; unknown is sound but looser.
        """
        fields = decode(
            ADD_NODE,
            {"url": url, "n_datasets": n_datasets, "synopses": synopses,
             "eps": eps, "eps_effective": eps_effective},
            "",
        )
        n_datasets = fields["n_datasets"]
        if n_datasets is None:  # only now: a refused url is never dialled
            probed = self._probe_n_datasets(url)
            n_datasets = decode(N_DATASETS, probed, "the node's /healthz n_datasets")
        parsed: Optional[List[Synopsis]] = None
        if synopses is not None:
            # The wire decoder refuses whatever is not a serialized synopsis;
            # a stray value kept here would crash the first degraded answer.
            parsed = [
                syn if isinstance(syn, Synopsis) else synopsis_from_dict(syn)
                for syn in fields["synopses"]
            ]
            if len(parsed) != n_datasets:
                raise QueryError(
                    f"synopsis count ({len(parsed)}) must match the node's "
                    f"n_datasets ({n_datasets}); a partial screen would make "
                    "degraded answers unsound"
                )
        with self._lock:
            # Ids only grow, so the new node's slice starts where the
            # universe ends today.
            offset = sum(n.n_datasets for n in self._nodes.values())
            if offset + n_datasets > N_DATASETS.hi:
                raise QueryError(
                    f"{n_datasets} more datasets would take the federated "
                    f"universe of {offset} past {N_DATASETS.hi}"
                )
            node_id = self._next_node_id
            self._next_node_id += 1
            node = FederatedNode(
                node_id=node_id,
                url=url,
                n_datasets=n_datasets,
                synopses=parsed,
                eps=fields["eps"],
                eps_effective=fields["eps_effective"],
                breaker=CircuitBreaker(
                    threshold=self.breaker_threshold,
                    reset_s=self.breaker_reset_s,
                ),
            )
            self._nodes[node_id] = node
        return {
            "node_id": node_id,
            "url": node.url,
            "n_datasets": n_datasets,
            "offset": offset,
            "total_datasets": offset + n_datasets,
            "synopses_registered": parsed is not None,
        }

    def remove_node(self, node_id: int) -> dict:
        """Drop a node; later nodes' offsets shift down to stay contiguous."""
        with self._lock:
            node = self._nodes.pop(node_id, None)
            total = sum(n.n_datasets for n in self._nodes.values())
        if node is None:
            raise QueryError(f"unknown node_id {node_id}")
        return {
            "node_id": node.node_id,
            "url": node.url,
            "removed": True,
            "total_datasets": total,
        }

    def _probe_n_datasets(self, url: str) -> object:
        try:
            status, raw = http_call(
                url.rstrip("/") + "/healthz", timeout=PROBE_TIMEOUT_S
            )
            if status != 200:
                raise OSError(f"HTTP {status}")
            return json.loads(raw)["n_datasets"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise QueryError(
                f"cannot register node {url!r}: /healthz probe failed "
                f"({exc}); pass n_datasets explicitly to register a node "
                "that is currently down"
            )

    def _layout(self) -> Tuple[List[FederatedNode], List[int], int]:
        """A consistent (nodes, offsets, total) snapshot for one request."""
        with self._lock:
            nodes = [self._nodes[k] for k in sorted(self._nodes)]
        offsets: List[int] = []
        total = 0
        for node in nodes:
            offsets.append(total)
            total += node.n_datasets
        return nodes, offsets, total

    @property
    def n_datasets(self) -> int:
        return self._layout()[2]

    @property
    def n_nodes(self) -> int:
        with self._lock:
            return len(self._nodes)

    def stats(self) -> dict:
        nodes, offsets, total = self._layout()
        per_node = []
        for node, offset in zip(nodes, offsets):
            snap = node.snapshot()
            snap["offset"] = offset
            per_node.append(snap)
        return {
            "federation": {
                "n_nodes": len(nodes),
                "n_datasets": total,
                "rpc_timeout_s": self.rpc_timeout_s,
                "max_retries": self.max_retries,
                "hedge_delay_s": self.hedge_delay_s,
                "merge_margin": self.merge_margin,
                "nodes": per_node,
            }
        }

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    # -- search --------------------------------------------------------
    def search(
        self,
        expression: Expression,
        *,
        deadline_ms: Optional[float] = None,
    ) -> FederatedBatch:
        """Scatter-gather a single expression (a one-element batch)."""
        return self.search_batch([expression], deadline_ms=deadline_ms)

    def search_batch(
        self,
        expressions: Sequence[Expression],
        *,
        deadline_ms: Optional[float] = None,
    ) -> FederatedBatch:
        """Scatter a batch to every node, merge with offset-shifted OR.

        Returns one :class:`~repro.core.results.QueryResult` per expression;
        a node problem degrades that node's slice instead of failing the
        batch, while a node's ``400`` — the *query* is wrong — raises
        :class:`~repro.errors.QueryError`.  An all-healthy merge is *exactly*
        the answer a single-node service over the whole universe would give.
        """
        if not expressions:
            raise QueryError("'expressions' must be a non-empty list")
        nodes, offsets, total = self._layout()
        if not nodes:
            raise QueryError("no nodes registered with the coordinator")
        deadline = (
            Deadline.from_ms(deadline_ms) if deadline_ms is not None else None
        )
        merge_reserve = (
            float(deadline_ms) / 1e3 * self.merge_margin
            if deadline_ms is not None
            else 0.0
        )
        exprs_json = [expression_to_json(e) for e in expressions]
        # Spans go to the ``"federation"."trace"`` tree only (no registry):
        # the stage histogram is fed by the two observations below, once per
        # batch with tracing on or off.
        tracer = Tracer() if self.tracing else None
        with (
            tracer.span(
                "federated_batch",
                n_nodes=len(nodes),
                n_queries=len(expressions),
            )
            if tracer is not None
            else NO_SPAN
        ) as root:
            t_gather = time.perf_counter()
            outcomes = self._scatter(
                nodes, exprs_json, deadline, merge_reserve, tracer
            )
            gather_s = time.perf_counter() - t_gather
            self.registry.observe(
                "repro_federation_stage_seconds", gather_s, {"stage": "gather"}
            )

            t_merge = time.perf_counter()
            with (
                tracer.span("merge", n_nodes=len(nodes))
                if tracer is not None
                else NO_SPAN
            ):
                batch = self._merge(
                    nodes, offsets, total, list(expressions), outcomes
                )
            self.registry.observe(
                "repro_federation_stage_seconds",
                time.perf_counter() - t_merge,
                {"stage": "merge"},
            )
        degraded_any = any(r.stats.get("degraded") for r in batch.results)
        self.registry.inc(
            "repro_federation_requests_total",
            {"outcome": "degraded" if degraded_any else "exact"},
        )
        if root is not None:
            batch.trace = root.to_dict()
        return batch

    # -- scatter -------------------------------------------------------
    def _scatter(
        self,
        nodes: List[FederatedNode],
        exprs_json: List[dict],
        deadline: Optional[Deadline],
        merge_reserve: float,
        tracer: Optional[Tracer],
    ) -> List[Union[List[NodeAnswer], NodeRPCError]]:
        """One outcome per node: parsed answers, or the error to screen."""
        with (
            tracer.span("scatter", n_nodes=len(nodes))
            if tracer is not None
            else NO_SPAN
        ):
            if len(nodes) == 1:
                return [self._call_node_safe(
                    nodes[0], exprs_json, deadline, merge_reserve
                )]
            pool = self._ensure_pool(len(nodes))
            futures = [
                pool.submit(
                    self._call_node_safe,
                    node, exprs_json, deadline, merge_reserve,
                )
                for node in nodes
            ]
            return [f.result() for f in futures]

    def _ensure_pool(self, width: int) -> ThreadPoolExecutor:
        """The scatter pool, replaced by a wider one once the fleet
        outgrows it.  The replaced pool is not shut down: a concurrent
        scatter may still be submitting its legs to it.  Its idle threads
        exit once the last scatter holding it lets it go."""
        with self._lock:
            if self._pool is None or self._pool._max_workers < width:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(4, 2 * width),
                    thread_name_prefix="fed-scatter",
                )
            return self._pool

    def _call_node_safe(
        self,
        node: FederatedNode,
        exprs_json: List[dict],
        deadline: Optional[Deadline],
        merge_reserve: float,
    ) -> Union[List[NodeAnswer], NodeRPCError]:
        try:
            return self._call_node(node, exprs_json, deadline, merge_reserve)
        except NodeRPCError as exc:
            node.note_failure(str(exc))
            return exc

    def _attempt_budget(
        self, deadline: Optional[Deadline], merge_reserve: float
    ) -> Optional[float]:
        """Seconds available for the next RPC attempt (None = no deadline)."""
        if deadline is None:
            return None
        return deadline.remaining() - merge_reserve

    def _call_node(
        self,
        node: FederatedNode,
        exprs_json: List[dict],
        deadline: Optional[Deadline],
        merge_reserve: float,
    ) -> List[NodeAnswer]:
        """One node's answers, through breaker + retries + hedging."""
        if not node.breaker.allow():
            raise NodeRPCError(
                "breaker_open", f"node {node.node_id} circuit breaker is open"
            )
        try:
            last_exc: Optional[BaseException] = None
            for attempt in range(self.max_retries + 1):
                budget = self._attempt_budget(deadline, merge_reserve)
                if budget is not None and budget <= 1e-3:
                    # Out of budget: NOT a node failure — don't feed the
                    # breaker, just fall back to the screen.
                    raise NodeRPCError(
                        "budget_exhausted",
                        f"node {node.node_id}: deadline budget exhausted "
                        f"before attempt {attempt}",
                    )
                timeout = (
                    self.rpc_timeout_s
                    if budget is None
                    else min(self.rpc_timeout_s, budget)
                )
                if attempt > 0:
                    node.note_retry()
                    self.registry.inc("repro_federation_retries_total")
                try:
                    answers, latency_s = self._one_round(
                        node, exprs_json, timeout,
                        hedge=(attempt == 0 and self.hedge_delay_s is not None),
                        forward_deadline=budget is not None,
                    )
                except QueryError:
                    # The node answered 400: the query is wrong, not the node.
                    # No retry, no failure count (one buyer's typo must not make
                    # a seller "missing" for everyone); the batch fails with the
                    # node's message.  A reply also settles a half-open probe.
                    node.breaker.record_success()
                    raise
                except (
                    OSError, ValueError, KeyError, TypeError,
                    ConstructionError, faults.FailpointError,
                ) as exc:
                    last_exc = exc
                    if node.breaker.record_failure():
                        # Counted at the trip itself, whichever way the call
                        # ends: a later attempt's success closes the breaker
                        # but the trip happened.
                        self.registry.inc(
                            "repro_federation_breaker_trips_total",
                            {"node": str(node.node_id)},
                        )
                    self.registry.inc(
                        "repro_federation_node_attempts_total",
                        {"node": str(node.node_id), "outcome": "error"},
                    )
                    if attempt < self.max_retries:
                        self._backoff_sleep(attempt, deadline, merge_reserve)
                    continue
                node.breaker.record_success()
                node.note_success(latency_s)
                self.registry.inc(
                    "repro_federation_node_attempts_total",
                    {"node": str(node.node_id), "outcome": "ok"},
                )
                self.registry.observe(
                    "repro_federation_node_seconds",
                    latency_s,
                    {"node": str(node.node_id)},
                )
                return answers
            raise NodeRPCError(
                "unreachable",
                f"node {node.node_id} failed after "
                f"{self.max_retries + 1} attempts: {last_exc}",
            )
        finally:
            # A half-open probe leaving with no verdict (budget gone before
            # attempt 0, universe drift) hands the slot back: else the node
            # is never tried again.
            node.breaker.release_probe()

    def _backoff_sleep(
        self,
        attempt: int,
        deadline: Optional[Deadline],
        merge_reserve: float,
    ) -> None:
        """Capped exponential backoff with full jitter, budget-bounded."""
        ceiling = min(
            self.backoff_base_s * (2.0 ** attempt), self.backoff_max_s
        )
        with self._rng_lock:
            delay = ceiling * (0.5 + 0.5 * self._rng.random())
        budget = self._attempt_budget(deadline, merge_reserve)
        if budget is not None:
            # Never sleep the whole remaining budget away: leave at least
            # half of it for the retry itself.
            delay = min(delay, max(0.0, budget * 0.5))
        if delay > 0.0:
            time.sleep(delay)

    def _one_round(
        self,
        node: FederatedNode,
        exprs_json: List[dict],
        timeout: float,
        hedge: bool,
        forward_deadline: bool,
    ) -> Tuple[List[NodeAnswer], float]:
        """One attempt round: a primary request plus at most one hedge.

        Returns the first successful response; raises the last failure
        when every launched request failed or the round timed out.
        """
        results: "queue.Queue[Tuple[str, object]]" = queue.Queue()
        self._launch_attempt(
            results, node, exprs_json, timeout, forward_deadline
        )
        outstanding = 1
        hedged = False
        t_end = time.perf_counter() + timeout
        last_exc: Optional[BaseException] = None
        while outstanding > 0:
            now = time.perf_counter()
            if now >= t_end:
                break
            if hedge and not hedged and self.hedge_delay_s is not None:
                wait = min(self.hedge_delay_s, t_end - now)
            else:
                wait = t_end - now
            try:
                kind, value = results.get(timeout=wait)
            except queue.Empty:
                if hedge and not hedged and time.perf_counter() < t_end:
                    hedged = True
                    outstanding += 1
                    node.note_hedge()
                    self.registry.inc("repro_federation_hedges_total")
                    self._launch_attempt(
                        results, node, exprs_json,
                        max(1e-3, t_end - time.perf_counter()),
                        forward_deadline,
                    )
                continue
            if kind == "ok":
                answers, latency_s = value  # type: ignore[misc]
                return answers, latency_s
            outstanding -= 1
            assert isinstance(value, BaseException)
            last_exc = value
        if last_exc is not None:
            raise last_exc
        raise OSError(
            f"node {node.node_id} RPC timed out after {timeout:.3f}s"
        )

    def _launch_attempt(
        self,
        results: "queue.Queue[Tuple[str, object]]",
        node: FederatedNode,
        exprs_json: List[dict],
        timeout: float,
        forward_deadline: bool,
    ) -> None:
        """Fire one RPC attempt on a dedicated daemon thread.

        Attempts outlive the round that launched them (an abandoned
        straggler finishes into a queue nobody reads); dedicated threads
        keep a stuck attempt from starving the scatter pool.
        """
        payload: dict = {"expressions": exprs_json, "format": "bitset"}
        if forward_deadline:
            # Slightly under the transport timeout so the node degrades
            # itself on deadline (sound must/maybe; see service.search_batch)
            # instead of dying on the wire.
            payload["deadline_ms"] = max(1.0, timeout * 0.9 * 1e3)
        url = node.url + "/search/batch"
        body = json.dumps(payload).encode("utf-8")

        def run() -> None:
            t0 = time.perf_counter()
            try:
                if faults.ARMED is not None:
                    faults.hit("node_rpc")
                status, raw = http_call(url, body, timeout=timeout)
                if status not in (200, 400):
                    raise OSError(f"node {node.node_id} answered HTTP {status}")
                reply = json.loads(raw)
                if status == 400:  # the client's error: see _call_node
                    raise QueryError(str(reply["error"]))
                answers = self._parse_node_results(
                    node, reply, len(exprs_json)
                )
                results.put(("ok", (answers, time.perf_counter() - t0)))
            except (
                OSError, ValueError, KeyError, TypeError, QueryError,
                ConstructionError, NodeRPCError, faults.FailpointError,
            ) as exc:
                results.put(("err", exc))

        threading.Thread(target=run, daemon=True).start()

    def _parse_node_results(
        self, node: FederatedNode, raw: dict, n_expected: int
    ) -> List[NodeAnswer]:
        body = decode(NODE_REPLY, raw, f"node {node.node_id}'s reply")["results"]
        if len(body) != n_expected:
            raise ConstructionError(
                f"node {node.node_id} answered {len(body)} results for "
                f"{n_expected} expressions"
            )
        answers: List[NodeAnswer] = []
        for one in body:
            must = bitmap_from_wire(one["bitset"])
            maybe = bitmap_from_wire(one["maybe_bitset"]) if one["degraded"] else None
            for bitmap in (must, maybe):
                if bitmap is not None and bitmap.nbits != node.n_datasets:
                    # The node's universe grew past its registration — merging
                    # would mis-map datasets.  Treat as failure; re-register
                    # the node to adopt the new slice size.
                    raise NodeRPCError(
                        "universe_drift",
                        f"node {node.node_id} answered over {bitmap.nbits} "
                        f"datasets but registered {node.n_datasets}",
                    )
            answers.append((must, maybe))
        return answers

    # -- degradation + merge -------------------------------------------
    def _screen_node(
        self, node: FederatedNode, expressions: List[Expression]
    ) -> List[NodeAnswer]:
        """Three-valued (must, maybe) per expression from the node's
        registered synopses; ``(∅, full)`` when none were registered."""
        node.note_degraded()
        self.registry.inc("repro_federation_degraded_nodes_total")
        n = node.n_datasets
        if node.synopses is None:
            empty = DatasetBitmap.zeros(n)
            full = DatasetBitmap.full(n)
            return [(empty, full) for _ in expressions]
        answers: List[NodeAnswer] = []
        for expression in expressions:
            plan = plan_query(expression)
            bounds = {
                key: screen_synopses(
                    node.synopses,
                    leaf,
                    eps=node.eps,
                    eps_effective=node.eps_effective,
                    n_datasets=n,
                )
                for key, leaf in plan.leaves.items()
            }
            must, possible = combine_bounds(plan.expression, bounds)
            answers.append((must, possible.andnot(must)))
        return answers

    def _merge(
        self,
        nodes: List[FederatedNode],
        offsets: List[int],
        total: int,
        expressions: List[Expression],
        outcomes: List[Union[List[NodeAnswer], NodeRPCError]],
    ) -> FederatedBatch:
        node_meta: List[dict] = []
        resolved: List[List[NodeAnswer]] = []
        exact_node: List[bool] = []
        for node, outcome in zip(nodes, outcomes):
            if isinstance(outcome, NodeRPCError):
                resolved.append(self._screen_node(node, expressions))
                exact_node.append(False)
                node_meta.append(
                    {
                        "node_id": node.node_id,
                        "url": node.url,
                        "status": outcome.reason,
                        "screened": True,
                    }
                )
            else:
                resolved.append(outcome)
                exact_node.append(True)
                node_meta.append(
                    {
                        "node_id": node.node_id,
                        "url": node.url,
                        "status": "ok",
                        "screened": False,
                    }
                )
        results: List[QueryResult] = []
        coverage_sum = 0.0
        for qi in range(len(expressions)):
            must_total = DatasetBitmap.zeros(total)
            maybe_total = DatasetBitmap.zeros(total)
            degraded = False
            exact_datasets = 0
            reasons: List[str] = []
            for ni, (node, offset, answers, ok) in enumerate(
                zip(nodes, offsets, resolved, exact_node)
            ):
                must, maybe = answers[qi]
                must_total = must_total | must.shift_into(offset, total)
                if not ok:
                    degraded = True
                    reasons.append("node_" + str(node_meta[ni]["status"]))
                    if maybe is not None:
                        maybe_total = maybe_total | maybe.shift_into(
                            offset, total
                        )
                elif maybe is not None and maybe.any():
                    # The node answered but degraded itself under its
                    # forwarded sub-deadline.
                    degraded = True
                    reasons.append("node_self_degraded")
                    maybe_total = maybe_total | maybe.shift_into(
                        offset, total
                    )
                else:
                    exact_datasets += node.n_datasets
            coverage = exact_datasets / total if total else 1.0
            coverage_sum += coverage
            stats: dict = {
                "federated": True,
                "n_nodes": len(nodes),
                "coverage": coverage,
            }
            if degraded:
                stats["degraded"] = True
                stats["degrade_reason"] = ",".join(sorted(set(reasons)))
                results.append(
                    QueryResult(
                        bitmap=must_total,
                        maybe_bitmap=maybe_total.andnot(must_total),
                        stats=stats,
                    )
                )
            else:
                results.append(QueryResult(bitmap=must_total, stats=stats))
        return FederatedBatch(
            results=results,
            nodes=node_meta,
            coverage=coverage_sum / len(expressions),
            n_datasets=total,
        )


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class _FederationRequestHandler(JsonRequestHandler):
    """Coordinator routes over a bound :class:`FederatedCoordinator`."""

    coordinator: FederatedCoordinator  # injected by make_federation_server

    def observe(self, endpoint: str, seconds: float, status: int) -> None:
        self.coordinator.registry.observe(
            "repro_federation_request_seconds", seconds, {"endpoint": endpoint}
        )

    def _healthz(self) -> None:
        coord = self.coordinator
        self._send_json(
            {
                "status": "ok",
                "role": "coordinator",
                "n_nodes": coord.n_nodes,
                "n_datasets": coord.n_datasets,
            }
        )

    def _stats(self) -> None:
        self._send_json(self.coordinator.stats())

    def _metrics(self) -> None:
        self._send_text(self.coordinator.registry.render())

    def _search(self, body: dict) -> None:
        single = self.path == "/search"
        fields = parse_batch_body(body, single)
        batch = self.coordinator.search_batch(
            [expression_from_json(e) for e in fields["expressions"]],
            deadline_ms=fields["deadline_ms"],
        )
        fmt = fields["format"]
        encoded = [encode_result(r, fmt, batch.n_datasets) for r in batch.results]
        payload = encoded[0] if single else {"results": encoded}
        payload["federation"] = batch.meta()
        self._send_json(payload)

    def _add_node(self, body: dict) -> None:
        fields = decode(ADD_NODE, body, "")
        self._send_json(self.coordinator.add_node(fields.pop("url"), **fields))

    def _remove_node(self, body: dict) -> None:
        node_id = decode(REMOVE_NODE, body, "")["node_id"]
        self._send_json(self.coordinator.remove_node(node_id))

    routes = {
        ("GET", "/healthz"): _healthz,
        ("GET", "/stats"): _stats,
        ("GET", "/metrics"): _metrics,
        ("POST", "/search"): _search,
        ("POST", "/search/batch"): _search,
        ("POST", "/nodes"): _add_node,
        ("DELETE", "/nodes"): _remove_node,
    }


def make_federation_server(
    coordinator: FederatedCoordinator,
    host: str = "127.0.0.1",
    port: int = 8770,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-run coordinator HTTP server (port 0 = ephemeral)."""
    handler = type(
        "BoundFederationRequestHandler",
        (_FederationRequestHandler,),
        {"coordinator": coordinator, "quiet": quiet},
    )
    return ThreadingHTTPServer((host, port), handler)


def serve_federation(
    coordinator: FederatedCoordinator,
    host: str = "127.0.0.1",
    port: int = 8770,
    quiet: bool = False,
) -> None:
    """Serve forever (Ctrl-C to stop); the ``repro federate`` entry point."""
    httpd = make_federation_server(coordinator, host, port, quiet=quiet)
    _serve_forever(
        httpd,
        "repro federation coordinator listening on {url} "
        f"({coordinator.n_nodes} node(s), {coordinator.n_datasets} datasets)",
        coordinator.close,
    )


def federated_node_service(
    arrays: Sequence[Any],
    *,
    offset: int,
    total: int,
    bounding_box: "Rectangle",
    seed: int = 0,
    **service_kwargs: Any,
) -> "QueryService":
    """Build one node's :class:`QueryService` in the *global* accuracy frame.

    A node that constructs its service naively over its local slice gets a
    local accuracy contract: ``eps_effective`` resolved against its own
    dataset count, coresets seeded by *local* dataset index, and a Ptile
    bounding box derived from its own repository.  Each is sound in
    isolation, but the union of such nodes is **not** bit-identical to a
    single service over the whole lake — boundary datasets can flip.

    This helper pins all three to the federation's global frame, the same
    three mechanisms :class:`~repro.service.sharding.ShardedBatchExecutor`
    uses to make shard answers partition-independent in-process:

    - ``capacity=total`` resolves ``phi_eff`` / ``sample_size`` /
      ``eps_effective`` against the global universe size;
    - every synopsis is a
      :class:`~repro.service.sharding.SeededSampleSynopsis` seeded by the
      dataset's **global** index ``offset + j`` (the executor keeps the
      index a seeded synopsis arrives with, through rebuilds and snapshots
      alike);
    - ``bounding_box`` is the global lake's box, shared by every node.

    With these pinned, the scatter-gather merge over healthy nodes equals
    a single-node service over the same total N exactly — the acceptance
    bar the federation test and bench suites assert.

    Parameters other than the frame (``n_shards``, ``eps``,
    ``sample_size``, ``engine``, ...) pass through to
    :class:`QueryService` and must be identical across nodes.
    """
    from repro.core.framework import Repository
    from repro.service.service import QueryService
    from repro.service.sharding import SeededSampleSynopsis
    from repro.synopsis.exact import ExactSynopsis

    if offset < 0 or offset + len(arrays) > total:
        raise QueryError(
            f"node slice [{offset}, {offset + len(arrays)}) does not fit "
            f"the declared universe of {total} datasets"
        )
    synopses = [
        SeededSampleSynopsis(ExactSynopsis(a), seed, offset + j)
        for j, a in enumerate(arrays)
    ]
    return QueryService(
        repository=Repository.from_arrays(arrays),
        synopses=synopses,
        bounding_box=bounding_box,
        capacity=total,
        seed=seed,
        **service_kwargs,
    )


__all__ = [
    "CircuitBreaker",
    "FederatedBatch",
    "FederatedCoordinator",
    "FederatedNode",
    "NodeRPCError",
    "federated_node_service",
    "make_federation_server",
    "serve_federation",
]
