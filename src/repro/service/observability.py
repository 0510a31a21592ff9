"""End-to-end query tracing, stage metrics, and Prometheus exposition.

Three complementary layers, all dependency-free:

- **Span tracer** — a :class:`~repro.trace.Tracer` from
  :meth:`ServiceObservability.tracer_for` (None for an untraced batch) is
  the batch's request context: ``search_batch`` sets it into
  :data:`repro.trace.TRACER` for the batch, on the request thread (shard
  units run there too), and every stage opens with ``with span(...):``
  (:mod:`repro.trace`), so no layer takes a tracer parameter and traced
  and untraced runs share one body.  An untraced stage costs one context
  read.  Finished spans feed the registry's per-stage histogram, so every
  traced query updates ``repro_stage_seconds``.
- **Metrics registry** — :class:`MetricsRegistry` holds named counters
  and :class:`Histogram` families and renders the Prometheus text
  exposition format (``GET /metrics``).  Histograms use fixed log-spaced
  bucket bounds with counts in one flat list, so quantiles come straight
  from the cumulative counts.
- **Slow-query log** — :class:`SlowQueryLog` keeps the ``k`` worst
  queries above a latency threshold (a bounded min-heap, so only the
  worst survive), each with its stats and its trace when one was
  recorded.  Dumped by ``GET /stats/slow`` and enabled by
  ``repro serve --slow-log``.

:class:`ServiceObservability` wires the three to a process's current
:class:`~repro.service.service.QueryService`.  Its registry is the node's
one record of counted events: the leaf cache, the plan cache and every
sharded executor count into it where the event happens, and a service
restored into a running process adopts it — so no count falls while the
process lives, across a rebuild or a swap.  ``snapshot()`` is the
``/stats`` payload and reads every count back from the registry;
``/metrics`` is the registry's one renderer (counters render themselves,
and one gauge source reads occupancy off the live components), so the
two endpoints can never disagree about a counter.

Timing schema
-------------
Every wire-visible timestamp in this system is **seconds relative to the
start of its query or batch**, measured on the monotonic span clock
(``time.perf_counter``); absolute monotonic values are process-local and
never leave the server.  Concretely:

- ``/search`` and ``/search/batch`` with ``"record_times": true`` return
  per-result ``emit_times`` (start-relative offsets, one per reported
  index) plus ``duration_s``;
- ``/search`` and ``/search/batch`` with ``"trace": true`` return a
  ``trace`` span tree whose nodes carry ``start_s`` (offset from the
  trace root's start) and ``duration_s``; sibling stage durations at the
  top level sum to ~``duration_s`` of the root;
- slow-query log entries store ``latency_ms`` and, when the query was
  traced, the same relative-clock span tree.

The batch clock and the trace clock share one origin (the
``search_batch`` entry stamp), so emit times and span times of the same
request line up.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.trace import STAGE_METRIC, Tracer

if TYPE_CHECKING:
    from repro.service.service import QueryService

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "ServiceObservability",
    "SlowQueryLog",
    "default_latency_bounds",
]


def default_latency_bounds() -> tuple[float, ...]:
    """Log-spaced (powers of two) latency bucket bounds, 1 µs .. ~67 s.

    27 finite upper bounds; everything above the last lands in the +Inf
    overflow bucket.  Powers of two keep neighbouring buckets within 2x,
    so a bucket-derived quantile is always within 2x of the true sample
    quantile — tight enough to tell a 50 µs warm hit from a 5 ms miss.
    """
    return tuple(1e-6 * 2.0**i for i in range(27))


class Histogram:
    """A fixed-bucket latency histogram with flat-array counts.

    Parameters
    ----------
    bounds:
        Strictly increasing finite bucket *upper* bounds.  Observations
        land in the first bucket whose bound is >= the value; larger
        values land in the implicit +Inf overflow bucket.  Defaults to
        :func:`default_latency_bounds`.

    Counts live in one flat list of ``len(bounds) + 1`` plain ints;
    ``observe`` is a bisect plus one increment under a lock, keeping
    per-observation cost off the numpy scalar-indexing path.

    Examples
    --------
    >>> h = Histogram(bounds=(0.001, 0.01, 0.1))
    >>> for v in (0.0005, 0.002, 0.02, 5.0):
    ...     h.observe(v)
    >>> h.count, h.snapshot()["counts"]
    (4, [1, 1, 1, 1])
    >>> h.quantile(50.0) <= 0.01
    True
    """

    __slots__ = ("bounds", "_counts", "count", "sum", "_lock")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        if bounds is None:
            bounds = default_latency_bounds()
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bounds must be non-empty and strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # guarded-by: _lock
        self.count = 0  # guarded-by: _lock
        self.sum = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:  # lint: hot-path
        """Record one observation (thread-safe)."""
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.sum += value

    def quantile_bounds(self, q: float) -> tuple[float, float]:
        """The ``(lo, hi]`` bucket interval containing the q-th percentile.

        Nearest-rank over the cumulative counts: the true q-th percentile
        of the observed sample lies in the returned half-open interval
        (``hi`` is ``inf`` when the rank falls in the overflow bucket,
        ``lo`` is 0 for the first bucket).  NaN bounds when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        with self._lock:
            count = self.count
            cum = np.cumsum(self._counts)
        if count == 0:
            return (float("nan"), float("nan"))
        rank = max(1, int(np.ceil(q / 100.0 * count)))
        idx = int(np.searchsorted(cum, rank))
        lo = 0.0 if idx == 0 else self.bounds[idx - 1]
        hi = self.bounds[idx] if idx < len(self.bounds) else float("inf")
        return (lo, hi)

    def quantile(self, q: float) -> float:
        """A point estimate of the q-th percentile (upper bucket bound).

        Returning the containing bucket's upper bound makes the estimate
        conservative (never below the true sample quantile) and at most
        one bucket width above it — with the default power-of-two bounds,
        within 2x.  The overflow bucket reports its lower bound instead
        (there is no finite upper), and NaN when empty.
        """
        lo, hi = self.quantile_bounds(q)
        if np.isnan(lo):
            return float("nan")
        return hi if np.isfinite(hi) else lo

    def snapshot(self) -> dict:
        """JSON-ready counts plus bucket-derived p50/p95/p99 estimates."""
        with self._lock:
            counts = list(self._counts)
            count = self.count
            total = self.sum
        out = {
            "count": count,
            "sum_s": total,
            "bounds_s": list(self.bounds),
            "counts": counts,
        }
        for q in (50.0, 95.0, 99.0):
            v = self.quantile(q)
            out[f"p{q:g}_s"] = None if np.isnan(v) else v
        return out


def _fmt_value(v: float) -> str:
    """Prometheus sample value formatting (integers without the .0)."""
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _escape_label(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, _escape_label(v)) for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Named counters and histogram families with Prometheus rendering.

    Three metric kinds, matching what the service needs:

    - ``counter(name)`` / ``inc(name, labels, by)`` — monotone totals
      (rendered with the ``_total`` suffix convention already in the
      metric name);
    - ``histogram(name, labels)`` — a :class:`Histogram` child per label
      set, created lazily on first use (``repro_stage_seconds`` gains a
      child per stage as stages first run);
    - ``gauge_source(fn)`` — a callable returning ``(name, labels,
      value)`` triples evaluated at render time, so gauges always
      reflect the live service (cache occupancy, shard sizes, ...).

    ``render()`` emits the text exposition format: ``# HELP``/``# TYPE``
    headers, cumulative ``_bucket`` counts with ``le`` labels, ``_sum``
    and ``_count`` series per histogram child.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (type, help)
        self._help: dict[str, tuple[str, str]] = {}  # guarded-by: _lock
        self._counters: dict[tuple[str, tuple], float] = {}  # guarded-by: _lock
        self._histograms: dict[tuple[str, tuple], Histogram] = {}  # guarded-by: _lock
        self._hist_bounds: dict[str, tuple[float, ...]] = {}  # guarded-by: _lock
        self._gauge_sources: list[Callable[[], Iterable[tuple]]] = []  # guarded-by: _lock

    # -- declaration ---------------------------------------------------
    def describe(self, name: str, kind: str, help_text: str) -> None:
        """Register a metric family's TYPE and HELP line."""
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        with self._lock:
            self._help[name] = (kind, help_text)

    def declare_histogram(
        self,
        name: str,
        help_text: str,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Describe a histogram family and pin its bucket bounds."""
        self.describe(name, "histogram", help_text)
        with self._lock:
            self._hist_bounds[name] = (
                tuple(bounds) if bounds is not None else default_latency_bounds()
            )

    def gauge_source(self, fn: Callable[[], Iterable[tuple]]) -> None:
        """Register a render-time source of ``(name, labels, value)``."""
        with self._lock:
            self._gauge_sources.append(fn)

    # -- recording -----------------------------------------------------
    @staticmethod
    def _label_key(labels: Optional[dict]) -> tuple:
        return tuple(sorted((labels or {}).items()))

    def inc(self, name: str, labels: Optional[dict] = None, by: float = 1.0) -> None:
        key = (name, self._label_key(labels) if labels else ())
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + by

    def counter_value(self, name: str, labels: Optional[dict] = None) -> float:
        key = (name, self._label_key(labels) if labels else ())
        with self._lock:
            return self._counters.get(key, 0.0)

    def histogram(self, name: str, labels: Optional[dict] = None) -> Histogram:
        """The (lazily created) histogram child for one label set."""
        key = (name, self._label_key(labels))
        with self._lock:
            child = self._histograms.get(key)
            if child is None:
                child = Histogram(self._hist_bounds.get(name))
                self._histograms[key] = child
            return child

    def observe(
        self, name: str, value: float, labels: Optional[dict] = None
    ) -> None:
        self.histogram(name, labels).observe(value)

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition of everything registered."""
        with self._lock:
            help_lines = dict(self._help)
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            sources = list(self._gauge_sources)
        gauges: list[tuple[str, dict, float]] = []
        for fn in sources:
            gauges.extend(fn())

        by_family: dict[str, list[str]] = {}

        def family(name: str) -> list[str]:
            if name not in by_family:
                kind, help_text = help_lines.get(name, ("untyped", name))
                by_family[name] = [
                    f"# HELP {name} {help_text}",
                    f"# TYPE {name} {kind}",
                ]
            return by_family[name]

        for (name, label_key), value in sorted(counters.items()):
            family(name).append(
                f"{name}{_fmt_labels(dict(label_key))} {_fmt_value(value)}"
            )
        for name, labels, value in gauges:
            family(name).append(
                f"{name}{_fmt_labels(labels)} {_fmt_value(value)}"
            )
        for (name, label_key), hist in sorted(histograms.items()):
            lines = family(name)
            labels = dict(label_key)
            with hist._lock:
                counts = list(hist._counts)
                count = hist.count
                total = hist.sum
            cum = 0
            for bound, c in zip(hist.bounds, counts):
                cum += c
                lines.append(
                    f"{name}_bucket{_fmt_labels({**labels, 'le': repr(bound)})}"
                    f" {cum}"
                )
            lines.append(
                f"{name}_bucket{_fmt_labels({**labels, 'le': '+Inf'})} {count}"
            )
            lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(total)}")
            lines.append(f"{name}_count{_fmt_labels(labels)} {count}")
        out: list[str] = []
        for name in sorted(by_family):
            out.extend(by_family[name])
        return "\n".join(out) + "\n"


#: How many worst traces a service's slow-query log retains (one trace is
#: a few KB of spans; ``/stats`` reports the figure as ``slow_log_size``).
SLOW_LOG_SIZE = 32


class SlowQueryLog:
    """A bounded log of the ``k`` worst queries above a latency threshold.

    Entries are kept in a min-heap of size ``k`` keyed by latency: once
    full, a new slow query evicts the *fastest* logged one, so the log
    always holds the k worst seen.  ``snapshot()`` returns them
    worst-first.  ``threshold_ms=None`` disables recording entirely.
    :meth:`record` tells whether an entry met the threshold; the count of
    those is the caller's (``repro_slow_queries_total`` on a node).

    Examples
    --------
    >>> log = SlowQueryLog(k=2, threshold_ms=1.0)
    >>> [log.record({"latency_ms": ms}) for ms in (5.0, 0.5, 9.0, 7.0)]
    [True, False, True, True]
    >>> [e["latency_ms"] for e in log.snapshot()]
    [9.0, 7.0]
    """

    def __init__(
        self, k: int = SLOW_LOG_SIZE, threshold_ms: Optional[float] = None
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = int(k)
        self.threshold_ms = None if threshold_ms is None else float(threshold_ms)
        self._heap: list[tuple[float, int, dict]] = []  # guarded-by: _lock
        self._seq = itertools.count()  # tie-break: dicts do not compare
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.threshold_ms is not None

    def record(self, entry: dict) -> bool:
        """Log ``entry`` (must carry ``latency_ms``) if slow enough; True
        when it met the threshold, whether or not it outranks the k
        worst already held."""
        if self.threshold_ms is None:
            return False
        latency = float(entry["latency_ms"])
        if latency < self.threshold_ms:
            return False
        with self._lock:
            item = (latency, next(self._seq), entry)
            if len(self._heap) < self.k:
                heapq.heappush(self._heap, item)
            elif latency > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)
        return True

    def snapshot(self) -> list[dict]:
        """The logged entries, worst (highest latency) first."""
        with self._lock:
            items = sorted(self._heap, key=lambda it: (-it[0], it[1]))
        return [entry for _lat, _seq, entry in items]


#: Recent per-query latencies kept for the windowed ``/stats`` percentiles:
#: the histogram buckets answer "ever", the window answers "recently".
LATENCY_WINDOW = 4096


def _nearest_rank(sorted_values: list[float], q: float) -> Optional[float]:
    """Nearest-rank q-th percentile of a pre-sorted list (None when empty)."""
    if not sorted_values:
        return None
    return sorted_values[max(1, math.ceil(q / 100.0 * len(sorted_values))) - 1]


class ServiceObservability:
    """Registry + tracing policy + slow log + serving totals of a process.

    A new service builds one; a service restored into a running process
    adopts its predecessor's.  Its :attr:`registry` is the one record of
    the node's counted events, passed to the leaf cache, the plan cache
    and every sharded executor, which ``inc`` it where they count.  This
    object decides per batch whether to trace (:meth:`tracer_for`),
    counts queries and batches into the registry (:meth:`record_query` /
    :meth:`record_batch`, plus a window of recent latencies and the
    ``telemetry`` sums that have no ``/metrics`` family, under one lock),
    and collects every component snapshot in one pass (:meth:`snapshot` —
    the ``/stats`` payload, every count read back from the registry).
    ``/metrics`` is ``registry.render()``: the registry's own counters and
    histograms plus one gauge source over that same :meth:`snapshot`.

    :attr:`service`, the current
    :class:`~repro.service.service.QueryService`, is set by the service
    that builds or adopts this object, once it is whole.

    Parameters
    ----------
    tracing:
        Trace *every* batch (otherwise only batches that opt in with
        ``trace=True``).
    slow_query_threshold_ms:
        Queries at or above this latency enter the slow log (the
        :data:`SLOW_LOG_SIZE` worst are kept); ``None`` disables it.
    """

    #: (prometheus gauge name, help) -> extractor over the stats snapshot.
    _GAUGES: tuple = (
        ("repro_datasets", "Registered datasets (incl. tombstoned).",
         lambda s: s["n_datasets"]),
        ("repro_datasets_live", "Currently served datasets.",
         lambda s: s["n_live"]),
        ("repro_tombstones", "Tombstoned (removed) dataset indexes.",
         lambda s: s["n_removed"]),
        ("repro_delta_shard_depth", "Datasets in the append-only delta shard.",
         lambda s: s["delta_size"]),
        ("repro_index_bytes",
         "Array bytes held by the built shard range-search backends.",
         lambda s: s["executor"]["index_bytes"]),
        ("repro_cache_resident_bytes",
         "Estimated heap bytes held by cached leaf answers.",
         lambda s: s["cache"]["resident_bytes"]),
        ("repro_cache_size", "Cached leaf answers.",
         lambda s: s["cache"]["size"]),
        ("repro_cache_hit_ratio", "Leaf-cache lifetime hit ratio.",
         lambda s: s["cache"]["hit_rate"]),
        ("repro_plan_cache_size", "Compiled plans resident in the plan cache.",
         lambda s: s["plan_cache"]["size"]),
        ("repro_plan_cache_hit_ratio", "Plan-cache lifetime hit ratio.",
         lambda s: s["plan_cache"]["hit_rate"]),
    )

    #: Counter families a node renders from its first scrape (seeded at
    #: 0): (prometheus name, help).  Each is inc'ed where its event
    #: happens; ``/stats`` reads the same values back.
    _SEEDED_COUNTERS: tuple = (
        ("repro_queries_total", "Queries answered."),
        ("repro_batches_total", "search_batch calls answered."),
        ("repro_cache_hits_total", "Leaf-cache hits."),
        ("repro_cache_misses_total", "Leaf-cache misses."),
        ("repro_cache_upgrades_total",
         "Stale cached answers refreshed from the delta shard."),
        ("repro_cache_evictions_total", "Leaf-cache LRU evictions."),
        ("repro_cache_invalidations_total", "Full leaf-cache flushes."),
        ("repro_plan_cache_hits_total", "Plan-cache hits."),
        ("repro_plan_cache_misses_total", "Plan-cache misses."),
        ("repro_executor_leaf_evals_total",
         "Unique leaves evaluated by the sharded executor."),
        ("repro_executor_shard_tasks_total",
         "Per-shard leaf evaluations performed."),
        ("repro_executor_delta_evals_total",
         "Delta-shard-only leaf evaluations (cache upgrades)."),
        ("repro_slow_queries_total",
         "Queries at or above the slow-query threshold."),
    )

    #: ``/stats`` ``telemetry`` name -> the per-query ``result.stats`` key
    #: it sums over the node's lifetime.
    _TOTALS: tuple = (
        ("leaves_raw", "n_leaves_raw"),
        ("leaves_unique", "n_leaves_unique"),
        ("cache_hits", "cache_hits"),
        ("cache_misses", "cache_misses"),
        ("cache_upgrades", "cache_upgrades"),
        ("shared_leaves", "shared_leaves"),
    )

    service: QueryService

    def __init__(
        self,
        tracing: bool = False,
        slow_query_threshold_ms: Optional[float] = None,
    ) -> None:
        self.tracing = bool(tracing)
        self.registry = MetricsRegistry()
        self.slow_log = SlowQueryLog(
            k=SLOW_LOG_SIZE, threshold_ms=slow_query_threshold_ms
        )
        # /stats may be read by one server thread while another records a
        # query: every query and batch is recorded under this lock (the
        # window, the sums below, and the registry's query/batch counters
        # and latency histograms), and /stats copies them out under it, so
        # no ratio is torn — and sorting the deque mid-append would raise.
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)  # guarded-by: _lock
        self._totals = {name: 0 for name, _key in self._TOTALS}  # guarded-by: _lock
        self._out_total = 0  # guarded-by: _lock
        reg = self.registry
        reg.declare_histogram(
            STAGE_METRIC,
            "Time per pipeline stage, from traced queries.",
        )
        reg.declare_histogram(
            "repro_query_seconds",
            "Per-query service latency (shared batch phase + own assembly).",
        )
        reg.declare_histogram(
            "repro_batch_seconds", "search_batch wall-clock time."
        )
        # Held so a recorded query costs no registry lookup; /stats reads
        # its counts, latency sums and bucket quantiles off these objects.
        self._query_seconds = reg.histogram("repro_query_seconds")
        self._batch_seconds = reg.histogram("repro_batch_seconds")
        reg.declare_histogram(
            "repro_request_seconds", "HTTP request handling time per endpoint."
        )
        reg.describe(
            "repro_requests_total", "counter", "HTTP requests per endpoint/status."
        )
        reg.describe(
            "repro_traced_batches_total", "counter", "Batches answered with tracing on."
        )
        for name, help_text, _fn in self._GAUGES:
            reg.describe(name, "gauge", help_text)
        reg.describe("repro_shard_size", "gauge", "Datasets per base shard.")
        reg.describe(
            "repro_slow_query_threshold_ms", "gauge",
            "Slow-query latency threshold (0 = disabled).",
        )
        for name, help_text in self._SEEDED_COUNTERS:
            reg.describe(name, "counter", help_text)
            reg.inc(name, by=0)
        # These render from their first event (the plan cache's LRU, the
        # degrade and deadline paths, the admission gate); describing them
        # here only fixes their HELP/TYPE lines.
        reg.describe(
            "repro_plan_cache_evictions_total", "counter", "Plan-cache LRU evictions."
        )
        reg.describe(
            "repro_degraded_queries_total", "counter",
            "Queries answered with degraded (must / maybe) bounds.",
        )
        reg.describe(
            "repro_deadline_expirations_total", "counter",
            "Batches whose deadline budget expired before evaluation finished.",
        )
        reg.describe(
            "repro_requests_shed_total", "counter",
            "HTTP requests shed by admission control (429).",
        )
        reg.gauge_source(self._gauge_samples)

    # -- tracing policy ------------------------------------------------
    def tracer_for(self, trace: Optional[bool]) -> Optional[Tracer]:
        """A fresh tracer when this batch should be traced, else None.

        ``trace=None`` defers to the service-level ``tracing`` default;
        an explicit True/False overrides it per batch.
        """
        if trace is None:
            trace = self.tracing
        if not trace:
            return None
        self.registry.inc("repro_traced_batches_total")
        return Tracer(registry=self.registry)

    # -- recording helpers (called by the service/server) --------------
    def observe_request(self, endpoint: str, seconds: float, status: int) -> None:
        """One handled HTTP request (called by the server layer)."""
        self.registry.observe(
            "repro_request_seconds", seconds, {"endpoint": endpoint}
        )
        self.registry.inc(
            "repro_requests_total",
            {"endpoint": endpoint, "status": str(status)},
        )

    def record_query(self, stats: dict, out_size: int) -> None:
        """One answered query.  ``stats`` is the dict the service wrote
        into ``QueryResult.stats`` — that dict is the record."""
        latency_s = stats["latency_s"]
        with self._lock:
            self._out_total += out_size
            totals = self._totals
            for name, key in self._TOTALS:
                totals[name] += stats[key]
            self._latencies.append(latency_s)
            self._query_seconds.observe(latency_s)
            self.registry.inc("repro_queries_total")

    def record_batch(self, wall_s: float) -> None:
        """One ``search_batch`` call and its wall-clock time."""
        with self._lock:
            self._batch_seconds.observe(wall_s)
            self.registry.inc("repro_batches_total")

    def record_slow(
        self,
        latency_s: float,
        expression_repr: str,
        stats: dict,
        trace: Optional[dict] = None,
    ) -> None:
        """Offer one finished query to the slow log (no-op when disabled)."""
        entry = {
            "latency_ms": latency_s * 1e3,
            "unix_time": time.time(),
            "expression": expression_repr,
            "stats": dict(stats),
        }
        if trace is not None:
            entry["trace"] = trace
        if self.slow_log.record(entry):
            self.registry.inc("repro_slow_queries_total")

    # -- exposition ----------------------------------------------------
    def _count(self, name: str) -> int:
        """The lifetime value of one of the node's unlabelled counters."""
        return int(self.registry.counter_value(name))

    def snapshot(self) -> dict:
        """The ``/stats`` payload: every component snapshot in one pass."""
        service = self.service
        executor = service.executor
        count = self._count
        return {
            "engine": executor.engine_kind,
            "n_datasets": executor.n_datasets,
            "n_live": executor.n_live,
            "n_removed": len(executor.removed),
            "n_shards": len(executor.units),
            "shard_sizes": executor.shard_sizes(),
            "delta_size": executor.delta_size,
            "capacity": executor.capacity,
            "executor": {
                "leaf_evals": count("repro_executor_leaf_evals_total"),
                "shard_tasks": count("repro_executor_shard_tasks_total"),
                "delta_evals": count("repro_executor_delta_evals_total"),
                "index_bytes": executor.index_bytes(),
            },
            "cache": service.cache.snapshot(),
            "plan_cache": service.plans.snapshot(),
            "telemetry": self._telemetry(),
            "observability": {
                "tracing": self.tracing,
                "slow_query_threshold_ms": self.slow_log.threshold_ms,
                "slow_log_size": self.slow_log.k,
                "slow_queries": count("repro_slow_queries_total"),
            },
            "resilience": {
                "degraded_queries": self.registry.counter_value(
                    "repro_degraded_queries_total"
                ),
                "deadline_expirations": self.registry.counter_value(
                    "repro_deadline_expirations_total"
                ),
                "requests_shed": self.registry.counter_value(
                    "repro_requests_shed_total"
                ),
            },
        }

    def _telemetry(self) -> dict:
        """The ``telemetry`` block of ``/stats``: per-query serving totals.

        Undefined values (no queries yet) are ``None``, not NaN —
        ``json.dumps`` would emit the non-standard ``NaN`` literal that
        strict JSON parsers reject.

        The counts are the registry's counters and the latency sums the
        latency histograms' own.  All of it is copied out under the lock
        every query and batch is recorded under: ``/stats`` is served by
        one ``ThreadingHTTPServer`` thread while others record queries,
        and values read apart could tear (``n_queries`` from one batch
        with the latency total of the next, a wrong mean or qps).
        """
        with self._lock:
            recent = sorted(self._latencies)
            totals = dict(self._totals)
            out_total = self._out_total
            n_queries = self._count("repro_queries_total")
            n_batches = self._count("repro_batches_total")
            latency_total_s = self._query_seconds.sum
            batch_wall_total_s = self._batch_seconds.sum
        buckets = self._query_seconds.snapshot()
        return {
            "n_queries": n_queries,
            "n_batches": n_batches,
            # Lifetime queries per second of batch wall-clock time.
            "throughput_qps": (
                n_queries / batch_wall_total_s if batch_wall_total_s > 0.0 else 0.0
            ),
            "latency_mean_s": latency_total_s / n_queries if n_queries else None,
            "latency_p50_s": _nearest_rank(recent, 50.0),
            "latency_p95_s": _nearest_rank(recent, 95.0),
            "latency_max_s": recent[-1] if recent else None,
            # Lifetime bucket-derived quantiles (upper bucket bound, so
            # conservative within one power-of-two bucket) — unlike the
            # windowed percentiles above, these never forget.
            "latency_bucket_p50_s": buckets["p50_s"],
            "latency_bucket_p95_s": buckets["p95_s"],
            "latency_bucket_p99_s": buckets["p99_s"],
            **totals,
            "mean_out_size": out_total / n_queries if n_queries else None,
        }

    def _gauge_samples(self) -> list[tuple[str, dict, float]]:
        """The registry's gauge source: component gauges read through the
        same :meth:`snapshot` that ``/stats`` serves."""
        stats = self.snapshot()
        out: list[tuple[str, dict, float]] = []
        for name, _help, fn in self._GAUGES:
            out.append((name, {}, float(fn(stats))))
        for shard, size in enumerate(stats["shard_sizes"]):
            out.append(("repro_shard_size", {"shard": shard}, float(size)))
        out.append((
            "repro_slow_query_threshold_ms", {},
            float(self.slow_log.threshold_ms or 0.0),
        ))
        return out

    def render_prometheus(self) -> str:
        """The ``/metrics`` body (text exposition format)."""
        return self.registry.render()
