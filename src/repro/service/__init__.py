"""Query service layer: planner, leaf-result cache, sharded batch executor.

The core engine (:class:`~repro.core.engine.DatasetSearchEngine`) answers one
expression at a time and re-evaluates every predicate leaf it meets, even
when the same leaf appears several times in one expression or across a
batch.  This package turns the engine into a serving subsystem:

- :mod:`~repro.service.planner` canonicalizes expressions (flatten nested
  And/Or, sort and deduplicate children) and extracts stable hashable leaf
  keys, so identical sub-predicates are evaluated once per batch and are
  cacheable across batches; a compiled-plan LRU
  (:class:`~repro.service.planner.PlanCache`) lets repeated query shapes
  skip canonicalization entirely;
- :mod:`~repro.service.cache` is an LRU cache of per-leaf answers — packed
  :class:`~repro.core.bitset.DatasetBitmap` bitsets on the warm path —
  with resident-bytes accounting and explicit invalidation;
- :mod:`~repro.service.sharding` partitions the repository into ``n_shards``
  sub-engines and evaluates a leaf batch on each in turn, on the calling
  thread — the union of shard answers preserves the per-leaf guarantees
  because every dataset lives in exactly one shard — and supports live
  mutation: new datasets enter an append-only delta shard, removals become
  a read-time index mask, and cached leaf answers are upgraded from the
  delta shard instead of flushed;
- :mod:`~repro.service.service` wires the three into the
  :class:`~repro.service.service.QueryService` facade;
- :mod:`~repro.service.observability` adds the tracing policy (the span
  tracer itself is :mod:`repro.trace`, a batch's request context), the
  fixed-bucket latency histograms and metrics registry (Prometheus text
  exposition), and the slow-query log — near-zero-cost when disabled.
  The registry is the node's one record of counted events: the caches
  and every executor the service builds count into it, and ``/stats``
  and ``/metrics`` both read it;
- :mod:`~repro.service.server` exposes the service over a stdlib-HTTP JSON
  endpoint (the ``repro serve`` CLI subcommand) and owns the one HTTP edge
  of the package: the request envelope and error contract every server
  here answers through, the result codec, and the one outbound call;
- :mod:`~repro.service.federation` scatter-gathers batches over multiple
  ``repro serve`` nodes (the ``repro federate`` CLI subcommand) with
  per-node sub-deadlines, retries + hedging, circuit breakers, and
  must / maybe degradation for absent nodes.
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.service.cache": "CacheEntry LeafResultCache",
    "repro.service.observability": (
        "Histogram MetricsRegistry ServiceObservability SlowQueryLog "
        "default_latency_bounds"
    ),
    "repro.trace": "Span Tracer",
    "repro.service.planner": (
        "BatchPlan PlanCache QueryPlan canonicalize combine_bounds "
        "emit_schedule evaluate_with_leaf_results leaf_key plan_batch plan_query"
    ),
    "repro.service.sharding": (
        "SeededSampleSynopsis ShardedBatchExecutor partition_indices"
    ),
    "repro.service.service": "QueryService",
    "repro.service.server": (
        "expression_from_json expression_to_json make_server serve"
    ),
    "repro.service.federation": (
        "CircuitBreaker FederatedCoordinator federated_node_service "
        "make_federation_server serve_federation"
    ),
    "repro.service.snapshot": "snapshot",
    "repro.service.supervisor": "ServiceSupervisor serve_forked",
})
