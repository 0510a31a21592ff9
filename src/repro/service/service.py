"""The ``QueryService`` facade: planner + caches + sharded executor.

Serving pipeline for a batch (``search`` is the one-element special case):

1. **plan** — canonicalize every expression and collect the batch-wide set
   of unique predicate leaves (duplicate leaves inside one expression and
   across the batch are planned once); repeated query *shapes* skip
   canonicalization entirely through the compiled-plan cache
   (:class:`~repro.service.planner.PlanCache`);
2. **cache** — look every unique leaf up in the LRU leaf-result cache; an
   entry whose dataset-count watermark trails the current repository is
   *upgraded* (delta-shard evaluation unioned in) rather than discarded;
3. **execute** — evaluate the misses on the sharded executor (union of
   per-shard answers) and write them back to the cache;
4. **assemble** — evaluate each canonical expression over the in-memory
   leaf results and record the query's stats.

Answers are packed :class:`~repro.core.bitset.DatasetBitmap` bitsets end
to end: cached leaf answers are ``uint64`` word arrays, And/Or combine
word-wise, tombstones apply as one ANDNOT mask, and results hand the
bitmap to the API boundary, which materializes index lists only when a
consumer actually reads them (the HTTP bitset wire format never does).

With ``record_times=True`` the per-leaf completion times flow through the
planner's :func:`~repro.service.planner.emit_schedule`, so
``QueryResult.emit_times`` reflects when each index's membership actually
became determined — not one blanket end-of-query stamp.

Live mutation (:meth:`QueryService.add_datasets` /
:meth:`QueryService.remove_datasets`) keeps the cache warm: additions land
in the executor's append-only delta shard and removals become a read-time
mask, so a single ingest event no longer costs a full rebuild plus a cold
cache.  The full rebuild path remains for rebalancing (delta shard
outgrowing the mean base shard) and for data outside the frozen bounding
box.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.bitset import DatasetBitmap
from repro.core.framework import Dataset, Repository
from repro.core.predicates import Expression
from repro.core.results import QueryResult
from repro.errors import ConstructionError, QueryError
from repro.geometry.rectangle import Rectangle
from repro.service.cache import LeafResultCache
from repro.service.deadline import Deadline
from repro.service.degrade import SynopsisScreen
from repro.service.observability import ServiceObservability
from repro.service.planner import (
    PLAN_CACHE_CAPACITY,
    PlanCache,
    combine_bounds,
    emit_schedule,
    evaluate_with_leaf_results,
    plan_batch,
)
from repro.service.sharding import ShardedBatchExecutor
from repro.synopsis.base import Synopsis
from repro.synopsis.exact import ExactSynopsis
from repro.trace import TRACER, record_span, span

#: Accepted dataset collections for :meth:`QueryService.add_datasets`.
DatasetsLike = Union[Repository, Sequence[Dataset], Sequence[np.ndarray]]


class QueryService:
    """High-throughput facade over the dataset search engine.

    Parameters mirror :class:`~repro.core.engine.DatasetSearchEngine` plus
    the serving knobs; see
    :class:`~repro.service.sharding.ShardedBatchExecutor` for the accuracy
    parameters (they are resolved once against the global dataset count and
    forced onto every shard, so answers match a single engine exactly).
    Warm-path knob: ``cache_capacity`` bounds the leaf-result LRU (the
    compiled-plan LRU holds
    :data:`~repro.service.planner.PLAN_CACHE_CAPACITY` plans).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.framework import Repository
    >>> from repro.core.measures import PercentileMeasure
    >>> from repro.core.predicates import pred
    >>> from repro.geometry.rectangle import Rectangle
    >>> rng = np.random.default_rng(0)
    >>> repo = Repository.from_arrays([rng.uniform(0, 1, (300, 1)) for _ in range(8)])
    >>> svc = QueryService(repository=repo, n_shards=2, eps=0.2, sample_size=16,
    ...                    capacity=16)   # the contract covers growth to 16
    >>> expr = pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.2)
    >>> svc.search(expr).indexes == sorted(svc.search(expr).indexes)
    True
    >>> svc.stats()["cache"]["hits"] >= 1   # second search hit the cache
    True

    Live mutation keeps the leaf cache warm (additions within ``capacity``
    are upgraded in from the delta shard, removals are masked on read):

    >>> out = svc.add_datasets([rng.uniform(0, 1, (300, 1)) for _ in range(2)])
    >>> out["indexes"], out["rebuilt"]
    ([8, 9], False)
    >>> svc.search(expr).indexes == sorted(svc.search(expr).indexes)
    True
    >>> svc.remove_datasets([0])["n_live"]
    9
    >>> 0 in svc.search(expr).indexes
    False
    """

    def __init__(
        self,
        repository: Optional[Repository] = None,
        synopses: Optional[Sequence[Synopsis]] = None,
        n_shards: int = 1,
        cache_capacity: int = 4096,
        eps: float = 0.1,
        phi: Optional[float] = None,
        delta: Optional[float] = None,
        sample_size: Optional[int] = None,
        bounding_box: Optional[Rectangle] = None,
        seed: int = 0,
        engine: str = "kd",
        capacity: Optional[int] = None,
        tracing: bool = False,
        slow_query_threshold_ms: Optional[float] = None,
    ) -> None:
        # Tracing policy, slow log and the registry, the one record of counts.
        observability = ServiceObservability(tracing, slow_query_threshold_ms)
        # The executor keeps what a rebuild needs (its _rebuild_kwargs).
        self.executor = ShardedBatchExecutor(  # guarded-by: _mutation_lock [writes]
            synopses=synopses, repository=repository, n_shards=n_shards,
            eps=eps, phi=phi, delta=delta, sample_size=sample_size,
            bounding_box=bounding_box, seed=seed, engine=engine, capacity=capacity,
            registry=observability.registry,
        )
        self._assemble(observability, cache_capacity)

    def _assemble(
        self, observability: ServiceObservability, cache_capacity: int,
        cache_entries: Sequence[tuple] = (), cache_generation: int = 0,
    ) -> None:
        """Build the caches and lock around ``self.executor`` and ``observability``
        (a restore into a running process passes the process's); point it here
        last, once this service is whole, as ``/stats`` reads what it points at."""
        registry = observability.registry
        self.cache = LeafResultCache(capacity=cache_capacity, registry=registry)
        self.cache.restore_entries(list(cache_entries), generation=cache_generation)
        # Compiled plans are pure expression algebra — they reference no
        # index structures and no dataset counts — so the plan cache
        # survives live mutation AND full rebuilds unflushed.
        self.plans = PlanCache(capacity=PLAN_CACHE_CAPACITY, registry=registry)
        # Serializes add/remove/rebuild against each other.  Queries do not
        # take it: they capture the executor reference once per batch and
        # the cache write-back is generation-guarded against rebuilds.
        self._mutation_lock = threading.Lock()
        self.observability = observability
        observability.service = self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_datasets(self) -> int:
        return self.executor.n_datasets

    @property
    def n_shards(self) -> int:
        return len(self.executor.units)

    @property
    def repository(self) -> Optional[Repository]:
        return self.executor.repository

    @property
    def n_live(self) -> int:
        return self.executor.n_live

    @property
    def engine_kind(self) -> str:
        return self.executor.engine_kind

    def stats(self) -> dict:
        """JSON-ready service metrics: serving totals, caches, shard layout.

        Delegates to :meth:`ServiceObservability.snapshot` — the same
        collection pass that backs the Prometheus ``/metrics`` rendering,
        so the two views can never disagree.  ``cache.resident_bytes`` is
        the estimated heap footprint of the cached leaf answers — the
        number to watch for warm-path memory regressions — and
        ``executor.index_bytes`` the array bytes of the built shard
        backends, the constant of the index's space bound as it is paid.
        """
        return self.observability.snapshot()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def search(
        self,
        expression: Expression,
        record_times: bool = False,
        trace: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
        degrade: bool = False,
    ) -> QueryResult:
        """Answer one expression through the full serving pipeline."""
        return self.search_batch(
            [expression],
            record_times=record_times,
            trace=trace,
            deadline_ms=deadline_ms,
            degrade=degrade,
        )[0]

    def search_batch(
        self,
        expressions: Sequence[Expression],
        record_times: bool = False,
        trace: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
        degrade: bool = False,
    ) -> list[QueryResult]:
        """Answer a batch of expressions with cross-query leaf sharing.

        ``trace=True`` runs the batch under a span tracer and attaches
        the serialized span tree (one per batch; stage times relative to
        the batch start — see :mod:`repro.service.observability`) to each
        result's ``trace``; ``trace=None`` defers to the service-level
        ``tracing`` default.  Tracing also feeds the per-stage histograms
        on ``/metrics``.  When the slow-query log is enabled, queries at
        or above the threshold are recorded (with their trace, if any).

        ``deadline_ms`` caps the batch's wall-clock budget (monotonic
        clock, shared by the whole batch): the executor polls it before
        and inside each unit, and each of its calls (the cache upgrades,
        then the misses) answers every leaf or none; the overshoot is at
        most one unit's batched call.  When it fires, the exact leaf
        answers already in hand (cache hits, a completed upgrade call) are
        kept while each remaining leaf falls back to the trivial bound
        ``(∅, live datasets)`` — every affected query comes back
        *degraded* (``stats["degraded"]``, a must bitmap plus
        ``maybe_bitmap``; see :mod:`repro.service.degrade`) instead of
        failing, with its exact leaves still tightening the bound.  ``degrade=True`` skips executor evaluation outright and
        bounds every uncached leaf that way (cached leaves stay exact).
        Degraded bounds are never written to the leaf cache, and a
        degraded query's ``record_times`` request is ignored (there is no
        per-leaf emission to schedule).
        """
        expressions = list(expressions)
        start = time.perf_counter()
        deadline = Deadline.from_ms(deadline_ms) if deadline_ms is not None else None
        obs = self.observability
        token = TRACER.set(obs.tracer_for(trace))
        try:
            with span("search_batch", n_queries=len(expressions)) as root:
                if root is not None:
                    # Share the clock origin with the batch's own stamps, so
                    # emit times and span times of one request line up.
                    root.t0 = start
                results = self._search_batch_impl(
                    expressions, record_times, start,
                    deadline=deadline, degrade=degrade,
                )
        finally:
            TRACER.reset(token)
        trace_dict = None
        if root is not None:
            trace_dict = root.to_dict()
            for result in results:
                result.trace = trace_dict
        if obs.slow_log.enabled:
            for expression, result in zip(expressions, results):
                obs.record_slow(
                    result.stats.get("latency_s", 0.0),
                    repr(expression),
                    result.stats,
                    trace=trace_dict,
                )
        return results

    def _search_batch_impl(
        self,
        expressions: Sequence[Expression],
        record_times: bool,
        start: float,
        deadline: Optional[Deadline] = None,
        degrade: bool = False,
    ) -> list[QueryResult]:
        """The four-stage pipeline (see the module docstring).

        Its stages open spans of the batch's tracer, set by
        :meth:`search_batch` (see :mod:`repro.trace`): on the untraced hot
        path each costs one context read.  ``deadline`` is None there too.
        """
        # Capture order matters against a concurrent rebuild (which
        # publishes the new executor, then flushes once): reading the
        # generation BEFORE the executor guarantees that a batch holding the
        # flushed generation also holds the new executor, so no answer
        # computed on the old one can ever be stored as current.
        generation = self.cache.generation  # for flush-safe write-back
        executor = self.executor  # one executor per batch, even mid-rebuild
        watermark = executor.n_datasets  # dataset count answers will cover
        # Tombstones, masked on read: the persistent ANDNOT mask (None when
        # nothing is tombstoned, the common case — hits then skip masking
        # entirely).
        removed_bits = executor.removed_bits()
        batch = plan_batch(expressions, cache=self.plans)
        lookup_start = time.perf_counter()

        leaf_results: dict = {}
        leaf_times: dict = {}
        hit_keys: set = set()
        # (key, leaf, stale cache entry | None) triples still to evaluate.
        upgrades: list = []
        misses: list = []
        for key, leaf in batch.unique_leaves.items():
            entry = self.cache.get_entry(key)
            if entry is None:
                misses.append((key, leaf, None))
            elif entry.watermark >= watermark:
                # Entries are stored masked-at-write; masks only grow
                # between rebuilds, so re-masking on read stays exact.
                value = entry.indexes
                if removed_bits is not None:
                    value = value.andnot(removed_bits)
                leaf_results[key] = value
                hit_keys.add(key)
            else:
                upgrades.append((key, leaf, entry))
        lookup_done = time.perf_counter()
        record_span(
            "cache_lookup",
            lookup_start,
            lookup_done,
            hits=len(hit_keys),
            misses=len(misses),
            upgrades=len(upgrades),
        )
        for key in hit_keys:
            leaf_times[key] = lookup_done

        # Degradation state: when set, leaves without exact answers are
        # *pending* — they will be answered with the trivial (∅, live)
        # bound instead of the executor (see repro.service.degrade).
        degrade_reason: Optional[str] = None
        if degrade:
            degrade_reason = "requested"
        elif deadline is not None and deadline.expired():
            degrade_reason = "deadline"
        pending: dict = {}

        def evaluate(span_name: str, todo: list, run: Callable) -> set:
            """Evaluate ``todo`` exactly with ``run`` and write the answers
            back.  The executor answers every leaf or none, so this returns
            the keys of all of ``todo``, or none and ``todo`` goes to
            ``pending``."""
            nonlocal degrade_reason
            if not todo:
                return set()
            if degrade_reason is None:
                with span(span_name, n_leaves=len(todo)):
                    answers = run(
                        [leaf for _key, leaf, _entry in todo], deadline=deadline
                    )
                    done = time.perf_counter()  # every leaf of a call at once
                    for (key, _leaf, entry), answer in zip(todo, answers):
                        if entry is not None:
                            answer = entry.indexes | answer
                            if removed_bits is not None:
                                answer = answer.andnot(removed_bits)
                        # else a miss: the executor masks tombstones
                        # before returning.
                        leaf_results[key] = answer
                        leaf_times[key] = done
                        self.cache.put(key, answer, generation=generation,
                                       watermark=watermark)
                if answers:
                    return {key for key, _leaf, _entry in todo}
                # A tripped deadline: every leaf of this call degrades to
                # the trivial bound (an earlier call's answers are kept).
                degrade_reason = "deadline"
            for key, leaf, _entry in todo:
                pending[key] = leaf
            return set()

        # Warm-cache ingestion: every dataset above the entry watermark
        # lives in the delta shard (rebuilds flush the cache), so the
        # cached answer plus a delta-only evaluation is the full answer
        # (a word-wise OR; the stale bitmap zero-pads to the new count).
        upgrade_keys = evaluate("upgrade", upgrades, executor.eval_delta_leaves)
        if upgrade_keys:
            self.cache.note_upgrades(len(upgrade_keys))
        miss_keys = evaluate("execute", misses, executor.eval_leaves)
        if degrade_reason == "deadline":
            self.observability.registry.inc("repro_deadline_expirations_total")

        # The batch's live datasets, from its own watermark and tombstone
        # mask: all a leaf without an answer yet may still report.
        if pending or record_times:
            universe = DatasetBitmap.full(watermark)
            if removed_bits is not None:
                universe = universe.andnot(removed_bits)
        # Bound every pending leaf once for the whole batch.  Bounds are
        # NEVER cached: they are not the engine's answer, and a later exact
        # evaluation must not be shadowed by them.
        screened_bounds: dict = {}
        if pending:
            screen = SynopsisScreen(universe)
            screened_bounds = {
                key: screen.screen_leaf(leaf) for key, leaf in pending.items()
            }
        shared_done = time.perf_counter()
        shared_s = shared_done - start  # plan + cache + leaf evaluation

        # A leaf evaluated once for the batch is *charged* to the first
        # query that uses it; other queries sharing it report it under
        # ``shared_leaves`` instead of inflating the miss counters.
        charged: set = set()
        if record_times:
            completion_order = sorted(leaf_times, key=lambda k: leaf_times[k])
        results: list[QueryResult] = []
        for qi, plan in enumerate(batch.plans):
            assembly_start = time.perf_counter()
            plan_pending = (
                [k for k in plan.leaves if k in screened_bounds]
                if screened_bounds
                else []
            )
            if plan_pending:
                # Degraded assembly: exact leaves contribute (v, v) bounds,
                # pending leaves their (∅, live) pair; And/Or
                # monotonicity lifts them to query-level bounds.
                bounds = {
                    key: (
                        screened_bounds[key]
                        if key in screened_bounds
                        else (leaf_results[key], leaf_results[key])
                    )
                    for key in plan.leaves
                }
                must, possible = combine_bounds(plan.expression, bounds)
                result = QueryResult(
                    bitmap=must, maybe_bitmap=possible.andnot(must)
                )
                result.stats["degraded"] = True
                result.stats["degrade_reason"] = degrade_reason
                result.stats["bounds"] = {
                    "must": must.count(),
                    "maybe": result.maybe_bitmap.count(),
                    "screened_leaves": len(plan_pending),
                    "exact_leaves": len(plan.leaves) - len(plan_pending),
                }
                self.observability.registry.inc("repro_degraded_queries_total")
            elif record_times:
                result = QueryResult()
                result.start_time = start
                schedule = emit_schedule(
                    plan.expression,
                    [k for k in completion_order if k in plan.leaves],
                    leaf_results,
                    leaf_times,
                    universe,
                )
                result.indexes = [idx for idx, _t in schedule]
                result.emit_times = [t for _idx, t in schedule]
                result.end_time = time.perf_counter()
            else:
                # Hand the bitmap to the API boundary: index lists
                # materialize lazily, and only if a consumer reads them.
                result = QueryResult(
                    bitmap=evaluate_with_leaf_results(plan.expression, leaf_results)
                )
            assembled = time.perf_counter()
            out_size = result.out_size
            record_span(
                "assemble", assembly_start, assembled, query=qi, out_size=out_size
            )
            hits = charged_misses = charged_upgrades = shared = 0
            for key in plan.leaves:
                if key in hit_keys:
                    hits += 1
                elif key in charged:
                    shared += 1
                elif key in miss_keys:
                    charged.add(key)
                    charged_misses += 1
                elif key in upgrade_keys:
                    charged.add(key)
                    charged_upgrades += 1
            result.stats.update(
                {
                    "cache_hits": hits,
                    "cache_misses": charged_misses,
                    "cache_upgrades": charged_upgrades,
                    "shared_leaves": shared,
                    "n_leaves_raw": plan.n_leaves_raw,
                    "n_leaves_unique": plan.n_leaves_unique,
                    "n_shards": len(executor.units),
                    # The planning/cache/eval phase is shared by the whole
                    # batch; each query is charged that phase plus its own
                    # assembly, not the assembly of the queries before it.
                    "latency_s": shared_s + (assembled - assembly_start),
                }
            )
            self.observability.record_query(result.stats, out_size)
            results.append(result)
        self.observability.record_batch(time.perf_counter() - start)
        return results

    def ground_truth(self, expression: Expression) -> set[int]:
        """Exact brute-force answer over *live* datasets (needs the raw
        repository; tombstoned datasets are masked out)."""
        if self.repository is None:
            raise QueryError("ground truth requires the raw repository")
        return expression.ground_truth(self.repository) - self.executor.removed

    # ------------------------------------------------------------------
    # Live mutation
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_datasets(datasets: DatasetsLike) -> list[Dataset]:
        """Coerce a Repository / Dataset list / array list into datasets."""
        if isinstance(datasets, Repository):
            return list(datasets.datasets)
        out = []
        for d in datasets:
            out.append(d if isinstance(d, Dataset) else Dataset(np.asarray(d)))
        return out

    def add_datasets(
        self,
        datasets: Optional[DatasetsLike] = None,
        synopses: Optional[Sequence[Synopsis]] = None,
    ) -> dict:
        """Ingest new datasets live; returns a JSON-ready receipt.

        New datasets go into the executor's append-only delta shard, so
        every cached leaf answer stays valid (it is upgraded from the delta
        shard on its next read) and the warm-path advantage survives the
        ingest.  A full rebuild is triggered instead when the new data falls
        outside the frozen bounding box, or — after the delta append — when
        the delta shard outgrows the mean base shard size (rebalance).

        Pass raw ``datasets`` (a :class:`~repro.core.framework.Repository`,
        a sequence of :class:`~repro.core.framework.Dataset`, or raw point
        arrays), explicit ``synopses``, or both (one synopsis per dataset).
        A repository-backed service requires raw datasets so ground truth
        stays available.

        The receipt maps ``indexes`` to the stable global indexes assigned
        to the new datasets, and ``rebuilt`` tells whether the ingest fell
        back to (or triggered) the full rebuild path — which flushes the
        cache, exactly like :meth:`rebuild`.
        """
        if datasets is None and synopses is None:
            raise QueryError("provide datasets and/or synopses to add")
        with self._mutation_lock:
            new_datasets = (
                self._normalize_datasets(datasets) if datasets is not None else None
            )
            if synopses is not None:
                new_synopses = list(synopses)
                if new_datasets is not None and len(new_synopses) != len(
                    new_datasets
                ):
                    raise ConstructionError(
                        "one synopsis per added dataset required"
                    )
            elif new_datasets is not None:
                new_synopses = [ExactSynopsis(d.points) for d in new_datasets]
            if not new_synopses:
                raise QueryError("nothing to add")
            if self.repository is not None and new_datasets is None:
                raise QueryError(
                    "a repository-backed service needs raw datasets (not "
                    "just synopses) so ground truth stays available"
                )

            executor = self.executor
            start_index = executor.n_datasets
            indexes = list(range(start_index, start_index + len(new_synopses)))
            fits = all(
                executor.fits(s, index=start_index + j)
                for j, s in enumerate(new_synopses)
            )
            if not fits:
                if executor._box_pinned:
                    # The box was pinned explicitly at construction; a
                    # rebuild would keep it and fail at the next Ptile
                    # build, so refuse up front instead.
                    raise ConstructionError(
                        "new datasets fall outside the explicitly pinned "
                        "bounding box; construct a service with a larger box"
                    )
                # Outside the frozen bounding box: grow the data, then take
                # the full rebuild path (the box is re-derived from the
                # grown repository/synopses).
                self._apply_additions(executor, new_datasets)
                all_synopses = list(executor.synopses) + new_synopses
                self._rebuild_locked(
                    repository=executor.repository, synopses=all_synopses
                )
                reason = "bounding_box"
                rebuilt = True
            else:
                executor.add_synopses(new_synopses)
                self._apply_additions(executor, new_datasets)
                rebuilt = executor.needs_rebalance()
                reason = "rebalance" if rebuilt else None
                if rebuilt:
                    # Fold the delta shard into a fresh base partition.
                    self._rebuild_locked()
            return {
                "indexes": indexes,
                "rebuilt": rebuilt,
                "reason": reason,
                "n_datasets": self.executor.n_datasets,
                "n_live": self.executor.n_live,
                "delta_size": self.executor.delta_size,
            }

    @staticmethod
    def _apply_additions(
        executor: ShardedBatchExecutor, new_datasets: Optional[list[Dataset]]
    ) -> None:
        """Extend the executor's raw repository with the new datasets."""
        if new_datasets is not None and executor.repository is not None:
            executor.repository = Repository(
                list(executor.repository.datasets) + new_datasets
            )

    def remove_datasets(self, indexes: Sequence[int]) -> dict:
        """Tombstone datasets by global index; returns a JSON-ready receipt.

        Removal is a mask applied when answers are read — no structure is
        rebuilt and no cached answer is flushed.  Tombstones are compacted
        out of the shard engines at the next :meth:`rebuild`; global indexes
        are stable identities and are never reused.
        """
        with self._mutation_lock:
            removed_now = self.executor.remove_indexes(indexes)
            return {
                "removed": removed_now,
                "n_datasets": self.executor.n_datasets,
                "n_live": self.executor.n_live,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Eagerly build every shard's Ptile structure (delta included)."""
        self.executor.warm()

    def invalidate_cache(self) -> None:
        """Drop all cached leaf answers (synopsis set changed)."""
        self.cache.invalidate()

    def rebuild(self) -> None:
        """Rebuild over the current data and invalidate every cached answer
        (e.g. after mutating synopses in place): cached answers are only
        valid for the synopsis set they were computed on.

        Delta-shard datasets are folded into the new base partition and
        tombstoned datasets are compacted out of the shard engines; their
        indexes stay reserved and the removal mask survives the rebuild.
        """
        with self._mutation_lock:
            self._rebuild_locked()

    def _rebuild_locked(
        self,
        repository: Optional[Repository] = None,
        synopses: Optional[Sequence[Synopsis]] = None,
    ) -> None:
        """``repository`` / ``synopses`` are the grown inputs of the
        bounding-box path of :meth:`add_datasets` — the same identity
        space, so the removal mask is carried either way."""
        if repository is None and synopses is None:
            # Keep BOTH current inputs: the synopses may be user-supplied
            # (histograms, samples, ...) rather than derived exact ones, and
            # dropping them would silently change answer semantics.  The
            # executor keeps already-seeded synopses as they are.
            repository = self.executor.repository
            synopses = self.executor.synopses
        new = ShardedBatchExecutor(
            synopses=synopses,
            repository=repository,
            n_shards=self.n_shards,
            removed=self.executor.removed,
            registry=self.observability.registry,
            **self.executor._rebuild_kwargs(),
        )
        # Publish, then flush once (see _search_batch_impl's capture order):
        # a batch still on the old executor holds an older generation, so
        # its write-back is cleared by this flush or refused after it.
        self.executor = new
        self.invalidate_cache()

    def save(self, path: str | os.PathLike[str], generation: int = 0) -> dict:
        """Persist the whole service (engines, leaf cache, settings) into
        one snapshot container; see :mod:`repro.service.snapshot`.  The
        plan cache is not persisted: a load starts it empty at
        :data:`~repro.service.planner.PLAN_CACHE_CAPACITY`."""
        from repro.service import snapshot

        return snapshot.save(self, path, generation=generation)

    @classmethod
    def load(cls, path: str | os.PathLike[str], mmap: bool = True) -> "QueryService":
        """Reconstruct a service saved by :meth:`save` (mmap-backed by
        default)."""
        from repro.service import snapshot

        return snapshot.load(path, mmap=mmap)

    def close(self) -> None:
        """Nothing to release (shard units run on the calling thread);
        kept as the end of a service's life for the CLI and ``with``."""

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
