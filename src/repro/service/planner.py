"""Query planning: canonicalization, leaf deduplication, emit scheduling.

The planner is pure expression algebra — no index structures are touched.
It rewrites expressions into a *canonical form* so that semantically equal
(sub-)expressions become structurally identical:

- nested same-operator nodes are flattened (``And(And(a, b), c)`` becomes
  ``And(a, b, c)`` — associativity);
- children are deduplicated by canonical key (idempotence) and sorted by a
  stable total order (commutativity);
- single-child And/Or nodes collapse to the child.

Canonical form makes :meth:`~repro.core.predicates.Expression.canonical_key`
a semantic identity for the And/Or/leaf fragment, which is what the
leaf-result cache and the batch deduplicator key on.

The planner also owns the *emit schedule*: given per-leaf answers and
per-leaf completion times, :func:`emit_schedule` computes, for every index
in the final answer, the earliest leaf completion at which its membership
was already logically determined (three-valued And/Or semantics).  This is
what ``DatasetSearchEngine.search(record_times=True)`` and the service use
to populate ``QueryResult.emit_times`` meaningfully.

Per-leaf answers are packed :class:`~repro.core.bitset.DatasetBitmap`
bitsets, so the evaluation helpers (:func:`evaluate_with_leaf_results`,
:func:`combine_bounds`, :func:`emit_schedule`) reduce And/Or to word-wise
``&``/``|``.

Canonicalization itself is not free (children are sorted by the repr of
their canonical keys), so repeated query *shapes* can skip it entirely:
:class:`PlanCache` memoizes compiled :class:`QueryPlan` objects keyed by
the submitted expression's structural key, exactly like the leaf-result
cache memoizes leaf answers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
)

from repro.core.bitset import DatasetBitmap
from repro.core.predicates import And, Expression, Or, Predicate
from repro.errors import QueryError
from repro.service.observability import MetricsRegistry
from repro.trace import span

#: A stable hashable identity for a predicate leaf.
LeafKey = Hashable

#: (lower, upper) answer bounds of a leaf or expression; lower ⊆ upper.
LeafBounds = tuple[DatasetBitmap, DatasetBitmap]


def leaf_key(leaf: Predicate) -> LeafKey:
    """The cache/dedup key of a predicate leaf."""
    return leaf.canonical_key()


def _sort_key(expr: Expression) -> str:
    # Canonical keys are nested tuples mixing strings, ints, floats and
    # bools; tuple comparison across those types raises TypeError, so the
    # total order used for sorting children is the repr of the key.
    return repr(expr.canonical_key())


def canonicalize(expression: Expression) -> Expression:
    """Rewrite an expression into canonical form (see module docstring).

    The returned expression shares leaf objects with the input; And/Or nodes
    are rebuilt.  Evaluation semantics are preserved exactly: flattening,
    deduplication and sorting are sound for And/Or by associativity,
    idempotence and commutativity.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.measures import PercentileMeasure
    >>> from repro.core.predicates import pred
    >>> from repro.geometry.rectangle import Rectangle
    >>> a = pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.2)
    >>> b = pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.2)
    >>> c = pred(PercentileMeasure(Rectangle([0.5], [1.0])), 0.4)
    >>> canon = canonicalize((a & c) & b)
    >>> canon.n_predicates          # duplicate of `a` removed
    2
    """
    if isinstance(expression, Predicate):
        return expression
    if isinstance(expression, (And, Or)):
        node_type = type(expression)
        flat: list[Expression] = []
        for child in expression.children:
            child = canonicalize(child)
            if isinstance(child, node_type):
                flat.extend(child.children)
            else:
                flat.append(child)
        unique: dict[tuple, Expression] = {}
        for child in flat:
            unique.setdefault(child.canonical_key(), child)
        children = sorted(unique.values(), key=_sort_key)
        if len(children) == 1:
            return children[0]
        return node_type(children)
    raise QueryError(f"unsupported expression node {type(expression).__name__}")


@dataclass
class QueryPlan:
    """One query's canonical expression plus its deduplicated leaves.

    Attributes
    ----------
    original:
        The expression as submitted.
    expression:
        Its canonical rewrite (evaluate this one).
    leaves:
        Unique leaves by key, in first-appearance order of the canonical
        expression.
    n_leaves_raw:
        Leaf count of the *original* expression (before dedup) — the
        baseline an executor without a planner would evaluate.
    """

    original: Expression
    expression: Expression
    leaves: dict[LeafKey, Predicate]
    n_leaves_raw: int

    @property
    def n_leaves_unique(self) -> int:
        return len(self.leaves)

    @property
    def key(self) -> tuple:
        """Semantic identity of the whole query (canonical structural key)."""
        return self.expression.canonical_key()


@dataclass
class BatchPlan:
    """Plans for a batch of queries plus the batch-wide unique leaf set."""

    plans: list[QueryPlan]
    unique_leaves: dict[LeafKey, Predicate] = field(default_factory=dict)

    @property
    def n_leaves_raw(self) -> int:
        return sum(p.n_leaves_raw for p in self.plans)

    @property
    def n_leaves_unique(self) -> int:
        return len(self.unique_leaves)

    @property
    def dedup_ratio(self) -> float:
        """Fraction of raw leaf evaluations saved by planning (0 = none)."""
        raw = self.n_leaves_raw
        return 0.0 if raw == 0 else 1.0 - self.n_leaves_unique / raw


def plan_query(expression: Expression) -> QueryPlan:
    """Canonicalize one expression and collect its unique leaves."""
    with span("canonicalize"):
        canon = canonicalize(expression)
        leaves: dict[LeafKey, Predicate] = {}
        for leaf in canon.leaves():
            leaves.setdefault(leaf_key(leaf), leaf)
        return QueryPlan(
            original=expression,
            expression=canon,
            leaves=leaves,
            n_leaves_raw=expression.n_predicates,
        )


def plan_batch(
    expressions: Sequence[Expression],
    cache: Optional["PlanCache"] = None,
) -> BatchPlan:
    """Plan every query of a batch and union their unique leaves.

    With a :class:`PlanCache`, repeated query shapes reuse their compiled
    plans instead of re-canonicalizing.  In a traced batch
    (:mod:`repro.trace`) the whole phase runs under a ``plan`` span whose
    metadata reports the batch's plan-cache hit/miss split and its
    leaf-dedup outcome; every compile (plan-cache miss, or no cache) nests
    a ``canonicalize`` child span.
    """
    planner = cache.plan if cache is not None else plan_query
    with span("plan", n_queries=len(expressions)) as plan_span:
        if plan_span is not None and cache is not None:
            before = cache.snapshot()
        batch = BatchPlan(plans=[planner(e) for e in expressions])
        for plan in batch.plans:
            for key, leaf in plan.leaves.items():
                batch.unique_leaves.setdefault(key, leaf)
        if plan_span is not None:
            plan_span.meta.update(
                n_leaves_raw=batch.n_leaves_raw,
                n_leaves_unique=batch.n_leaves_unique,
                dedup_ratio=batch.dedup_ratio,
            )
            if cache is not None:
                after = cache.snapshot()
                plan_span.meta["plan_cache_hits"] = after["hits"] - before["hits"]
                plan_span.meta["plan_cache_misses"] = (
                    after["misses"] - before["misses"]
                )
    return batch


def _combine_and(values: list[DatasetBitmap]) -> DatasetBitmap:
    out = values[0]
    for v in values[1:]:
        out = out & v
    return out


def _combine_or(values: list[DatasetBitmap]) -> DatasetBitmap:
    out = values[0]
    for v in values[1:]:
        out = out | v
    return out


def evaluate_with_leaf_results(
    expression: Expression, leaf_results: Mapping[LeafKey, DatasetBitmap]
) -> DatasetBitmap:
    """Evaluate an expression given precomputed per-leaf answers: And/Or
    collapse to word-wise ``&``/``|`` over packed ``uint64`` words."""
    if isinstance(expression, Predicate):
        return leaf_results[leaf_key(expression)]
    if isinstance(expression, And):
        values = [evaluate_with_leaf_results(c, leaf_results) for c in expression.children]
        return _combine_and(values)
    if isinstance(expression, Or):
        values = [evaluate_with_leaf_results(c, leaf_results) for c in expression.children]
        return _combine_or(values)
    raise QueryError(f"unsupported expression node {type(expression).__name__}")


def combine_bounds(
    expression: Expression, bounds: Mapping[LeafKey, LeafBounds]
) -> LeafBounds:
    """Three-valued evaluation: lift per-leaf ``(lower, upper)`` bounds to
    a whole expression.

    And/Or are monotone, so intersecting / unioning the children's lower
    bounds yields a sound lower bound for the node (ditto upper): an index
    in the lower set is in the final answer no matter how the leaves
    resolve inside their bounds, and an index outside the upper set is out
    no matter what.  An exact leaf participates as ``(answer, answer)``, a
    leaf with no answer yet as ``(∅, universe)`` (the emit scheduler, and
    the degraded answers of :mod:`repro.service.degrade`, whose universe is
    the live datasets) — mixed expressions tighten wherever exact answers
    exist.
    """
    if isinstance(expression, Predicate):
        return bounds[leaf_key(expression)]
    if isinstance(expression, (And, Or)):
        lowers, uppers = [], []
        for child in expression.children:
            lo, hi = combine_bounds(child, bounds)
            lowers.append(lo)
            uppers.append(hi)
        if isinstance(expression, And):
            return _combine_and(lowers), _combine_and(uppers)
        return _combine_or(lowers), _combine_or(uppers)
    raise QueryError(f"unsupported expression node {type(expression).__name__}")


def emit_schedule(
    expression: Expression,
    leaf_order: Iterable[LeafKey],
    leaf_results: Mapping[LeafKey, DatasetBitmap],
    leaf_times: Mapping[LeafKey, float],
    universe: DatasetBitmap,
) -> list[tuple[int, float]]:
    """Per-index emission times implied by per-leaf completion times.

    Replays the leaves in ``leaf_order`` (typically completion order) and,
    after each leaf, stamps every index whose membership in the final answer
    has just become determined with that leaf's completion time.  Returns
    ``(index, time)`` pairs sorted by (time, index) — the order in which a
    streaming evaluator could have emitted them.  The indexes of the result
    are exactly the full evaluation's answer.
    """
    unknown = (DatasetBitmap.zeros(universe.nbits), universe)
    bounds: dict[LeafKey, LeafBounds] = {
        leaf_key(leaf): unknown for leaf in expression.leaves()
    }
    emitted: dict[int, float] = {}
    for key in leaf_order:
        if bounds.get(key) is not unknown:
            continue  # already replayed, or not a leaf of this expression
        bounds[key] = (leaf_results[key], leaf_results[key])
        lower, _upper = combine_bounds(expression, bounds)
        stamp = leaf_times[key]
        for idx in lower.to_list():
            if idx not in emitted:
                emitted[idx] = stamp
    return sorted(emitted.items(), key=lambda pair: (pair[1], pair[0]))


#: Compiled plans a :class:`~repro.service.service.QueryService` keeps.  A
#: plan is pure expression algebra (no arrays) and a hit skips
#: canonicalization outright; the benchmark's ``warm_point`` workload
#: cycles a pool of 256 expressions, which 1024 holds four times over.
PLAN_CACHE_CAPACITY = 1024


class PlanCache:
    """A bounded LRU of compiled query plans keyed by expression structure.

    Keys are the *submitted* expression's :meth:`canonical_key` — a pure
    structural identity that is much cheaper to compute than the full
    canonical rewrite (no child sorting, no repr-based total order, no node
    rebuilding).  A hit therefore skips canonicalization and leaf
    collection entirely and reuses the compiled
    :class:`QueryPlan` — including its deduplicated leaf schedule, which
    downstream layers feed straight into the leaf cache and executor.

    Two syntactically different but semantically equal expressions (e.g.
    ``And(a, b)`` vs ``And(b, a)``) occupy separate entries whose plans
    share the same canonical expression — the leaf cache unifies their
    answers, so the only cost of the split is one extra cache slot.

    Plans are pure expression algebra: they reference no index structures
    and no dataset counts, so entries stay valid across live ingestion,
    removals and full rebuilds.  ``capacity=0`` disables caching (and
    counts nothing).  Hits, misses and evictions are counted into
    ``registry`` (``repro_plan_cache_*_total``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.measures import PercentileMeasure
    >>> from repro.core.predicates import And, pred
    >>> from repro.geometry.rectangle import Rectangle
    >>> a = pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.2)
    >>> b = pred(PercentileMeasure(Rectangle([0.5], [1.0])), 0.4)
    >>> cache = PlanCache(capacity=8, registry=MetricsRegistry())
    >>> p1 = cache.plan(And([a, b]))
    >>> p2 = cache.plan(And([a, b]))      # same shape: compiled once
    >>> p1 is p2, cache.snapshot()["hits"], cache.snapshot()["misses"]
    (True, 1, 1)
    """

    def __init__(self, capacity: int, registry: MetricsRegistry) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.registry = registry
        self._plans: OrderedDict[tuple, QueryPlan] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    def __len__(self) -> int:
        # len() of an OrderedDict racing a popitem/clear on another thread
        # is not guaranteed consistent; occupancy reads take the lock.
        with self._lock:
            return len(self._plans)

    def plan(self, expression: Expression) -> QueryPlan:  # lint: hot-path
        """The compiled plan for ``expression``, reused on structural hits."""
        if self.capacity == 0:
            return plan_query(expression)
        key = expression.canonical_key()
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
        if cached is not None:
            self.registry.inc("repro_plan_cache_hits_total")
            return cached
        self.registry.inc("repro_plan_cache_misses_total")
        compiled = plan_query(expression)
        n_evicted = 0
        with self._lock:
            self._plans[key] = compiled
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                n_evicted += 1
        if n_evicted:
            self.registry.inc("repro_plan_cache_evictions_total", by=n_evicted)
        return compiled

    def snapshot(self) -> dict:
        """JSON-ready lifetime counts (read back from the registry) plus
        occupancy."""
        count = self.registry.counter_value
        hits = int(count("repro_plan_cache_hits_total"))
        misses = int(count("repro_plan_cache_misses_total"))
        return {
            "hits": hits,
            "misses": misses,
            "evictions": int(count("repro_plan_cache_evictions_total")),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "size": len(self),
            "capacity": self.capacity,
        }
