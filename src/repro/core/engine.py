"""Unified distribution-aware dataset search engine.

``DatasetSearchEngine`` is the user-facing facade: it accepts a repository
(centralized setting) or a list of synopses (federated setting), lazily
builds the appropriate data structures, and routes arbitrary logical
expressions mixing percentile and preference predicates:

- percentile leaves go to the Ptile range structure (Theorem 4.11), with
  the threshold structure as a special case;
- preference leaves go to a Pref structure per rank ``k`` (Theorem 5.4);
- conjunctions/disjunctions combine the leaf bitsets word-wise, preserving
  the per-leaf guarantees (recall is exact; precision error
  ``eps + 2 delta`` per leaf).

The engine also computes exact ground truth (centralized only) so examples,
tests and benchmarks can report recall/precision directly.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.bitset import DatasetBitmap
from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import Expression, Predicate
from repro.core.ptile_range import PtileRangeIndex, _PtileQueries
from repro.core.pref_index import PrefIndex, pref_threshold
from repro.core.results import QueryResult
from repro.errors import ConstructionError, QueryError
from repro.geometry.rectangle import Rectangle
from repro.index.backend import backend_class
from repro.synopsis.base import Synopsis
from repro.synopsis.exact import ExactSynopsis
from repro.trace import span


class _LeafBatch(list):
    """A leaf list that several engines answer in turn — the units of a
    sharded batch — holding what each of them would derive alike: the
    positions of its percentile leaves and their ``(rect, theta)`` queries,
    whose Algorithm-4 boxes are then built once per frame
    (:class:`~repro.core.ptile_range._PtileQueries`)."""

    def __init__(self, leaves: Iterable[Predicate]) -> None:
        super().__init__(leaves)
        self.ptile_pos = [
            i for i, leaf in enumerate(self) if isinstance(leaf.measure, PercentileMeasure)
        ]
        self.ptile = _PtileQueries((self[i].measure.rect, self[i].theta) for i in self.ptile_pos)


class DatasetSearchEngine:
    """Search a repository of datasets by distributional predicates.

    Parameters
    ----------
    synopses:
        One synopsis per dataset (federated setting), or None to derive
        exact synopses from ``repository`` (centralized setting).
    repository:
        The raw repository; optional in the federated setting (enables
        ground-truth evaluation when present).
    eps:
        Accuracy parameter shared by all structures.
    phi:
        Coreset failure probability (default ``1/N``).
    delta:
        Optional global synopsis-error bound.
    engine:
        Orthant-search backend of the Ptile structure (``"kd"`` default or
        ``"rangetree"`` — see :mod:`repro.index.backend`);
        Pref structures have no orthant search and ignore it.
    rng:
        Randomness for coreset sampling.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.predicates import pred
    >>> rng = np.random.default_rng(0)
    >>> repo = Repository.from_arrays([rng.uniform(0, 1, (400, 2)) for _ in range(6)])
    >>> eng = DatasetSearchEngine(repository=repo, eps=0.1, rng=rng)
    >>> expr = pred(PercentileMeasure(Rectangle([0, 0], [1, 1])), 0.9)
    >>> sorted(eng.search(expr).indexes)
    [0, 1, 2, 3, 4, 5]
    """

    def __init__(
        self,
        synopses: Optional[Sequence[Synopsis]] = None,
        repository: Optional[Repository] = None,
        eps: float = 0.1,
        phi: Optional[float] = None,
        delta: Optional[float] = None,
        sample_size: Optional[int] = None,
        bounding_box: Optional[Rectangle] = None,
        engine: str = "kd",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if synopses is None and repository is None:
            raise ConstructionError("provide synopses and/or a repository")
        if synopses is None:
            synopses = [ExactSynopsis(ds.points) for ds in repository]
        self.synopses = list(synopses)
        self.repository = repository
        if repository is not None and len(self.synopses) != repository.n_datasets:
            raise ConstructionError("one synopsis per repository dataset required")
        dims = {s.dim for s in self.synopses}
        if len(dims) != 1:
            raise ConstructionError("all synopses must share the same dimension")
        self.dim = dims.pop()
        self.eps = float(eps)
        self._phi = phi
        self._delta = delta
        self._sample_size = sample_size
        self._bounding_box = bounding_box
        backend_class(engine)  # an unknown name fails here, not at the first query
        self.engine_kind = engine
        self._rng = rng if rng is not None else np.random.default_rng()
        self._ptile: Optional[PtileRangeIndex] = None
        self._pref: dict[int, PrefIndex] = {}

    # ------------------------------------------------------------------
    # Lazy index construction
    # ------------------------------------------------------------------
    @property
    def ptile_index(self) -> PtileRangeIndex:
        """The (lazily built) Ptile range structure."""
        if self._ptile is None:
            box = self._bounding_box
            if box is None and self.repository is not None:
                box = self.repository.bounding_box()
            self._ptile = PtileRangeIndex(
                self.synopses,
                eps=self.eps,
                phi=self._phi,
                delta=self._delta,
                sample_size=self._sample_size,
                bounding_box=box,
                engine=self.engine_kind,
                rng=self._rng,
            )
        return self._ptile

    def pref_index(self, k: int) -> PrefIndex:
        """The (lazily built, cached) Pref structure for rank ``k``."""
        if k not in self._pref:
            self._pref[k] = PrefIndex(
                self.synopses, k=k, eps=self.eps, delta=self._delta
            )
        return self._pref[k]

    @property
    def n_datasets(self) -> int:
        """``N``."""
        return len(self.synopses)

    def build(self) -> "DatasetSearchEngine":
        """Eagerly build the Ptile structure (cold-start warmup hook).

        The engine is lazy by default: the first percentile query pays the
        full coreset-enumeration build.  Serving layers call ``build()``
        up front — ``repro serve`` warmup and the sharded executor's
        :meth:`~repro.service.sharding.ShardedBatchExecutor.warm` (one
        shard after another) both route through here — so no user query
        eats the cold build.
        Pref structures stay lazy (their rank ``k`` is query-dependent).
        Returns ``self`` for chaining.
        """
        _ = self.ptile_index
        return self

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, expression: Expression, record_times: bool = False) -> QueryResult:
        """Answer ``q_Pi(P)`` approximately with the paper's guarantees.

        One path: the expression is planned (canonical form, duplicate
        leaves dropped), its unique leaves are evaluated in one batched
        pass (multi-box kernels, same structure as the cold service path)
        and And/Or combine the leaf bitsets word-wise.

        ``record_times=True`` adds the stamps: each reported index carries
        the completion time of the leaf at which its membership in the
        final answer became logically determined, so
        ``QueryResult.delays()`` measures real inter-report gaps.  Leaf
        completion stamps are taken as each leaf's answer is unpacked from
        the batch — still strictly per-leaf and monotone, but adjacent
        leaves that shared one backend call complete almost together.
        Indexes are then in emission order; without timing they are sorted.
        """
        # Local import: the planner lives in the service layer, which
        # imports this module — a module-level import would be circular.
        from repro.service.planner import (
            emit_schedule,
            evaluate_with_leaf_results,
            plan_query,
        )

        start = time.perf_counter()
        plan = plan_query(expression)
        answers = self.eval_leaf_batch_bits(
            list(plan.leaves.values()), np.arange(self.n_datasets)
        )
        leaf_results = dict(zip(plan.leaves, answers))
        if not record_times:
            return QueryResult(
                bitmap=evaluate_with_leaf_results(plan.expression, leaf_results)
            )
        result = QueryResult()
        result.start_time = start
        # Stamp at unpack time: the instant this leaf's answer became
        # available to the evaluator (per-leaf, strictly monotone).
        leaf_times = {key: time.perf_counter() for key in leaf_results}
        schedule = emit_schedule(
            plan.expression,
            list(leaf_results),
            leaf_results,
            leaf_times,
            DatasetBitmap.full(self.n_datasets),
        )
        result.indexes = [idx for idx, _t in schedule]
        result.emit_times = [t for _idx, t in schedule]
        result.end_time = time.perf_counter()
        return result

    def eval_leaf_batch_bits(  # lint: hot-path
        self, leaves: Sequence[Predicate], ids: np.ndarray
    ) -> list[DatasetBitmap]:
        """A batch of leaf answers as packed bitsets over global ids,
        aligned with ``leaves``.

        ``ids`` are the engine's global dataset ids, ascending (local
        dataset ``j`` is ``ids[j]``; ``np.arange(n)`` for an engine that is
        the whole lake), and each answer's universe ends one past the
        largest.  Every leaf's local answer is a strictly ascending key
        array, and its bitmap is ``from_indices(ids[keys], nbits)``: one
        step, alike for contiguous and gapped ids.

        All percentile leaves are routed through
        :meth:`~repro.core.ptile_range.PtileRangeIndex.query_many` — one
        multi-box backend call for the whole batch instead of one tree
        walk per leaf.  Their Algorithm-4 boxes are built there, once per
        :class:`_LeafBatch`: a sharded executor hands one batch to every
        unit, so only its first unit builds them (see
        :class:`~repro.core.ptile_range._PtileQueries`); a plain leaf list
        is a batch of its own.  Preference leaves are evaluated
        individually (each rank ``k`` owns a separate Pref structure); any
        other measure is a :class:`~repro.errors.QueryError`.

        In a traced batch (:mod:`repro.trace`) the whole kernel call runs
        under an ``engine_leaf_batch`` span, nested inside whatever span
        the caller has open (the sharded executor's per-shard span).

        The call answers every leaf or none (it raises): a serving budget
        is polled by the sharded executor between units, never inside this
        call, so the overshoot is at most one unit's batched call.
        """
        nbits = int(ids[-1]) + 1 if len(ids) else 0
        batch = leaves if isinstance(leaves, _LeafBatch) else _LeafBatch(leaves)
        keys: list[Optional[np.ndarray]] = [None] * len(batch)
        with span("engine_leaf_batch", n_leaves=len(batch), n_datasets=self.n_datasets):
            for i, leaf in enumerate(batch):
                measure = leaf.measure
                if isinstance(measure, PreferenceMeasure):
                    index = self.pref_index(measure.k)
                    vi = index._net_vector(measure.vector)
                    keys[i] = index._hits(vi, pref_threshold(leaf.theta))
                elif not isinstance(measure, PercentileMeasure):
                    raise QueryError(f"unsupported measure {type(measure).__name__}")
            if batch.ptile:
                for i, found in zip(batch.ptile_pos, self.ptile_index.query_many(batch.ptile)):
                    keys[i] = found
            return [DatasetBitmap.from_indices(ids[k], nbits) for k in keys]

    # ------------------------------------------------------------------
    # Dynamics (Remark 1)
    # ------------------------------------------------------------------
    def insert_synopsis(self, synopsis: Synopsis, delta: Optional[float] = None) -> int:
        """Dynamically add a dataset; returns its index (``= old N``).

        Structures that are already built are updated in place (the Ptile
        range structure and every cached Pref structure support Remark 1
        insertions); lazily-built ones will simply include the new synopsis
        when first constructed.  The raw ``repository`` — used only for
        ground truth — is not extended here; callers that track it (e.g. the
        service layer) extend it themselves.
        """
        if synopsis.dim != self.dim:
            raise ConstructionError("synopsis dimension mismatch")
        if delta is None:
            delta = self._delta
        # The Ptile insert first: it refuses a coreset outside the box, and
        # a refused dataset must leave no trace.
        if self._ptile is not None:
            self._ptile.insert_synopsis(synopsis, delta=delta)
        for index in self._pref.values():
            index.insert_synopsis(synopsis, delta=delta)
        self.synopses.append(synopsis)
        return len(self.synopses) - 1

    # ------------------------------------------------------------------
    # Ground truth (centralized only)
    # ------------------------------------------------------------------
    def ground_truth(self, expression: Expression) -> set[int]:
        """Exact ``q_Pi(P)`` by brute force over the raw repository."""
        if self.repository is None:
            raise QueryError("ground truth requires the raw repository")
        return expression.ground_truth(self.repository)

    def evaluate_quality(self, expression: Expression) -> dict:
        """Recall/precision diagnostics of one search against ground truth."""
        truth = self.ground_truth(expression)
        got = self.search(expression).index_set
        recall = 1.0 if not truth else len(truth & got) / len(truth)
        precision = 1.0 if not got else len(truth & got) / len(got)
        return {
            "truth_size": len(truth),
            "reported_size": len(got),
            "recall": recall,
            "precision": precision,
            "false_positives": sorted(got - truth),
            "missed": sorted(truth - got),
        }
