"""Sharded batch execution: partitioned sub-engines, evaluated in turn.

The repository is partitioned into ``n_shards`` contiguous slices, each
served by its own *unit* (``_Unit``): a
:class:`~repro.core.engine.DatasetSearchEngine`, the ascending global ids of
the datasets it holds, and the lock its work runs under.  The delta shard
(below) is one more unit of the same kind.  A leaf is answered by querying
every unit, each packing its answer over its global ids, and unioning the
bitmaps.  Because every dataset
lives in exactly one unit, the union preserves the per-leaf paper
guarantees verbatim: recall is the conjunction of per-unit recalls (exact),
and precision slack is per-dataset, hence unchanged.

Exact equivalence with a single engine needs three partition-independent
ingredients, all handled here:

- **coresets** — ``PtileIndexBase`` draws coresets from one shared rng
  stream, so the sample a dataset gets depends on how many datasets were
  registered before it.  :class:`SeededSampleSynopsis` re-seeds per dataset
  (and per draw size), making each coreset a pure function of
  ``(seed, global index, size)``.  Seeding is unconditional: every synopsis
  an executor holds is seeded, and one that arrives already seeded keeps
  the index it carries (that is how a federated node states *global*
  indexes);
- **bounding box** — derived from the *global* repository (or passed in),
  never per shard;
- **query slack** — ``eps_effective`` depends on the engine's dataset count
  through the ε-sample bound, so each shard's Ptile index is pinned to the
  value a single engine over all ``N`` datasets would use (a widening for
  every shard, hence recall-safe).

A unit's engine is built on first use and grows in place: the first Ptile
or Pref leaf builds that structure, a delta insert extends it (and the
unit's ids), and the kd tree folds its side buffer into a rebuild
(``to_arrays`` does so on save).  No service path mutates it while
answering — ``record_times`` goes through the planner's ``emit_schedule``,
not the ReportFirst loop that deactivates points, and Pref queries are
read-only — but those builds and inserts must not race, so each unit walks
its leaf batch, builds and takes inserts under its own lock, and a batch
visits the units one after another on the thread that called it.
Two request threads overlap by working on different shards; CPU parallelism
lives in ``--workers`` processes and federation, the two mechanisms that can
use a second core under the GIL (a shard thread pool made builds 2x and
cold queries 3x slower here; see README "Performance guide").

Live mutation
-------------
The executor supports repository churn without a full rebuild:

- **additions** go into an append-only *delta shard*: an extra unit whose
  datasets keep global indexes ``N, N+1, ...``.  Coresets stay a pure
  function of ``(seed, global index, size)``, the delta engine shares the
  frozen bounding box, and its Ptile slack is pinned to the same
  ``eps_effective`` as every base shard, so the union over base + delta is
  exactly what a fresh build over the grown repository would answer;
- **removals** are an index mask (:attr:`removed`) applied when per-shard
  answers are merged — a tombstone, not a structural delete.  Masks only
  grow between rebuilds, so answers masked at any point stay valid under
  later masking;
- the **accuracy contract** ``(phi_eff, sample_size, eps_effective,
  bounding_box)`` is frozen at construction, resolved against
  ``max(n_live, capacity)``.  A serving system must not let its advertised
  precision drift as datasets arrive; size ``capacity`` for the expected
  repository growth and the contract (hence every cached answer) remains
  exact across ingests.  The add that takes the live count past the
  contract's N makes :meth:`~ShardedBatchExecutor.needs_rebalance` true,
  so the rebuild re-resolves the contract for the grown repository.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.core._ptile_common import resolve_phi, resolve_sample_size
from repro.core.bitset import DatasetBitmap
from repro.core.ptile_range import AUTO_BOX_PAD
from repro.core.engine import DatasetSearchEngine, _LeafBatch
from repro.core.framework import Repository
from repro.core.predicates import Predicate
from repro.errors import CapabilityError, ConstructionError, QueryError
from repro.geometry.epsilon_sample import epsilon_of_sample_size
from repro.geometry.rectangle import Rectangle
from repro.index.backend import check_dynamic_engine
from repro.service import faults
from repro.service.observability import MetricsRegistry
from repro.synopsis.base import Synopsis
from repro.synopsis.exact import ExactSynopsis
from repro.trace import span

if TYPE_CHECKING:
    from repro.service.deadline import Deadline


def partition_indices(n: int, n_shards: int) -> list[list[int]]:
    """Contiguous, balanced partition of ``range(n)`` into ``n_shards`` parts.

    Shards differ in size by at most one; empty shards are never produced
    (``n_shards`` is clipped to ``n``).

    Examples
    --------
    >>> partition_indices(5, 2)
    [[0, 1, 2], [3, 4]]
    >>> partition_indices(2, 8)
    [[0], [1]]
    """
    if n < 1:
        raise ConstructionError("n must be positive")
    if n_shards < 1:
        raise ConstructionError("n_shards must be positive")
    n_shards = min(n_shards, n)
    base, extra = divmod(n, n_shards)
    out: list[list[int]] = []
    start = 0
    for s in range(n_shards):
        size = base + (1 if s < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return out


class SeededSampleSynopsis(Synopsis):
    """Delegating synopsis whose ``sample`` is deterministic per dataset.

    Wraps a base synopsis and replaces the sampling stream: every call to
    :meth:`sample` draws from a fresh generator seeded by
    ``(seed, index, size)``, ignoring the caller's rng.  The same dataset
    therefore receives the same coreset no matter which engine (full or
    shard) registers it, or in which order — the property the sharded
    executor's exact-equivalence guarantee rests on.
    """

    def __init__(self, base: Synopsis, seed: int, index: int) -> None:
        self.base = base
        self.seed = int(seed)
        self.index = int(index)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def n_points(self) -> int:
        return self.base.n_points

    @property
    def delta_ptile(self) -> Optional[float]:
        return self.base.delta_ptile

    @property
    def delta_pref(self) -> Optional[float]:
        return self.base.delta_pref

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        del rng  # replaced by the per-dataset stream
        own = np.random.default_rng((self.seed, self.index, int(size)))
        return self.base.sample(size, own)

    def mass(self, rect: Rectangle) -> float:
        return self.base.mass(rect)

    def score(self, vector: np.ndarray, k: int) -> float:
        return self.base.score(vector, k)

    def score_batch(self, vectors: np.ndarray, k: int) -> np.ndarray:
        return self.base.score_batch(vectors, k)


@dataclass(eq=False)
class _Unit:
    """One shard unit: ``engine`` holds the datasets ``ids`` (ascending
    global indexes; its local dataset ``j`` is ``ids[j]``) and evaluates,
    builds and takes inserts under ``lock``.  Only the delta's ids grow."""

    engine: DatasetSearchEngine
    ids: list[int]
    lock: threading.Lock = field(default_factory=threading.Lock)


class ShardedBatchExecutor:
    """Evaluate predicate leaves over ``n_shards`` partitioned sub-engines.

    Parameters
    ----------
    synopses:
        One synopsis per dataset; derived as exact synopses from
        ``repository`` when omitted.
    repository:
        Raw repository; used for exact synopses and the shared bounding box.
    n_shards:
        Number of partitions (clipped to the dataset count).
    eps, phi, delta:
        As for :class:`~repro.core.engine.DatasetSearchEngine`; resolved
        once against the *global* dataset count and forced onto every shard.
    sample_size:
        Explicit coreset size; defaults to the global-N theoretical bound.
    bounding_box:
        Shared Ptile bounding box; defaults to ``repository.bounding_box()``.
    seed:
        Seed of the per-dataset deterministic sampling streams: every
        synopsis is wrapped in :class:`SeededSampleSynopsis` with its
        position as index, except one that arrives already seeded, which
        keeps the index it carries.
    engine:
        Range-search backend name forced onto every shard engine (and the
        delta shard): ``"kd"``, the one dynamic engine of
        :mod:`repro.index.backend`.  Any other name is refused at
        construction: the static ``"rangetree"`` because the serving layer
        ingests live.
    capacity:
        Expected repository size the accuracy contract is resolved against:
        ``phi_eff``, ``sample_size`` and ``eps_effective`` are computed for
        ``max(n_live, capacity)`` datasets, so live ingestion up to
        ``capacity`` keeps single-engine semantics exactly.  ``None`` sizes
        the contract for the construction-time count (static behaviour).
    removed:
        Global dataset indexes to tombstone from the start; these stay in
        ``synopses`` (positions are stable identities) but are excluded from
        the shard engines and masked out of every answer.
    registry:
        Where completed evaluations are counted
        (``repro_executor_{leaf_evals,shard_tasks,delta_evals}_total``):
        the owning service's, so the counts outlive a rebuild's executor.
    """

    #: Memoized ANDNOT mask; keyed by identity of ``removed`` (which is
    #: replaced wholesale on every mutation, never edited in place).
    _removed_bits_cache: Optional[tuple] = None

    def __init__(
        self,
        synopses: Optional[Sequence[Synopsis]] = None,
        repository: Optional[Repository] = None,
        n_shards: int = 1,
        eps: float = 0.1,
        phi: Optional[float] = None,
        delta: Optional[float] = None,
        sample_size: Optional[int] = None,
        bounding_box: Optional[Rectangle] = None,
        seed: int = 0,
        engine: str = "kd",
        capacity: Optional[int] = None,
        removed: Optional[Iterable[int]] = None,
        *,
        registry: MetricsRegistry,
    ) -> None:
        if synopses is None and repository is None:
            raise ConstructionError("provide synopses and/or a repository")
        if synopses is None:
            synopses = [ExactSynopsis(ds.points) for ds in repository]
        synopses = list(synopses)
        if repository is not None and len(synopses) != repository.n_datasets:
            raise ConstructionError("one synopsis per repository dataset required")
        dims = {s.dim for s in synopses}
        if len(dims) != 1:
            raise ConstructionError("all synopses must share the same dimension")
        self.dim = dims.pop()
        self.eps = float(eps)
        self.seed = int(seed)
        self._delta_param = delta
        # The other requested inputs a rebuild re-resolves the contract
        # from (:meth:`_rebuild_kwargs`); a pinned box is kept as it is.
        self._phi_param = phi
        self._sample_size_param = sample_size
        self._box_pinned = bounding_box is not None
        self.engine_kind = check_dynamic_engine(engine)
        self.synopses = [self._seeded(s, i) for i, s in enumerate(synopses)]
        self.repository = repository
        self.registry = registry

        self.removed = frozenset(int(i) for i in (removed or ()))
        if any(i < 0 or i >= len(synopses) for i in self.removed):
            raise ConstructionError("removed indexes must lie in [0, n_datasets)")
        live = [i for i in range(len(synopses)) if i not in self.removed]
        if not live:
            raise ConstructionError("cannot tombstone every dataset")

        # Resolve the Ptile accuracy parameters once, against the global
        # live count (or the declared capacity, whichever is larger), so
        # every shard runs with single-engine semantics and the contract
        # survives live ingestion up to ``capacity``.
        self.capacity = int(capacity) if capacity is not None else None
        n_acc = max(len(live), self.capacity or 0)
        self.phi_eff = resolve_phi(phi, n_acc)
        self.sample_size = resolve_sample_size(
            eps, phi, n_acc, sample_size, self.dim
        )
        if bounding_box is None and repository is not None:
            bounding_box = repository.bounding_box()
        if bounding_box is None:
            bounding_box = self._bounding_box_from_synopses()
        self.bounding_box = bounding_box
        self.eps_effective = max(
            self.eps,
            epsilon_of_sample_size(self.sample_size, self.phi_eff, n_acc),
        )

        parts = partition_indices(len(live), n_shards)
        #: The base shards, in order; ``len(units)`` is the shard count.
        self.units = [
            self._new_unit([live[p] for p in part], s)
            for s, part in enumerate(parts)
        ]
        #: The delta shard, made by the first :meth:`add_synopses`.
        self.delta: Optional[_Unit] = None

    def _rebuild_kwargs(self) -> dict:
        """The construction keywords of the executor a rebuild publishes:
        the requested inputs, so the contract re-resolves for the grown
        repository, and the box only if it was pinned."""
        return dict(
            eps=self.eps, phi=self._phi_param, delta=self._delta_param,
            sample_size=self._sample_size_param,
            bounding_box=self.bounding_box if self._box_pinned else None,
            seed=self.seed, engine=self.engine_kind, capacity=self.capacity,
        )

    @property
    def n_datasets(self) -> int:
        """Total datasets ever registered (including tombstoned ones)."""
        return len(self.synopses)

    @property
    def n_live(self) -> int:
        """Datasets currently served (total minus removal mask)."""
        return len(self.synopses) - len(self.removed)

    @property
    def delta_size(self) -> int:
        """Datasets sitting in the append-only delta shard."""
        return 0 if self.delta is None else len(self.delta.ids)

    def _seeded(self, synopsis: Synopsis, index: int) -> Synopsis:
        """``synopsis`` with its per-dataset sampling stream.  One that
        arrives seeded is kept as it is — the index it carries is its
        identity (a federated node's global index, or the one a previous
        executor gave it) — and anything else is wrapped with
        ``(seed, index)``."""
        if isinstance(synopsis, SeededSampleSynopsis):
            return synopsis
        return SeededSampleSynopsis(synopsis, self.seed, index)

    def _new_unit(
        self, ids: list[int], stream: int, synopses: Optional[list] = None
    ) -> _Unit:
        """The unit over the datasets ``ids`` (with ``synopses``, else the
        executor's at ``ids``) under the frozen contract: base shard ``s``
        gets rng stream ``s``, the delta ``len(units)``.  The stream is
        never drawn from — every synopsis is a :class:`SeededSampleSynopsis`,
        which samples from its own — so a snapshot stores none and a load
        makes each unit here, as this constructor does.  Nothing is built
        until the unit is first used."""
        engine = DatasetSearchEngine(
            synopses=synopses or [self.synopses[i] for i in ids],
            eps=self.eps,
            phi=self.phi_eff,
            delta=self._delta_param,
            sample_size=self.sample_size,
            bounding_box=self.bounding_box,
            engine=self.engine_kind,
            rng=np.random.default_rng((self.seed, stream)),
        )
        return _Unit(engine, ids)

    def _bounding_box_from_synopses(self) -> Optional[Rectangle]:
        """A shared Ptile box in the federated (synopses-only) setting.

        Without a shared box, each shard's Ptile index would auto-derive its
        own from its local coresets and shard answers could diverge from a
        single engine's.  Deterministic sampling means the draws below are
        exactly the coresets the shard engines will draw later, so a padded
        bound over them contains every shard's coresets by construction.
        Returns None for synopses without percentile support (a Ptile index
        can never be built over them anyway).
        """
        try:
            samples = [
                s.sample(self.sample_size, np.random.default_rng(0))
                for s in self.synopses
            ]
        except CapabilityError:
            return None
        pts = np.vstack(samples)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        extent = np.where(hi > lo, hi - lo, 1.0)
        return Rectangle(lo - AUTO_BOX_PAD * extent, hi + AUTO_BOX_PAD * extent)

    # ------------------------------------------------------------------
    # Per-shard evaluation
    # ------------------------------------------------------------------
    def _pin_ptile(self, engine: DatasetSearchEngine) -> None:
        """Build the shard's Ptile index and widen its slack to global-N."""
        index = engine.build().ptile_index
        if index.eps_effective < self.eps_effective:
            index.eps_effective = self.eps_effective

    def _eval_on_unit(
        self,
        unit: _Unit,
        leaves: _LeafBatch,
        deadline: "Optional[Deadline]",
    ) -> list[DatasetBitmap]:
        """All leaves on one unit as *global* packed bitsets.

        The unit's whole leaf batch goes through
        :meth:`~repro.core.engine.DatasetSearchEngine.eval_leaf_batch_bits`
        — one multi-box backend call for every percentile leaf — so a cold
        batch costs one traversal per unit, not one per leaf.  ``leaves``
        is the one :class:`~repro.core.engine._LeafBatch` that
        :meth:`_eval_on_units` hands every unit: the percentile leaves'
        Algorithm-4 boxes and their float batch are built by the first unit
        that answers them, and the rest — pinned to the same bounding box
        and ``eps_effective`` — only code that batch against their own
        level tables.

        The engine packs each answer over the unit's global ids: a leaf's
        local keys index ``ids`` once, contiguous or gapped alike.  The
        universe ends at the unit's largest global index — the merge's
        word-wise OR aligns operands of different sizes by zero-padding,
        so per-unit sizes never have to agree.

        In a traced batch (:mod:`repro.trace`) the whole unit evaluation
        runs under a per-unit span (``shard_eval`` with a ``shard`` index
        for base shards, ``delta_eval`` for the delta shard) nested in the
        caller's open span, and the engine's own ``engine_leaf_batch`` span
        nests inside it.

        With a ``deadline`` the budget is polled once the unit lock is
        held, before any evaluation.  Then it is every answer or none:
        ``[]`` when the poll trips, else the whole aligned list; the
        overshoot is at most this unit's batched call.  The
        ``shard_eval`` failpoint fires first — inside the lock, before the
        poll — so an armed ``sleep`` deterministically trips a short
        deadline.
        """
        unit_span = (
            span("delta_eval", n_datasets=len(unit.ids))
            if unit is self.delta
            else span(
                "shard_eval",
                shard=self.units.index(unit),
                n_datasets=len(unit.ids),
            )
        )
        with unit_span, unit.lock:
            if faults.ARMED is not None:
                faults.hit("shard_eval")
            if deadline is not None and deadline.expired():
                return []
            if leaves.ptile:
                self._pin_ptile(unit.engine)
            # The ids are read under this lock: the delta's grow only here.
            ids = np.asarray(unit.ids, dtype=np.int64)
            answers = unit.engine.eval_leaf_batch_bits(leaves, ids)
        self.registry.inc("repro_executor_shard_tasks_total", by=len(answers))
        return answers

    def _units(self, delta_only: bool = False) -> list[_Unit]:
        """The units a batch visits, in order: the base shards (unless
        ``delta_only``), then the delta shard if there is one."""
        units = [] if delta_only else list(self.units)
        if self.delta is not None:  # set once, never unset
            units.append(self.delta)
        return units

    def removed_bits(self) -> Optional[DatasetBitmap]:
        """The tombstone mask as a persistent ANDNOT bitmap (None if empty).

        Rebuilt only when :attr:`removed` is swapped (masks are replaced,
        never mutated in place), so steady-state reads reuse one bitmap.
        """
        removed = self.removed
        if not removed:
            return None
        cached = self._removed_bits_cache
        if cached is not None and cached[0] is removed:
            return cached[1]
        bits = DatasetBitmap.from_indices(removed, max(removed) + 1)
        self._removed_bits_cache = (removed, bits)
        return bits

    def _eval_on_units(
        self,
        counter: str,
        units: Sequence[_Unit],
        leaves: Sequence[Predicate],
        deadline: "Optional[Deadline]",
    ) -> list[DatasetBitmap]:
        """Evaluate a leaf batch on each unit in turn and merge (masked)
        answers — the one body of :meth:`eval_leaves` and
        :meth:`eval_delta_leaves`, which differ in the units they visit and
        the registry ``counter`` a completed batch is added to.

        Units run one after another on the calling thread, whose context
        holds the batch's tracer (:mod:`repro.trace`), each under its own
        span (see :meth:`_eval_on_unit`); the merge loop runs under a
        ``merge`` span.

        With a ``deadline``, the budget is polled before each unit and
        again inside it (:meth:`_eval_on_unit`).  The call answers every
        leaf or none: once a poll trips, no further unit starts and ``[]``
        comes back, and a batch that held returns every leaf, each exact.
        The overshoot is at most one unit's batched call.  A tripped batch
        moves no leaf counter.
        """
        leaves = _LeafBatch(leaves)  # one per batch: its boxes are shared
        if not leaves:
            return []
        if not units:
            self.registry.inc(counter, by=len(leaves))
            return [DatasetBitmap.zeros(0) for _ in leaves]
        per_unit: list[list[DatasetBitmap]] = []
        for unit in units:
            if deadline is not None and deadline.expired():
                return []
            answers = self._eval_on_unit(unit, leaves, deadline)
            if not answers:
                return []
            per_unit.append(answers)
        with span("merge", n_units=len(units), n_leaves=len(leaves)):
            removed = self.removed_bits()
            out: list[DatasetBitmap] = []
            for row in zip(*per_unit):
                merged = row[0]
                for indexes in row[1:]:
                    merged = merged | indexes
                if removed is not None:
                    merged = merged.andnot(removed)
                out.append(merged)
        self.registry.inc(counter, by=len(out))
        return out

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def eval_leaves(
        self,
        leaves: Sequence[Predicate],
        deadline: "Optional[Deadline]" = None,
    ) -> list[DatasetBitmap]:
        """A batch of leaves across base shards plus the delta shard.

        Returns one global bitset per leaf, aligned with the input order;
        tombstoned datasets are masked out (word-wise ANDNOT against the
        persistent removal mask).  Every leaf of one call completes at
        once, so the caller stamps the call, not the leaf.  With a
        ``deadline`` it is every answer or none
        (``[]`` once a poll trips); the overshoot is at most one unit's
        batched call.
        """
        return self._eval_on_units(
            "repro_executor_leaf_evals_total", self._units(), leaves, deadline
        )

    def eval_delta_leaves(
        self,
        leaves: Sequence[Predicate],
        deadline: "Optional[Deadline]" = None,
    ) -> list[DatasetBitmap]:
        """A leaf batch on the delta shard only (masked global bitsets).

        This is the cache-upgrade primitive: a leaf answer cached before an
        ingest covers exactly the datasets below its watermark, and every
        dataset added since lives in the delta shard (rebuilds flush the
        cache), so ``cached ∪ delta answer`` — a word-wise OR after
        zero-padding the cached bitmap — reconstructs the full answer
        without touching any base shard.  With no delta shard the answers
        are empty bitsets.
        """
        return self._eval_on_units(
            "repro_executor_delta_evals_total", self._units(delta_only=True),
            leaves, deadline,
        )

    # ------------------------------------------------------------------
    # Live mutation
    # ------------------------------------------------------------------
    def fits(self, synopsis: Synopsis, index: int) -> bool:
        """Whether a new dataset can enter the delta shard under the frozen
        accuracy contract (i.e. its Ptile coreset lies inside the shared
        bounding box).

        Pref-only synopses always fit (no Ptile structure is built over
        them).  The check is exact: it draws the very coreset the delta
        engine will use for global index ``index`` — a heuristic draw could admit a synopsis whose real
        build-time coreset then falls outside the box, poisoning the delta
        shard with no rollback.
        """
        if synopsis.dim != self.dim:
            raise ConstructionError("synopsis dimension mismatch")
        if synopsis.delta_ptile is None:
            return True
        if self.bounding_box is None:
            return False
        sample = self._seeded(synopsis, int(index)).sample(
            self.sample_size, np.random.default_rng(0)
        )
        pts = np.asarray(sample, dtype=float)
        return bool(self.bounding_box.contains_points(pts).all())

    def add_synopses(self, synopses: Sequence[Synopsis]) -> list[int]:
        """Append datasets to the delta shard; returns their global indexes.

        New synopses are seeded (:meth:`_seeded`) by their global index, so
        the coreset each dataset gets is the one a fresh build over the
        grown repository would draw.  The delta engine shares the frozen
        bounding box and accuracy contract; its Ptile index is pinned to
        the executor ``eps_effective`` on first use, exactly like every
        base shard.  Mutations are serialized by the caller
        (``QueryService``'s mutation lock); queries take no such lock.
        """
        new = list(synopses)
        if not new:
            return []
        for s in new:
            if s.dim != self.dim:
                raise ConstructionError("synopsis dimension mismatch")
        start = len(self.synopses)
        ids = list(range(start, start + len(new)))
        wrapped = [self._seeded(s, gid) for gid, s in zip(ids, new)]
        # The delta must hold the new datasets BEFORE ``synopses`` grows: a
        # concurrent batch reads its watermark from ``len(synopses)``, and
        # one that saw the new count but not the new datasets would cache
        # an answer without them under a watermark that claims to cover
        # them — an entry that is never upgraded.  The reverse window (new
        # datasets answered, old count) is harmless: the answer includes
        # datasets above the stored watermark, and the next upgrade union
        # is idempotent.  A new delta is published whole, as one reference;
        # an existing one takes the insert under the lock its queries hold.
        if self.delta is None:
            self.delta = self._new_unit(ids, len(self.units), wrapped)
        else:
            with self.delta.lock:
                for s in wrapped:
                    self.delta.engine.insert_synopsis(s, delta=self._delta_param)
                self.delta.ids.extend(ids)
        self.synopses.extend(wrapped)
        return ids

    def remove_indexes(self, indexes: Iterable[int]) -> list[int]:
        """Tombstone datasets by global index (masked at merge time).

        The structures are untouched — and so is the cache layered above,
        because masks are applied when answers are read.  Tombstones are
        compacted out of the shard engines at the next rebuild.
        """
        idx = sorted({int(i) for i in indexes})
        for i in idx:
            if not 0 <= i < self.n_datasets:
                raise QueryError(f"unknown dataset index {i}")
            if i in self.removed:
                raise QueryError(f"dataset {i} is already removed")
        if len(self.removed) + len(idx) >= self.n_datasets:
            raise QueryError("cannot remove every dataset")
        self.removed = self.removed | frozenset(idx)
        return idx

    def needs_rebalance(self) -> bool:
        """True when the delta shard outgrew the mean base shard size, or
        the live count outgrew the contract's N: ``max(n_live, capacity)``
        at construction, when the base shards held every live dataset."""
        if self.delta is None:
            return False
        base = sum(self.shard_sizes())
        if self.n_live > max(base, self.capacity or 0):
            return True
        return len(self.delta.ids) > base / len(self.units)

    def warm(self) -> None:
        """Eagerly build every shard's Ptile structure (pinned), one shard
        (then the delta shard) after another on the calling thread."""
        for unit in self._units():
            with unit.lock:
                self._pin_ptile(unit.engine)

    def shard_sizes(self) -> list[int]:
        """Datasets per base shard (the delta shard is reported separately)."""
        return [len(unit.ids) for unit in self.units]

    def index_bytes(self) -> int:
        """Array bytes held by the built shard backends (a lazy shard that
        has not been built counts 0 and stays unbuilt).  Reads sizes only,
        under no shard lock: a momentary view while a shard rebuilds."""
        indexes = [unit.engine._ptile for unit in self._units()]
        return sum(index._tree.nbytes for index in indexes if index is not None)
