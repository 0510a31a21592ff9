"""Approximate Ptile index for general range-predicates (Section 4.3).

Implements Algorithms 3 (construction) and 4 (query) and therefore
Theorem 4.11: for ``theta = [a_theta, b_theta]`` the returned ``J``
satisfies ``q_Pi(P) ⊆ J`` and every ``j ∈ J`` has

    a_theta - 2 eps' - 2 delta_j  <=  M_R(P_j)  <=  b_theta + 2 eps' + 2 delta_j

(Lemmas 4.7-4.8; the theorem folds the factor 2 by halving eps upfront),
with no duplicates (Lemma 4.9).

The crux versus the threshold structure: an arbitrary coreset rectangle
inside ``R`` can under-count (Figure 2), so only the *maximal* coreset
rectangle inside ``R`` may decide membership.  Algorithm 3 realizes this by
storing pairs ``(rho, rho_hat)`` such that a query orthant hit certifies
``rho ⊆ R ⊂⊂ rho_hat`` — which forces ``rho`` maximal (Lemma 4.5).  The
pair set is built by :func:`~repro.geometry.rect_enum.enumerate_maximal_pairs`
(the exact pruning proved in that module: each inner rectangle pairs with
its one-step neighbour expansion over the coreset-plus-bounding-box grid).

Mapped points live in ``R^{4d+2}``: the 4d pair coordinates plus two shifted
weight coordinates ``w + delta_i`` and ``w - delta_i``, so both sides of the
per-dataset slack become global box constraints (Remark 2 support).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core._ptile_common import (
    PtileIndexBase,
    _report,
    _row_ranges,
    _weight_levels,
)
from repro.core.results import QueryResult
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rect_enum import _row_counts, generalized_pairs_arrays
from repro.geometry.rectangle import Rectangle
from repro.index.backend import build_engine
from repro.index.query_box import BoxBatch, QueryBox
from repro.synopsis.base import Synopsis

#: Fraction of the coreset span used to pad the automatic bounding box.
AUTO_BOX_PAD = 0.25


class PtileRangeIndex(PtileIndexBase):
    """The Ptile data structure for one range-predicate (Theorem 4.11).

    Parameters are as in
    :class:`~repro.core.ptile_threshold.PtileThresholdIndex`, plus:

    bounding_box:
        The box ``B`` of Section 4.3.  All data and all query rectangles are
        assumed to lie inside ``B``; queries are clipped to (a slight
        shrinking of) ``B``.  When omitted, a box is derived from the drawn
        coresets, padded by ``AUTO_BOX_PAD`` of the span per axis.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.synopsis import ExactSynopsis
    >>> rng = np.random.default_rng(1)
    >>> data = [rng.uniform(0, 1, size=(400, 1)) for _ in range(6)]
    >>> idx = PtileRangeIndex([ExactSynopsis(p) for p in data], eps=0.1, rng=rng)
    >>> res = idx.query(Rectangle([0.0], [0.5]), Interval(0.3, 0.7))
    >>> len(res.indexes) == 6   # uniform data: every dataset has mass ~0.5
    True
    """

    def __init__(
        self,
        synopses: Iterable[Synopsis],
        eps: float = 0.1,
        phi: Optional[float] = None,
        delta: Optional[float] = None,
        sample_size: Optional[int] = None,
        bounding_box: Optional[Rectangle] = None,
        engine: str = "kd",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(synopses, eps, phi, delta, sample_size, engine, rng)
        # Draw all coresets first: the automatic bounding box must cover
        # every coreset point before pair enumeration can begin.
        keys = self._register_pending()
        self.bounding_box = (
            bounding_box
            if bounding_box is not None
            else self._auto_bounding_box()
        )
        if (self.bounding_box.lo == self.bounding_box.hi).any():
            raise ConstructionError(
                "no generalized pairs could be enumerated (is the bounding "
                "box degenerate on some axis?); widen the box or the data"
            )
        self._tree = build_engine(
            self._mapped(keys, *self._stacked(keys)), self.engine_kind
        )

    # ------------------------------------------------------------------
    # Construction (Algorithm 3)
    # ------------------------------------------------------------------
    def _auto_bounding_box(self) -> Rectangle:
        pts = np.vstack(list(self._coresets.values()))
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        return Rectangle(lo - AUTO_BOX_PAD * span, hi + AUTO_BOX_PAD * span)

    def _mapped(
        self, keys: Sequence[int], coresets: np.ndarray, deltas: np.ndarray
    ) -> Iterator[tuple[list, list, np.ndarray]]:
        """Map maximal pairs to ``(rho^-, rho_hat^-, rho^+, rho_hat^+, w±delta)``.

        The datasets ``keys`` (their ``(K, s, d)`` coreset stack and
        deltas) are enumerated a block at a time: their rows, in key order,
        are cut into pieces of one block budget (:func:`_row_ranges`), and
        each piece is one
        :func:`~repro.geometry.rect_enum.generalized_pairs_arrays` call over
        the datasets it touches — many small datasets, or part of a large
        one, coded by its axis levels and :func:`_weight_levels`.  Every
        coreset is checked against the box, and the pair-count guard
        applied to each, before the first row is enumerated.
        """
        inside = self.bounding_box.contains_points(coresets.reshape(-1, self.dim))
        inside = inside.reshape(len(keys), -1).all(axis=1)
        if not inside.all():
            raise ConstructionError(
                "bounding box does not contain the coreset of dataset "
                f"{keys[int(np.argmin(inside))]}; pass a larger box"
            )
        counts = _row_counts(coresets, self.bounding_box, True)
        which, ((plus, up), (minus, down)) = _weight_levels(coresets.shape[1], deltas)
        keys = np.asarray(keys)
        for datasets, rows, owner, _ in _row_ranges(counts, 4 * self.dim + 2):
            codes, tables, inside = generalized_pairs_arrays(
                coresets[datasets], self.bounding_box, rows
            )
            shift = which[owner]
            coords = codes[[0, 2, 1, 3]].reshape(-1, owner.size)  # -> mapped order
            columns = [*coords, up[inside, shift], down[inside, shift]]
            yield columns, [*(tables * 4), plus, minus], keys[owner]

    # ------------------------------------------------------------------
    # Query (Algorithm 4)
    # ------------------------------------------------------------------
    def _clip_to_box(self, rect: Rectangle) -> Rectangle:
        """Clip the query to (slightly inside) the bounding box ``B``.

        Section 4.3 assumes ``R ⊆ B``; clipping discards only regions where
        no coreset point can lie.  Shrinking by a hair keeps ``R`` strictly
        inside ``B`` so Lemma 4.6's facet expansion always has room.
        """
        span = self.bounding_box.hi - self.bounding_box.lo
        nudge = 1e-9 * np.where(span > 0, span, 1.0)
        lo = np.maximum(rect.lo, self.bounding_box.lo + nudge)
        hi = np.minimum(rect.hi, self.bounding_box.hi - nudge)
        hi = np.maximum(hi, lo)  # degenerate but valid if fully outside
        return Rectangle(lo, hi)

    def _query_box(self, rect: Rectangle, theta: Interval) -> QueryBox:
        """Validate one ``(R, theta)`` query and build its Algorithm-4 box."""
        self._check_query_rect(rect)
        a = max(0.0, theta.lo)
        b = min(1.0, theta.hi)
        if a > b:
            raise QueryError(f"theta {theta} does not intersect [0, 1]")
        rect = self._clip_to_box(rect)
        cons = rect.query_orthant_4d()
        eps = self.eps_effective
        cons.append((a - eps, np.inf, False, False))   # w + delta_i
        cons.append((-np.inf, b + eps, False, False))  # w - delta_i
        return QueryBox(cons)

    def query(
        self,
        rect: Rectangle,
        theta: Interval,
        record_times: bool = False,
    ) -> QueryResult:
        """Report all datasets with (approximately) ``M_R(P_i) ∈ theta``."""
        box = self._query_box(rect, theta)
        return _report(self._tree, box, record_times, self.n_datasets)

    def query_many(
        self, queries: Sequence[tuple[Rectangle, Interval]]
    ) -> list[np.ndarray]:
        """Answer a batch of ``(rect, theta)`` queries in one backend call.

        The batched, untimed form of :meth:`query`: all boxes go through
        the backend's multi-box kernel (the shared kd traversal) at once.
        Each answer is the backend's strictly ascending integer key array,
        whose members are the per-query loop's answer set.  This is what
        the service's cold path feeds each shard's deduplicated leaf
        schedule through.

        The boxes and their float :class:`~repro.index.query_box.BoxBatch`
        are built here, by :meth:`_PtileQueries.boxes` — unless ``queries``
        is a :class:`_PtileQueries` that another index in the same frame
        has already answered, whose batch is reused as it is.  A sharded
        batch is one: its first unit builds the boxes, and every unit only
        codes them against its own level tables.
        """
        if not queries:
            return []
        if not isinstance(queries, _PtileQueries):
            queries = _PtileQueries(queries)
        return self._tree.report_groups_many(queries.boxes(self))


class _PtileQueries(list):
    """A batch of ``(rect, theta)`` queries, with its Algorithm-4 boxes
    built once per frame.

    A query's box depends on the query and on the *frame* of the index
    answering it — the bounding box ``B`` it clips to and the
    ``eps_effective`` that widens ``theta`` — and on nothing the index
    holds.  Indexes of one frame therefore share one
    :class:`~repro.index.query_box.BoxBatch`: every unit of a sharded
    executor is pinned to the executor's box and ``eps_effective``, so one
    batch handed to each unit in turn is built by the first.  An index in
    another frame (its slack widened past the others') builds its own.
    """

    def __init__(self, queries: Iterable[tuple[Rectangle, Interval]]) -> None:
        super().__init__(queries)
        self._built: dict[tuple, BoxBatch] = {}

    def boxes(self, index: PtileRangeIndex) -> BoxBatch:
        """The boxes of these queries in ``index``'s frame (validated there
        by :meth:`PtileRangeIndex._query_box`), stacked as one batch."""
        box = index.bounding_box
        frame = (box.lo.tobytes(), box.hi.tobytes(), index.eps_effective)
        built = self._built.get(frame)
        if built is None:
            built = BoxBatch([index._query_box(rect, theta) for rect, theta in self])
            self._built[frame] = built
        return built
