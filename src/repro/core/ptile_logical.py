"""Ptile index for logical expressions of m range-predicates (App. C.4).

Theorem C.8 extends the range structure to conjunctions (and disjunctions)
of ``m = O(1)`` range-predicates by mapping *m-tuples* of maximal pairs to
points in ``R^{4md}`` carrying ``m`` weights.  Two strategies are provided:

- ``"tensor"`` — the paper's construction verbatim: per dataset, every
  m-tuple of maximal pairs becomes one mapped point (``O(s^{2dm})`` points
  per dataset); a conjunctive query concatenates the m orthants and the m
  weight intervals and runs the usual ReportFirst/delete loop.  Faithful and
  output-sensitive, but exponential in ``m`` — intended for small coresets
  (it is cross-validated against the composed strategy in the tests).
- ``"compose"`` (default) — evaluate each predicate with the single-
  predicate range structure and combine index sets (intersection for
  conjunction, union for disjunction).  This preserves both Theorem C.8
  guarantees — recall (each leaf's output is a superset of its exact set)
  and per-leaf precision (every survivor passed every leaf's filter) — at
  the cost of intermediate outputs possibly exceeding the final ``OUT``
  (the paper builds the tensor exactly to avoid this).

Arbitrary and/or trees are supported by recursive set combination; the
tensor fast path handles pure conjunctions.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.measures import PercentileMeasure
from repro.core.predicates import And, Expression, Or, Predicate
from repro.core.ptile_range import PtileRangeIndex
from repro.core.results import QueryResult
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rect_enum import (
    _pair_counts,
    _product_option_indices,
    generalized_pairs_arrays,
)
from repro.geometry.rectangle import Rectangle
from repro.index.backend import build_engine
from repro.index.kd_tree import DynamicKDTree
from repro.index.query_box import QueryBox
from repro.synopsis.base import Synopsis

#: Refuse tensor constructions beyond this many mapped points.
MAX_TENSOR_POINTS = 1_000_000


class PtileLogicalIndex:
    """Ptile structure for logical expressions over range-predicates.

    Parameters
    ----------
    synopses, eps, phi, delta, sample_size, bounding_box, rng:
        As in :class:`~repro.core.ptile_range.PtileRangeIndex` (a range
        index over the same coresets backs the composed strategy).
    strategy:
        ``"compose"`` (default) or ``"tensor"`` — see module docstring.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.predicates import pred
    >>> from repro.synopsis import ExactSynopsis
    >>> rng = np.random.default_rng(3)
    >>> data = [rng.uniform(0, 1, size=(300, 1)) for _ in range(5)]
    >>> idx = PtileLogicalIndex([ExactSynopsis(p) for p in data], eps=0.1, rng=rng)
    >>> expr = (pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.3, 0.7)
    ...         & pred(PercentileMeasure(Rectangle([0.5], [1.0])), 0.3, 0.7))
    >>> len(idx.query(expr).indexes)
    5
    """

    def __init__(
        self,
        synopses: Iterable[Synopsis],
        eps: float = 0.1,
        phi: Optional[float] = None,
        delta: Optional[float] = None,
        sample_size: Optional[int] = None,
        bounding_box: Optional[Rectangle] = None,
        strategy: str = "compose",
        engine: str = "kd",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if strategy not in ("compose", "tensor"):
            raise ConstructionError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self._range_index = PtileRangeIndex(
            synopses,
            eps=eps,
            phi=phi,
            delta=delta,
            sample_size=sample_size,
            bounding_box=bounding_box,
            engine=engine,
            rng=rng,
        )
        self.eps = self._range_index.eps
        self.eps_effective = self._range_index.eps_effective
        self.dim = self._range_index.dim
        self.engine_kind = self._range_index.engine_kind
        # Tensor structures are built lazily, keyed by m.
        self._tensor_trees: dict[int, DynamicKDTree] = {}

    @property
    def n_datasets(self) -> int:
        """Number of indexed datasets."""
        return self._range_index.n_datasets

    # ------------------------------------------------------------------
    # Expression interface (compose strategy + and/or recursion)
    # ------------------------------------------------------------------
    def query(self, expression: Expression, record_times: bool = False) -> QueryResult:
        """Evaluate an arbitrary and/or expression over percentile predicates."""
        result = QueryResult()
        if record_times:
            result.start_time = time.perf_counter()
        if self.strategy == "tensor" and _is_pure_conjunction(expression):
            leaves = list(expression.leaves())
            rects = [_leaf_rect(leaf) for leaf in leaves]
            thetas = [leaf.theta for leaf in leaves]
            inner = self.query_conjunction_tensor(rects, thetas)
            result.indexes = inner.indexes
            result.stats = inner.stats
        else:
            result.indexes = sorted(self._eval(expression))
        if record_times:
            result.end_time = time.perf_counter()
            result.emit_times = [result.end_time] * len(result.indexes)
        return result

    def _eval(self, expression: Expression) -> set[int]:
        if isinstance(expression, Predicate):
            rect = _leaf_rect(expression)
            return self._range_index.query(rect, expression.theta).index_set
        if isinstance(expression, And):
            sets = [self._eval(c) for c in expression.children]
            return set.intersection(*sets)
        if isinstance(expression, Or):
            sets = [self._eval(c) for c in expression.children]
            return set.union(*sets)
        raise QueryError(f"unsupported expression node {type(expression).__name__}")

    # ------------------------------------------------------------------
    # Tensor strategy (the paper's Appendix C.4 construction)
    # ------------------------------------------------------------------
    def _build_tensor(self, m: int) -> None:
        """Materialize the m-fold tensor structure over maximal pairs.

        Vectorized: every dataset's pair family comes from one block
        enumeration of the coreset stack, split into per-dataset ``(P, 4d)``
        coordinate matrices (plus weights), and the ``P^m`` tensor rows are
        assembled with stride-indexed block writes — same row order and
        float values as the old per-combination ``itertools.product`` /
        ``np.concatenate`` loop, at NumPy speed.  The size is refused from
        the pair counts, before anything is enumerated.
        """
        ri = self._range_index
        keys = ri.keys
        coresets = np.stack([ri.coreset(key) for key in keys])
        counts = _pair_counts(coresets, ri.bounding_box)
        total = sum(int(p) ** m for p in counts)
        if total > MAX_TENSOR_POINTS:
            raise ConstructionError(
                f"tensor construction for m={m} needs {total} mapped points "
                f"(> {MAX_TENSOR_POINTS}); reduce sample_size or use compose"
            )
        in_lo, in_hi, out_lo, out_hi, weights = generalized_pairs_arrays(
            coresets, ri.bounding_box, None
        )
        cuts = np.cumsum(counts)[:-1]
        coords = np.split(np.hstack([in_lo, out_lo, in_hi, out_hi]), cuts)
        d4 = 4 * ri.dim

        def tensor_rows(key: int, coords: np.ndarray, weights: np.ndarray):
            p = coords.shape[0]
            n_combo = p ** m
            delta_i = ri.delta_of(key)
            block = np.empty((n_combo, m * d4 + 2 * m))
            if n_combo:
                # Per-slot pick columns in itertools.product order (last
                # slot fastest) — shared with the pair enumerators.
                picks = _product_option_indices([p] * m, np.arange(n_combo))
                for slot, pick in enumerate(picks):
                    block[:, slot * d4 : (slot + 1) * d4] = coords[pick]
                    block[:, m * d4 + slot] = weights[pick] + delta_i
                    block[:, m * d4 + m + slot] = weights[pick] - delta_i
            return block, np.full(n_combo, key)

        self._tensor_trees[m] = build_engine(
            map(tensor_rows, keys, coords, np.split(weights, cuts)),
            self.engine_kind,
        )

    def query_conjunction_tensor(
        self,
        rects: Sequence[Rectangle],
        thetas: Sequence[Interval],
        record_times: bool = False,
    ) -> QueryResult:
        """Answer an m-conjunction with the faithful tensor structure."""
        if len(rects) != len(thetas) or not rects:
            raise QueryError("need equally many rectangles and intervals (>= 1)")
        m = len(rects)
        if m not in self._tensor_trees:
            self._build_tensor(m)
        tree = self._tensor_trees[m]
        cons: list[tuple[float, float, bool, bool]] = []
        for rect in rects:
            clipped = self._range_index._clip_to_box(rect)
            cons.extend(clipped.query_orthant_4d())
        eps = self.eps_effective
        for theta in thetas:
            a = max(0.0, theta.lo)
            cons.append((a - eps, math.inf, False, False))   # w_l + delta_i
        for theta in thetas:
            b = min(1.0, theta.hi)
            cons.append((-math.inf, b + eps, False, False))  # w_l - delta_i
        box = QueryBox(cons)
        result = QueryResult()
        if not record_times:
            # Batched form of the report loop: one report_groups bulk pass
            # (identical answer set; see _ptile_common._report_loop).
            result.indexes = sorted(tree.report_groups(box))
            return result
        result.start_time = time.perf_counter()
        reported: list[int] = []
        guard = self.n_datasets + 1
        while True:
            key = tree.report_first(box)
            if key is None:
                break
            reported.append(key)
            result.indexes.append(key)
            result.emit_times.append(time.perf_counter())
            tree.deactivate_group(key)
            guard -= 1
            if guard < 0:  # pragma: no cover - safety net
                raise QueryError("tensor report loop exceeded dataset count")
        for key in reported:
            tree.activate_group(key)
        result.end_time = time.perf_counter()
        return result


def _is_pure_conjunction(expression: Expression) -> bool:
    if isinstance(expression, Predicate):
        return True
    if isinstance(expression, And):
        return all(isinstance(c, Predicate) for c in expression.children)
    return False


def _leaf_rect(leaf: Predicate) -> Rectangle:
    if not isinstance(leaf.measure, PercentileMeasure):
        raise QueryError(
            "PtileLogicalIndex handles percentile predicates only; route "
            "preference predicates to PrefLogicalIndex (see DatasetSearchEngine)"
        )
    return leaf.measure.rect
