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
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core._ptile_common import _report, _row_ranges, _weight_levels
from repro.core.measures import PercentileMeasure
from repro.core.predicates import And, Expression, Or, Predicate
from repro.core.ptile_range import PtileRangeIndex
from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rect_enum import _row_counts, generalized_pairs_arrays
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
        """Evaluate an arbitrary and/or expression over percentile predicates.

        With ``record_times`` the tensor strategy stamps each report of its
        ReportFirst loop, in emission order; the composed answer exists
        only once its set algebra is done, so the first gap is the query
        and the rest are the cost of handing indexes out.
        """
        if self.strategy == "tensor" and _is_pure_conjunction(expression):
            leaves = list(expression.leaves())
            rects = [_leaf_rect(leaf) for leaf in leaves]
            thetas = [leaf.theta for leaf in leaves]
            return self.query_conjunction_tensor(rects, thetas, record_times)
        return _emit(QueryResult(), self._composed(expression), record_times)

    def _composed(self, expression: Expression) -> Iterator[int]:
        yield from sorted(self._eval(expression))

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
        enumeration of the coreset stack, and the ``P^m`` tensor rows of
        each dataset are cut into pieces of one block budget
        (:func:`_row_ranges`, as the range builder cuts its pairs).  A
        row's position in its dataset's product picks one pair per slot by
        stride arithmetic (last slot fastest) — same row order and decoded
        values as a per-combination ``itertools.product`` /
        ``np.concatenate`` loop, at NumPy speed, coded as the range
        builder codes its pieces.  The size is refused from the pair
        counts, before anything is enumerated.
        """
        ri = self._range_index
        keys = ri.keys
        coresets, deltas = ri._stacked(keys)
        pairs = _row_counts(coresets, ri.bounding_box, True)
        total = sum(int(p) ** m for p in pairs)
        if total > MAX_TENSOR_POINTS:
            raise ConstructionError(
                f"tensor construction for m={m} needs {total} mapped points "
                f"(> {MAX_TENSOR_POINTS}); reduce sample_size or use compose"
            )
        codes, tables, inside = generalized_pairs_arrays(
            coresets, ri.bounding_box, None
        )
        coords = codes[[0, 2, 1, 3]].reshape(-1, codes.shape[2])  # as range rows
        which, ((plus, up), (minus, down)) = _weight_levels(coresets.shape[1], deltas)
        begin = np.cumsum(pairs) - pairs
        keys = np.asarray(keys)

        def tensor_rows():
            for _, _, owner, position in _row_ranges(pairs**m, m * (4 * ri.dim + 2)):
                shift = which[owner]
                columns, ups, downs = [], [], []
                for slot in range(m):
                    stride = pairs[owner] ** (m - 1 - slot)
                    row = begin[owner] + position // stride % pairs[owner]
                    columns.extend(coords[:, row])
                    ups.append(up[inside[row], shift])
                    downs.append(down[inside[row], shift])
                levels = tables * 4 * m + [plus] * m + [minus] * m
                yield columns + ups + downs, levels, keys[owner]

        self._tensor_trees[m] = build_engine(tensor_rows(), self.engine_kind)

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
        return _report(tree, QueryBox(cons), record_times, self.n_datasets)


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
