"""The naive exact baseline for Ptile queries (Section 4.1).

"For every dataset ``P_i`` construct a range tree to answer range counting
queries.  Given a query predicate the naive solution goes through each
dataset and computes ``|R ∩ P_i| / |P_i|``" — exact, but with Ω(N) query
time regardless of the output size.  This is the comparator for the
T-4.4/T-BASE benchmarks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.index.kd_tree import DynamicKDTree
from repro.index.query_box import QueryBox


class LinearScanPtile:
    """Exact Ptile answering by per-dataset range counting.

    Parameters
    ----------
    datasets:
        Raw ``(n_i, d)`` arrays.
    mode:
        ``"tree"`` — one kd-tree per dataset, count in ``O(polylog n_i)``
        per dataset (the paper's baseline); ``"numpy"`` — vectorized direct
        counting (no index; still Ω(total points) per query).

    Examples
    --------
    >>> import numpy as np
    >>> base = LinearScanPtile([np.array([[0.2], [0.8]]), np.array([[0.9]])])
    >>> base.query(Rectangle([0.0], [0.5]), Interval(0.4, 1.0)).indexes
    [0]
    """

    def __init__(self, datasets: Iterable[np.ndarray], mode: str = "tree") -> None:
        self._datasets = [np.asarray(d, dtype=float) for d in datasets]
        if not self._datasets:
            raise ConstructionError("need at least one dataset")
        dims = {d.shape[1] for d in self._datasets}
        if len(dims) != 1:
            raise ConstructionError("all datasets must share a dimension")
        self.dim = dims.pop()
        if mode not in ("tree", "numpy"):
            raise ConstructionError(f"unknown mode {mode!r}")
        self.mode = mode
        self._trees = (
            [DynamicKDTree(d) for d in self._datasets] if mode == "tree" else None
        )

    @property
    def n_datasets(self) -> int:
        """``N``."""
        return len(self._datasets)

    def mass(self, i: int, rect: Rectangle) -> float:
        """Exact ``M_R(P_i)``."""
        if self.mode == "tree":
            box = QueryBox.closed(rect.lo, rect.hi)
            count = self._trees[i].count(box)
        else:
            count = rect.count_inside(self._datasets[i])
        return count / self._datasets[i].shape[0]

    def query(
        self, rect: Rectangle, theta: Interval, record_times: bool = False
    ) -> QueryResult:
        """Exact ``q_Pi(P)`` for one range-predicate — Ω(N) time."""
        if rect.dim != self.dim:
            raise QueryError("query rectangle dimension mismatch")
        hits = (i for i in range(self.n_datasets) if self.mass(i, rect) in theta)
        return _emit(QueryResult(), hits, record_times)

    def query_conjunction(
        self,
        rects: Sequence[Rectangle],
        thetas: Sequence[Interval],
        record_times: bool = False,
    ) -> QueryResult:
        """Exact conjunction of m range-predicates — Ω(mN) time."""
        if len(rects) != len(thetas) or not rects:
            raise QueryError("need equally many rectangles and intervals")
        hits = (
            i
            for i in range(self.n_datasets)
            if all(self.mass(i, r) in t for r, t in zip(rects, thetas))
        )
        return _emit(QueryResult(), hits, record_times)
