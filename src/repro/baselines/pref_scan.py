"""The naive exact baseline for Pref queries: per-dataset partial sort.

Given a query vector, compute ``omega_k(P_i, v)`` exactly for every dataset
by projecting and selecting the k-th largest value — exact, but Ω(total
points) per query regardless of output size.  Comparator for T-5.4.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError


class LinearScanPref:
    """Exact Pref answering by scanning all datasets.

    Examples
    --------
    >>> import numpy as np
    >>> base = LinearScanPref([np.array([[1.0, 0.0], [0.5, 0.5]])])
    >>> base.query(np.array([1.0, 0.0]), k=1, a_theta=0.9).indexes
    [0]
    """

    def __init__(self, datasets: Iterable[np.ndarray]) -> None:
        self._datasets = [np.asarray(d, dtype=float) for d in datasets]
        if not self._datasets:
            raise ConstructionError("need at least one dataset")
        dims = {d.shape[1] for d in self._datasets}
        if len(dims) != 1:
            raise ConstructionError("all datasets must share a dimension")
        self.dim = dims.pop()

    @property
    def n_datasets(self) -> int:
        """``N``."""
        return len(self._datasets)

    def score(self, i: int, vector: np.ndarray, k: int) -> float:
        """Exact ``omega_k(P_i, v)``; ``-inf`` when ``k > n_i``."""
        pts = self._datasets[i]
        if k > pts.shape[0]:
            return float("-inf")
        proj = pts @ vector
        return float(np.partition(proj, pts.shape[0] - k)[pts.shape[0] - k])

    def query(
        self,
        vector: np.ndarray,
        k: int,
        a_theta: float,
        record_times: bool = False,
    ) -> QueryResult:
        """Exact one-predicate Pref query — Ω(total points) time."""
        v = np.asarray(vector, dtype=float)
        if v.shape != (self.dim,):
            raise QueryError(f"vector must have shape ({self.dim},)")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise QueryError("vector must be nonzero")
        v = v / norm
        if k < 1:
            raise QueryError("k must be >= 1")
        hits = (i for i in range(self.n_datasets) if self.score(i, v, k) >= a_theta)
        return _emit(QueryResult(), hits, record_times)
