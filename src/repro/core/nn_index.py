"""Distribution-aware nearest-neighbor indexing (Section 6 extension).

Section 6: *"For nearest neighbor queries: given a query point q and a
threshold tau, return all datasets P_j such that dist(q, P_j) <= tau."*
The paper identifies the missing ingredient as a small coreset with
nearest-neighbor guarantees and points to additive-error constructions
[26].  This module realizes the extension with r-covers
(:class:`~repro.synopsis.cover.CoverSynopsis`):

- Construction: the covers of all datasets are merged into one dynamic
  kd-tree, each point tagged with its dataset key.
- Query ``(q, tau)``: the datasets with a cover point in the L∞ box of
  half-width ``tau + max_j r_j`` around ``q`` are the candidates; each is
  reported iff its exact cover distance ``dist(q, C_j)`` (the minimum over
  *all* of ``C_j``) is at most ``tau + r_j``.  A cover point outside the
  box is farther than ``tau + max_j r_j >= tau + r_j``, so the box loses
  no answer.

Guarantees (with per-dataset cover radius ``r_j``):

- (recall)    if ``dist(q, P_j) <= tau`` then ``dist(q, C_j) <= tau + r_j``
  and ``j`` is reported;
- (precision) if ``j`` is reported then ``dist(q, C_j) <= tau + r_j``, so
  ``dist(q, P_j) <= tau + 2 r_j`` — the additive ``2r`` analogue of the
  Ptile/Pref ``eps + 2 delta`` slack.

Both are verified in ``tests/core/test_nn_index.py`` and measured by the
T-NN ablation benchmark.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.index.kd_tree import DynamicKDTree
from repro.index.query_box import QueryBox
from repro.synopsis.cover import CoverSynopsis


class NearestNeighborIndex:
    """Report all datasets within distance ``tau`` of a query point.

    Parameters
    ----------
    covers:
        One :class:`~repro.synopsis.cover.CoverSynopsis` per dataset.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(1)
    >>> near = rng.uniform(0.0, 0.2, size=(200, 2))
    >>> far = rng.uniform(0.8, 1.0, size=(200, 2))
    >>> idx = NearestNeighborIndex([CoverSynopsis(near, 0.05),
    ...                             CoverSynopsis(far, 0.05)])
    >>> idx.query(np.array([0.1, 0.1]), tau=0.2).index_set
    {0}
    """

    def __init__(self, covers: Iterable[CoverSynopsis]) -> None:
        self._covers: dict[int, CoverSynopsis] = {}
        self._next_key = 0
        cover_list = list(covers)
        if not cover_list:
            raise ConstructionError("need at least one cover synopsis")
        dims = {c.dim for c in cover_list}
        if len(dims) != 1:
            raise ConstructionError("all covers must share the same dimension")
        self.dim = dims.pop()
        keys = [self._admit(cov) for cov in cover_list]
        self._tree = DynamicKDTree(
            np.vstack([cov.cover_points for cov in cover_list]),
            ids=np.repeat(keys, [cov.size for cov in cover_list]),
        )

    def _admit(self, cov: CoverSynopsis) -> int:
        if cov.dim != self.dim:
            raise ConstructionError("cover dimension mismatch")
        key = self._next_key
        self._next_key += 1
        self._covers[key] = cov
        return key

    @property
    def n_datasets(self) -> int:
        """Number of indexed datasets."""
        return len(self._covers)

    @property
    def max_radius(self) -> float:
        """Largest per-dataset cover radius (drives the box prefilter)."""
        return max(c.radius for c in self._covers.values())

    def radius_of(self, key: int) -> float:
        """The cover radius ``r_j`` of a dataset."""
        return self._covers[key].radius

    # ------------------------------------------------------------------
    def query(
        self, point: np.ndarray, tau: float, record_times: bool = False
    ) -> QueryResult:
        """Report datasets with (approximately) ``dist(q, P_j) <= tau``,
        in ascending key order."""
        q = np.asarray(point, dtype=float)
        if q.shape != (self.dim,):
            raise QueryError(f"query point must have shape ({self.dim},)")
        if tau < 0.0:
            raise QueryError("tau must be non-negative")
        result = QueryResult()
        return _emit(result, self._within(q, tau, result.stats), record_times)

    def _within(self, q: np.ndarray, tau: float, stats: dict) -> Iterator[int]:
        reach = tau + self.max_radius
        candidates = self._tree.report_groups(QueryBox.closed(q - reach, q + reach))
        stats["candidates"] = len(candidates)
        for key in sorted(candidates):
            cover = self._covers[key]
            if cover.distance_to(q) <= tau + cover.radius:
                yield key

    # ------------------------------------------------------------------
    def insert_cover(self, cover: CoverSynopsis) -> int:
        """Add a dataset's cover; returns its stable key."""
        key = self._admit(cover)
        self._tree.insert(cover.cover_points, np.full(cover.size, key))
        return key

    def delete_cover(self, key: int) -> None:
        """Remove a dataset by key."""
        if key not in self._covers:
            raise KeyError(f"unknown dataset key {key}")
        self._tree.remove_group(key)
        del self._covers[key]
