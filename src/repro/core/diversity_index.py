"""Distribution-aware diversity indexing (Section 6 extension).

Section 6: *"For diversity queries: given a query rectangle R and a
threshold tau, return all datasets P_j such that div(P_j ∩ R) >= tau."*
We instantiate ``div`` as the **diameter** (max pairwise distance, the
classic remote-edge diversity of [33]) and use r-covers as the coreset.

Estimator: for dataset ``j`` with cover ``C_j ⊆ P_j`` of radius ``r_j``,

    est_j(R) = diam( C_j ∩ R^{+r_j} )

where ``R^{+r}`` expands every side of ``R`` by ``r``.  Sandwich bounds
(proved in the docstring of :meth:`DiversityIndex.query` and verified by
tests):

- ``est_j >= diam(P_j ∩ R) - 2 r_j`` — every diameter-realizing pair of
  ``P_j ∩ R`` has cover representatives within ``r_j``, which land inside
  ``R^{+r_j}``;
- ``est_j <= diam(P_j ∩ R^{+2 r_j})`` — cover points are data points, and
  points of ``R^{+r}`` are within ``r`` of ... themselves; the estimate can
  only pick up genuine data spread just outside ``R``.

So reporting ``est_j >= tau - 2 r_j`` gives full recall with respect to the
exact predicate and precision within the additive, boundary-blurred band —
the Section 6 flavour of the paper's ``eps + 2 delta`` slack.

Candidate generation reuses the merged cover kd-tree: only datasets with at
least one cover point in ``R^{+r}`` can have positive diameter, so the scan
is output-sensitive in the number of datasets *touching* the region rather
than ``N``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.geometry.rectangle import Rectangle
from repro.index.kd_tree import DynamicKDTree
from repro.index.query_box import QueryBox
from repro.synopsis.cover import CoverSynopsis


def diameter(points: np.ndarray) -> float:
    """Exact diameter of a (small) point set; 0 for fewer than two points."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return 0.0
    # O(m^2) pairwise distances; covers are small by construction.
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


class DiversityIndex:
    """Report datasets whose diameter inside a query rectangle is >= tau.

    Parameters
    ----------
    covers:
        One :class:`~repro.synopsis.cover.CoverSynopsis` per dataset.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(2)
    >>> spread = rng.uniform(0.0, 1.0, size=(300, 2))
    >>> tight = rng.uniform(0.45, 0.55, size=(300, 2))
    >>> idx = DiversityIndex([CoverSynopsis(spread, 0.05),
    ...                       CoverSynopsis(tight, 0.05)])
    >>> res = idx.query(Rectangle([0.0, 0.0], [1.0, 1.0]), tau=0.8)
    >>> res.index_set
    {0}
    """

    def __init__(self, covers: Iterable[CoverSynopsis]) -> None:
        self._covers: dict[int, CoverSynopsis] = {}
        cover_list = list(covers)
        if not cover_list:
            raise ConstructionError("need at least one cover synopsis")
        dims = {c.dim for c in cover_list}
        if len(dims) != 1:
            raise ConstructionError("all covers must share the same dimension")
        self.dim = dims.pop()
        for key, cov in enumerate(cover_list):
            if cov.dim != self.dim:
                raise ConstructionError("cover dimension mismatch")
            self._covers[key] = cov
        self._tree = DynamicKDTree(
            np.vstack([cov.cover_points for cov in cover_list]),
            ids=np.repeat(list(self._covers), [cov.size for cov in cover_list]),
        )

    @property
    def n_datasets(self) -> int:
        """Number of indexed datasets."""
        return len(self._covers)

    def estimate(self, key: int, rect: Rectangle) -> float:
        """``est_j(R) = diam(C_j ∩ R^{+r_j})`` for one dataset."""
        cov = self._covers[key]
        expanded = Rectangle(rect.lo - cov.radius, rect.hi + cov.radius)
        inside = cov.cover_points[expanded.contains_points(cov.cover_points)]
        return diameter(inside)

    def query(
        self, rect: Rectangle, tau: float, record_times: bool = False
    ) -> QueryResult:
        """Report datasets with (approximately) ``diam(P_j ∩ R) >= tau``.

        Guarantee: every dataset with exact diameter ``>= tau`` is
        reported; every reported dataset has
        ``diam(P_j ∩ R^{+2 r_j}) >= tau - 4 r_j`` (estimator sandwich plus
        the reporting slack ``2 r_j``).
        """
        if rect.dim != self.dim:
            raise QueryError("query rectangle dimension mismatch")
        if tau < 0.0:
            raise QueryError("tau must be non-negative")
        result = QueryResult()
        return _emit(result, self._diverse(rect, tau, result.stats), record_times)

    def _diverse(self, rect: Rectangle, tau: float, stats: dict) -> Iterator[int]:
        # Candidates: datasets with a cover point near R.
        max_r = max(c.radius for c in self._covers.values())
        box = QueryBox.closed(rect.lo - max_r, rect.hi + max_r)
        candidates = self._tree.report_groups_many([box])[0].tolist()
        stats["candidates"] = len(candidates)
        for key in candidates:
            r_j = self._covers[key].radius
            if self.estimate(key, rect) >= tau - 2.0 * r_j:
                yield key
