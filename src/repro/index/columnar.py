"""kd's side buffer and the tests' float oracle: a column-major point store.

``ColumnarStore`` is not a registered engine (the serving backend is the
kd-tree, see :mod:`repro.index.backend`).  It has two jobs:

- the side buffer of :class:`~repro.index.kd_tree.DynamicKDTree`: an
  insert appends here in amortized O(1) per point, every query scans the
  buffer beside the main tree, and once it outgrows
  ``kd_tree.REBUILD_FRACTION`` of the tree the tree is replanted over both
  — the amortized rebuilding [Overmars 1983] behind the paper's
  dynamic-synopsis remark;
- the float oracle the coded-boundary tests compare the rank-coded
  kd-tree against: it keeps float64 coordinates, so no level table or rank
  stands between a bound and a point.

Layout: points column-major in one ``(k, capacity)`` float matrix, so every
containment test reads whole contiguous columns; a dataset-key column in
the smallest unsigned dtype its largest key needs (widened by the insert
that brings a larger one, narrowed again by the ``remove_group`` that drops
it); a boolean *active* mask.  No per-point Python object exists.  Every
query is one vectorized containment pass — O(n k) at memory bandwidth —
over a batch of boxes (``report_many``; ``report_first`` and ``count`` read
row 0 of a single box's one-row batch), and ``report_groups_many`` adds an
integer ``np.unique`` over each box's keys.  ``remove_group`` copies the
surviving rows down at once: the kd rule keeps the buffer under a quarter
of the main tree, whose half of the same removal already scans every row.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.index.backend import id_column
from repro.index.query_box import BoxBatch, QueryBox, _as_batch


class ColumnarStore:
    """Column-major point matrix with vectorized orthant queries.

    Parameters
    ----------
    points:
        ``(n, k)`` float array.
    ids:
        Optional integer dataset key of every point (default: positions);
        see :mod:`repro.index.backend` for the id convention.

    Examples
    --------
    >>> import numpy as np
    >>> store = ColumnarStore(np.array([[0.0], [1.0], [2.0]]))
    >>> box = QueryBox.closed([0.5], [2.5])
    >>> store.report_many([box])[0].tolist()
    [1, 2]
    >>> store.deactivate_group(1)
    1
    >>> store.report_many([box])[0].tolist()
    [2]
    """

    def __init__(self, points: np.ndarray, ids: Optional[Iterable] = None) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, k) array")
        n = pts.shape[0]
        self._adopt(np.array(pts.T, order="C"), id_column(ids, n), np.ones(n, dtype=bool))

    def _adopt(self, cols: np.ndarray, group: np.ndarray, active: np.ndarray) -> None:
        self.dim = int(cols.shape[0])
        self._cols = cols
        self._group = group
        self._active = active
        self._n = int(cols.shape[1])

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The stored rows as ``points`` ``(k, n)`` and ``group`` (views of
        the store) and ``active`` (a copy)."""
        n = self._n
        return {
            "points": self._cols[:, :n],
            "group": self._group[:n],
            "active": self._active[:n].copy(),
        }

    @property
    def _pts(self) -> np.ndarray:
        """The stored rows as an ``(n, k)`` (column-major) view."""
        return self._cols[:, : self._n].T

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        """Bytes held in arrays (spare append capacity included)."""
        return self._cols.nbytes + self._group.nbytes + self._active.nbytes

    # ------------------------------------------------------------------
    # Activation and dynamics
    # ------------------------------------------------------------------
    def _group_rows(self, group: int) -> np.ndarray:
        """Mask of the rows of one group."""
        return self._group[: self._n] == group

    def deactivate_group(self, group: int) -> int:
        """Hide every active point of ``group`` (one mask write)."""
        rows = self._group_rows(group) & self._active[: self._n]
        self._active[: self._n][rows] = False
        return int(np.count_nonzero(rows))

    def activate_group(self, group: int) -> int:
        """Re-show every hidden point of ``group`` (one mask write)."""
        rows = self._group_rows(group) & ~self._active[: self._n]
        self._active[: self._n][rows] = True
        return int(np.count_nonzero(rows))

    def insert(self, points: np.ndarray, ids: Iterable) -> None:
        """Append new points in amortized O(1) per point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        group = id_column(ids, pts.shape[0])
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        n, m = self._n, pts.shape[0]
        key_dtype = np.promote_types(self._group.dtype, group.dtype)
        if n + m > self._cols.shape[1]:
            self._grow(max(n + m, 2 * self._cols.shape[1]), key_dtype)
        elif key_dtype != self._group.dtype:  # a key past the column's dtype
            self._group = self._group.astype(key_dtype)
        self._cols[:, n : n + m] = pts.T
        self._group[n : n + m] = group
        self._active[n : n + m] = True
        self._n += m

    def _grow(self, cap: int, key_dtype: np.dtype) -> None:
        n = self._n
        cols = np.empty((self.dim, cap))
        cols[:, :n] = self._cols[:, :n]
        self._cols = cols
        for name, dtype in (("_group", key_dtype), ("_active", bool)):
            new = np.zeros(cap, dtype=dtype)
            new[:n] = getattr(self, name)[:n]
            setattr(self, name, new)

    def remove_group(self, group: int) -> int:
        """Permanently remove every point of ``group``, hidden ones too;
        returns how many.  The surviving rows are copied down in order and
        the key column is re-narrowed to their largest key."""
        rows = self._group_rows(group)
        removed = int(np.count_nonzero(rows))
        if removed:
            keep, n = ~rows, self._n
            survivors = self._group[:n][keep]
            self._adopt(
                np.ascontiguousarray(self._cols[:, :n][:, keep]),
                id_column(survivors, survivors.size),
                self._active[:n][keep],
            )
        return removed

    # ------------------------------------------------------------------
    # Queries (one vectorized pass each)
    # ------------------------------------------------------------------
    def _match_matrix(self, batch: BoxBatch) -> np.ndarray:
        """``(Q, n)`` boolean matrix: active rows inside each box.

        One ``(Q, n)`` comparison per constrained side, amortizing the
        per-query NumPy dispatch overhead across the whole batch; a
        single-box query reads row 0 of its box's one-row batch.  The
        open/closed endpoint semantics live in :mod:`repro.index.query_box`,
        not here.
        """
        if batch.dim != self.dim:
            raise ValueError(
                f"query box has dim {batch.dim}, store has dim {self.dim}"
            )
        out = batch.contains_points(self._pts)
        out &= self._active[: self._n][None, :]
        return out

    def report_first(self, box: QueryBox):
        """The key of one arbitrary active point inside the box, or None."""
        hits = np.flatnonzero(self._match_matrix(box.batch)[0])
        if hits.size == 0:
            return None
        return int(self._group[hits[0]])

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box."""
        return int(np.count_nonzero(self._match_matrix(box.batch)[0]))

    # ------------------------------------------------------------------
    # Multi-box batch kernels (one broadcast pass per constrained side)
    # ------------------------------------------------------------------
    def report_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box int arrays of the hit points' keys (one per point), in
        one broadcast pass."""
        if not len(boxes):
            return []
        group = self._group[: self._n]
        return [group[row] for row in self._match_matrix(_as_batch(boxes))]

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box sorted unique key arrays in one broadcast pass +
        per-box group-by."""
        return [np.unique(hit_groups) for hit_groups in self.report_many(boxes)]
