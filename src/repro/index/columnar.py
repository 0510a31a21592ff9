"""Vectorized columnar range-search backend.

The kd-tree and range-tree engines pay Python-interpreter cost per visited
node; at the mapped-point counts the Ptile structures actually produce
(thousands to hundreds of thousands of points in ``R^{2d+1}`` /
``R^{4d+2}``), a single NumPy comparison over a contiguous column beats
any pure-Python tree walk by a wide margin.  ``ColumnarStore`` leans into
that trade:

- points live column-major in one ``(k, capacity)`` float matrix — every
  containment test reads whole columns, so each is one contiguous scan —
  with a dataset-key column in the smallest unsigned dtype its largest key
  needs (widened by the insert that brings a larger one) and boolean
  *active* / *dead* masks alongside; no per-point Python object exists;
- every query is one vectorized ``contains_points`` pass over the matrix —
  O(n k) work but at memory bandwidth, not interpreter speed — for a batch
  of boxes at once, a single box being its one-row batch;
- ``report_groups`` is that mask plus an integer ``np.unique`` over the
  group column — the bulk operation that collapses the paper's sequential
  ReportFirst/deactivate loop (Algorithms 2 and 4) into one pass — and
  the group-level toggles are one mask write each;
- ``insert`` appends into amortized-doubling capacity arrays;
  ``remove_group`` tombstones rows and compacts when tombstones exceed a
  quarter of the store — the same amortized-rebuilding budget the kd-tree
  uses.

The contract is :class:`~repro.index.backend.RangeSearchBackend`; the
cross-backend equivalence suite (``tests/index/test_backend_equivalence``)
checks this store against both trees on random orthant/activation
sequences.  The kd-tree also uses one as its side buffer.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.index.backend import id_column
from repro.index.query_box import BoxBatch, QueryBox

#: Compact the store when dead (removed) rows exceed this fraction...
COMPACT_FRACTION = 0.25
#: ... but never for fewer dead rows than this.
MIN_DEAD_FOR_COMPACT = 64


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
    >>> store.report(QueryBox.closed([0.5], [2.5]))
    [1, 2]
    >>> store.deactivate_group(1)
    1
    >>> store.report(QueryBox.closed([0.5], [2.5]))
    [2]
    """

    def __init__(self, points: np.ndarray, ids: Optional[Iterable] = None) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, k) array")
        n = pts.shape[0]
        group = id_column(ids, n)
        self._adopt(np.array(pts.T, order="C"), group, np.ones(n, dtype=bool))

    def _adopt(self, cols: np.ndarray, group: np.ndarray, active: np.ndarray) -> None:
        self.dim = int(cols.shape[0])
        self._cols = cols
        self._group = group
        self._active = active
        self._n = int(cols.shape[1])
        self._dead = np.zeros(self._n, dtype=bool)
        self._n_dead = 0

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ColumnarStore":
        """A store over its own :meth:`to_arrays` without copying them.

        ``points`` / ``group`` may be read-only maps of a snapshot file
        and are adopted as they are: queries only read them, and the store
        is exactly full, so the first ``insert`` (like every compaction)
        moves to fresh private arrays before writing.  Activity is the one
        flag queries toggle in place — private copy.  The ``local`` id
        column older snapshots carry is not read.

        The arrays come from outside the process, so what every query
        compares is checked here: ``points`` must be NaN-free float64
        columns (the box kernel assumes both), and ``group`` an unsigned
        column of at most 4 bytes or the signed ``int32`` one older files
        hold, every key in ``[0, 2^31)``; anything else is a
        ``ValueError``.  A key column wider than its keys need is narrowed
        (a private copy).
        """
        cols, group = arrays["points"], arrays["group"]
        active = np.array(arrays["active"], dtype=bool)
        if cols.ndim != 2 or not group.shape == active.shape == cols.shape[1:]:
            raise ValueError("backend arrays disagree on point count")
        if cols.dtype != np.float64 or np.isnan(cols).any():
            raise ValueError("stored points must be NaN-free float64 columns")
        if group.dtype.itemsize > 4:
            raise ValueError("a stored key column is at most 4 bytes wide")
        store = cls.__new__(cls)
        store._adopt(cols, id_column(group, group.size), active)
        return store

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Live rows as ``points`` ``(k, n)``, ``group``, ``active``.

        Views of the store where nothing was removed (rows are never
        rewritten in place); ``active`` is always a copy.
        """
        cols = self._cols[:, : self._n]
        return {
            "points": cols[:, ~self._dead[: self._n]] if self._n_dead else cols,
            "group": self._live(self._group),
            "active": self._live(self._active).copy(),
        }

    def _live(self, column: np.ndarray) -> np.ndarray:
        """The non-removed rows of one key/flag column (a view if none are)."""
        column = column[: self._n]
        return column[~self._dead[: self._n]] if self._n_dead else column

    @property
    def _pts(self) -> np.ndarray:
        """The stored rows as an ``(n, k)`` (column-major) view."""
        return self._cols[:, : self._n].T

    def __len__(self) -> int:
        return self._n - self._n_dead

    @property
    def nbytes(self) -> int:
        """Bytes held in arrays (spare append capacity included)."""
        own = (self._cols, self._group, self._active, self._dead)
        return sum(a.nbytes for a in own)

    # ------------------------------------------------------------------
    # Activation and dynamics
    # ------------------------------------------------------------------
    def _group_rows(self, group: int) -> np.ndarray:
        """Mask of the live rows of one group."""
        n = self._n
        return (self._group[:n] == group) & ~self._dead[:n]

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
        if m == 0:  # an adopted store is read-only until it grows
            return
        key_dtype = np.promote_types(self._group.dtype, group.dtype)
        if n + m > self._cols.shape[1]:
            self._grow(max(n + m, 2 * self._cols.shape[1]), key_dtype)
        elif key_dtype != self._group.dtype:  # a key past the column's dtype
            self._group = self._group.astype(key_dtype)
        self._cols[:, n : n + m] = pts.T
        self._group[n : n + m] = group
        self._active[n : n + m] = True
        self._dead[n : n + m] = False
        self._n += m

    def _grow(self, cap: int, key_dtype: np.dtype) -> None:
        n = self._n
        cols = np.empty((self.dim, cap))
        cols[:, :n] = self._cols[:, :n]
        self._cols = cols
        for name, dtype in (("_group", key_dtype), ("_active", bool), ("_dead", bool)):
            new = np.zeros(cap, dtype=dtype)
            new[:n] = getattr(self, name)[:n]
            setattr(self, name, new)

    def _bury(self, rows, count: int) -> None:
        """Tombstone ``count`` live rows (an index or a mask); compact once
        enough of the store is dead (which re-narrows the key column)."""
        self._active[: self._n][rows] = False
        self._dead[: self._n][rows] = True
        self._n_dead += count
        if self._n_dead >= max(
            MIN_DEAD_FOR_COMPACT, int(COMPACT_FRACTION * self._n)
        ):
            live = self.to_arrays()
            group = live["group"]
            self._adopt(
                np.ascontiguousarray(live["points"]), id_column(group, group.size),
                live["active"],
            )

    def remove_group(self, group: int) -> int:
        """Permanently remove every point of ``group`` (tombstones +
        amortized compaction); returns how many."""
        rows = self._group_rows(group)
        removed = int(np.count_nonzero(rows))
        self._bury(rows, removed)
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
        not here.  Dead (removed) rows need no extra filter: ``_bury``
        always forces ``_active`` False and ``_group_rows`` skips dead
        rows, so a tombstoned row can never be re-activated.
        """
        if batch.dim != self.dim:
            raise ValueError(
                f"query box has dim {batch.dim}, store has dim {self.dim}"
            )
        out = batch.contains_points(self._pts)
        out &= self._active[: self._n][None, :]
        return out

    def report(self, box: QueryBox) -> list:
        """The keys of the active points inside the box, one per point."""
        return self._group[: self._n][self._match_matrix(box.batch)[0]].tolist()

    def report_first(self, box: QueryBox):
        """The key of one arbitrary active point inside the box, or None."""
        hits = np.flatnonzero(self._match_matrix(box.batch)[0])
        if hits.size == 0:
            return None
        return int(self._group[hits[0]])

    def report_groups(self, box: QueryBox) -> set:
        """All groups with >= 1 active point in the box (one group-by)."""
        hit_groups = self._group[: self._n][self._match_matrix(box.batch)[0]]
        return set(np.unique(hit_groups).tolist())

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box."""
        return int(np.count_nonzero(self._match_matrix(box.batch)[0]))

    # ------------------------------------------------------------------
    # Multi-box batch kernels (one broadcast pass per constrained side)
    # ------------------------------------------------------------------
    def report_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box int arrays of the hit points' keys (one per point) —
        ``[report(b) for b in boxes]`` in one broadcast pass."""
        boxes = list(boxes)
        if not boxes:
            return []
        group = self._group[: self._n]
        return [group[row] for row in self._match_matrix(BoxBatch(boxes))]

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[set]:
        """Per-box group sets in one broadcast pass + per-box group-by."""
        return [
            set(np.unique(hit_groups).tolist())
            for hit_groups in self.report_many(boxes)
        ]
