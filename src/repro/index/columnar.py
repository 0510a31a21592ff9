"""Vectorized columnar range-search backend.

The kd-tree and range-tree engines pay Python-interpreter cost per visited
node; at the mapped-point counts the Ptile structures actually produce
(thousands to hundreds of thousands of points in ``R^{2d+1}`` /
``R^{4d+2}``), a single NumPy comparison over a contiguous ``(n, k)``
matrix beats any pure-Python tree walk by a wide margin.  ``ColumnarStore``
leans into that trade:

- points live in one contiguous float matrix, with a boolean *active* mask
  alongside (activation toggles are O(1) flag flips);
- every query is one vectorized ``QueryBox.contains_points`` pass over the
  matrix — O(n k) work but at memory bandwidth, not interpreter speed;
- ``report_groups`` additionally stores a per-row *group code* (dataset
  key, dictionary-encoded to int64), so "all datasets with >= 1 active
  point in the box" is a single boolean mask plus ``np.unique`` group-by —
  the bulk operation that collapses the paper's sequential
  ReportFirst/deactivate loop (Algorithms 2 and 4) into one pass;
- ``insert`` appends into amortized-doubling capacity arrays; ``remove``
  tombstones a row and compacts when tombstones exceed a quarter of the
  store — the same amortized-rebuilding budget the kd-tree uses.

The contract is :class:`~repro.index.backend.RangeSearchBackend`; the
cross-backend equivalence suite (``tests/index/test_backend_equivalence``)
checks this store against both trees on random orthant/activation
sequences.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.index.backend import group_of, object_array
from repro.index.query_box import BoxBatch, QueryBox

#: Compact the store when dead (removed) rows exceed this fraction...
COMPACT_FRACTION = 0.25
#: ... but never for fewer dead rows than this.
MIN_DEAD_FOR_COMPACT = 64


class ColumnarStore:
    """Contiguous ``(n, k)`` point matrix with vectorized orthant queries.

    Parameters
    ----------
    points:
        ``(n, k)`` float array.
    ids:
        Optional unique hashable identifiers (default: positions).
        ``(key, local)`` tuples group by ``key`` in :meth:`report_groups`.

    Examples
    --------
    >>> import numpy as np
    >>> store = ColumnarStore(np.array([[0.0], [1.0], [2.0]]))
    >>> store.report(QueryBox.closed([0.5], [2.5]))
    [1, 2]
    >>> store.deactivate(1)
    >>> store.report(QueryBox.closed([0.5], [2.5]))
    [2]
    """

    def __init__(self, points: np.ndarray, ids: Optional[Iterable] = None) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, k) array")
        self.dim = int(pts.shape[1])
        id_list = list(ids) if ids is not None else list(range(pts.shape[0]))
        if len(id_list) != pts.shape[0]:
            raise ValueError("points and ids must have equal length")
        n = pts.shape[0]
        self._pts = pts.copy()
        self._lazy_ids_i64: Optional[np.ndarray] = None
        self._ids_store: Optional[np.ndarray] = None
        self._pos_store: Optional[dict] = None
        self._ids = object_array(id_list)
        self._active = np.ones(n, dtype=bool)
        self._dead = np.zeros(n, dtype=bool)
        self._n = n
        self._n_active_count = n
        self._n_dead = 0
        self._pos_of_id = {pid: pos for pos, pid in enumerate(id_list)}
        if len(self._pos_of_id) != n:
            raise ValueError("ids must be unique")
        self._group_code: dict = {}
        self._group_keys: list = []
        self._groups = np.empty(n, dtype=np.int64)
        for pos, pid in enumerate(id_list):
            self._groups[pos] = self._code_for(group_of(pid))

    @classmethod
    def _from_snapshot(
        cls, pts: np.ndarray, ids_i64: np.ndarray, active: np.ndarray
    ) -> "ColumnarStore":
        """Rebuild a store from snapshot arrays without copying the points.

        ``pts`` may be a read-only ``np.memmap`` view and is adopted as-is:
        the query path only reads it, and every mutation (``insert`` at
        full capacity, ``_compact``) copies before writing.  Ids arrive as
        an ``(n, 2)`` int64 matrix of ``(key, local)`` rows and stay in
        that form until a caller actually needs tuple ids or the
        ``_pos_of_id`` reverse map — the group-by warm path
        (``report_groups`` / ``count`` and their batch kernels) never
        does, so a loaded store serves it with zero per-point Python work.
        """
        pts = np.asarray(pts)
        n = int(pts.shape[0])
        if ids_i64.shape != (n, 2) or active.shape != (n,):
            raise ValueError("snapshot arrays disagree on point count")
        store = cls.__new__(cls)
        store.dim = int(pts.shape[1])
        store._pts = pts
        store._lazy_ids_i64 = np.asarray(ids_i64, dtype=np.int64)
        store._ids_store = None
        store._pos_store = None
        # Activity is the one flag queries toggle in place (deactivate /
        # activate, the paper's temporary deletions) — private copy.
        store._active = np.array(active, dtype=bool)
        store._dead = np.zeros(n, dtype=bool)
        store._n = n
        store._n_active_count = int(np.count_nonzero(store._active))
        store._n_dead = 0
        codes, groups = np.unique(store._lazy_ids_i64[:, 0], return_inverse=True)
        store._group_keys = [int(k) for k in codes]
        store._group_code = {k: c for c, k in enumerate(store._group_keys)}
        store._groups = groups.astype(np.int64, copy=False)
        return store

    def _materialize_ids(self) -> None:
        src = self._lazy_ids_i64
        assert src is not None, "only snapshot-loaded stores defer ids"
        id_list = [(int(a), int(b)) for a, b in src.tolist()]
        self._ids_store = object_array(id_list)
        self._pos_store = {pid: pos for pos, pid in enumerate(id_list)}

    @property
    def _ids(self) -> np.ndarray:
        if self._ids_store is None:
            self._materialize_ids()
        assert self._ids_store is not None
        return self._ids_store

    @_ids.setter
    def _ids(self, value: np.ndarray) -> None:
        self._ids_store = value

    @property
    def _pos_of_id(self) -> dict:
        if self._pos_store is None:
            self._materialize_ids()
        assert self._pos_store is not None
        return self._pos_store

    @_pos_of_id.setter
    def _pos_of_id(self, value: dict) -> None:
        self._pos_store = value

    def export_points(self) -> tuple[np.ndarray, list, np.ndarray]:
        """Live contents as ``(points, ids, active)`` parallel arrays."""
        n = self._n
        keep = ~self._dead[:n]
        return (
            self._pts[:n][keep].copy(),
            list(self._ids[:n][keep]),
            self._active[:n][keep].copy(),
        )

    def _code_for(self, key) -> int:
        code = self._group_code.get(key)
        if code is None:
            code = len(self._group_keys)
            self._group_code[key] = code
            self._group_keys.append(key)
        return code

    def __len__(self) -> int:
        return self._n - self._n_dead

    @property
    def n_active(self) -> int:
        """Number of points currently visible to queries."""
        return self._n_active_count

    @property
    def supports_insert(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Activation and dynamics
    # ------------------------------------------------------------------
    def deactivate(self, entry_id) -> None:
        """Hide a point from queries in O(1)."""
        pos = self._pos_of_id.get(entry_id)
        if pos is None:
            raise KeyError(f"unknown entry {entry_id!r}")
        if not self._active[pos]:
            raise KeyError(f"entry {entry_id!r} is already inactive")
        self._active[pos] = False
        self._n_active_count -= 1

    def activate(self, entry_id) -> None:
        """Re-show a previously deactivated point in O(1)."""
        pos = self._pos_of_id.get(entry_id)
        if pos is None:
            raise KeyError(f"unknown entry {entry_id!r}")
        if self._active[pos]:
            raise KeyError(f"entry {entry_id!r} is already active")
        self._active[pos] = True
        self._n_active_count += 1

    def insert(self, points: np.ndarray, ids: Iterable) -> None:
        """Append new points in amortized O(1) per point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        id_list = list(ids)
        if pts.shape[0] != len(id_list):
            raise ValueError("points and ids must have equal length")
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        for pid in id_list:
            if pid in self._pos_of_id:
                raise KeyError(f"duplicate entry id {pid!r}")
        need = self._n + len(id_list)
        if need > self._pts.shape[0]:
            cap = max(need, 2 * self._pts.shape[0])
            self._pts = np.resize(self._pts, (cap, self.dim))
            self._ids = np.resize(self._ids, cap)
            # np.resize repeats data to fill; re-blank the flag tails.
            active = np.zeros(cap, dtype=bool)
            active[: self._n] = self._active[: self._n]
            self._active = active
            dead = np.zeros(cap, dtype=bool)
            dead[: self._n] = self._dead[: self._n]
            self._dead = dead
            self._groups = np.resize(self._groups, cap)
        for row, pid in zip(pts, id_list):
            pos = self._n
            self._pts[pos] = row
            self._ids[pos] = pid
            self._active[pos] = True
            self._dead[pos] = False
            self._groups[pos] = self._code_for(group_of(pid))
            self._pos_of_id[pid] = pos
            self._n += 1
            self._n_active_count += 1

    def remove(self, entry_id) -> None:
        """Permanently remove a point (tombstone + amortized compaction)."""
        pos = self._pos_of_id.pop(entry_id, None)
        if pos is None:
            raise KeyError(f"unknown entry {entry_id!r}")
        if self._active[pos]:
            self._active[pos] = False
            self._n_active_count -= 1
        self._dead[pos] = True
        self._n_dead += 1
        if self._n_dead >= max(
            MIN_DEAD_FOR_COMPACT, int(COMPACT_FRACTION * self._n)
        ):
            self._compact()

    def _compact(self) -> None:
        keep = ~self._dead[: self._n]
        self._pts = self._pts[: self._n][keep].copy()
        self._ids = self._ids[: self._n][keep].copy()
        self._active = self._active[: self._n][keep].copy()
        self._groups = self._groups[: self._n][keep].copy()
        self._n = int(self._pts.shape[0])
        self._dead = np.zeros(self._n, dtype=bool)
        self._n_dead = 0
        self._pos_of_id = {pid: pos for pos, pid in enumerate(self._ids)}

    # ------------------------------------------------------------------
    # Queries (one vectorized pass each)
    # ------------------------------------------------------------------
    def _check_box(self, box: QueryBox) -> None:
        if box.dim != self.dim:
            raise ValueError(
                f"query box has dim {box.dim}, store has dim {self.dim}"
            )

    def _match_mask(self, box: QueryBox) -> np.ndarray:
        """Boolean row mask: active and inside the box.

        Dead (removed) rows need no extra filter here: ``remove`` always
        forces ``_active`` False and pops ``_pos_of_id``, so a tombstoned
        row can never be re-activated.
        """
        n = self._n
        mask = box.contains_points(self._pts[:n])
        mask &= self._active[:n]
        return mask

    def report(self, box: QueryBox) -> list:
        """All active point ids inside the box."""
        self._check_box(box)
        return self._ids[: self._n][self._match_mask(box)].tolist()

    def report_first(self, box: QueryBox):
        """One arbitrary active point id inside the box, or None."""
        self._check_box(box)
        hits = np.flatnonzero(self._match_mask(box))
        if hits.size == 0:
            return None
        return self._ids[int(hits[0])]

    def report_groups(self, box: QueryBox) -> set:
        """All group keys with >= 1 active point in the box (one group-by)."""
        self._check_box(box)
        codes = np.unique(self._groups[: self._n][self._match_mask(box)])
        return {self._group_keys[int(c)] for c in codes}

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box."""
        self._check_box(box)
        return int(np.count_nonzero(self._match_mask(box)))

    # ------------------------------------------------------------------
    # Multi-box batch kernels (one broadcast pass per constrained side)
    # ------------------------------------------------------------------
    def _match_matrix(self, boxes: Sequence[QueryBox]) -> np.ndarray:
        """``(Q, n)`` boolean matrix: active rows inside each box.

        One ``(Q, n)`` comparison per constrained side — the multi-box
        generalization of :meth:`_match_mask`, amortizing the per-query
        NumPy dispatch overhead across the whole batch.  The open/closed
        endpoint semantics live in
        :class:`~repro.index.query_box.BoxBatch`, not here.
        """
        for box in boxes:
            self._check_box(box)
        n = self._n
        out = BoxBatch(boxes).contains_points(self._pts[:n])
        out &= self._active[:n][None, :]
        return out

    def report_many(self, boxes: Sequence[QueryBox]) -> list[list]:
        """Per-box active id lists — ``[report(b) for b in boxes]`` in one
        broadcast pass."""
        boxes = list(boxes)
        if not boxes:
            return []
        ids = self._ids[: self._n]
        return [ids[row].tolist() for row in self._match_matrix(boxes)]

    def count_many(self, boxes: Sequence[QueryBox]) -> list[int]:
        """Per-box active point counts in one broadcast pass."""
        boxes = list(boxes)
        if not boxes:
            return []
        return [int(c) for c in self._match_matrix(boxes).sum(axis=1)]

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[set]:
        """Per-box group sets in one broadcast pass + per-box group-by."""
        boxes = list(boxes)
        if not boxes:
            return []
        groups = self._groups[: self._n]
        return [
            {self._group_keys[int(c)] for c in np.unique(groups[row])}
            for row in self._match_matrix(boxes)
        ]
