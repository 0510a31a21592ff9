"""Dynamic kd-tree with active counters — the general range-search engine.

This is the practical engine behind the mapped-space orthant queries of the
Ptile data structures (points live in ``R^{2d+1}`` / ``R^{4d+1}`` once the
weight is appended as a coordinate).  It implements the
:class:`~repro.index.backend.RangeSearchBackend` protocol:

- ``report(box)`` — all active points in an axis-parallel
  :class:`~repro.index.query_box.QueryBox`;
- ``report_first(box)`` — one arbitrary active point (``ReportFirst``),
  found by a pruned descent that skips subtrees with zero active points;
- ``report_groups(box)`` — all dataset keys with an active point in the
  box (derived from ``report``; the columnar backend specializes this);
- ``deactivate(id)`` / ``activate(id)`` — O(depth) activation toggles (the
  temporary deletions of Algorithms 2 and 4);
- ``insert(points, ids)`` / ``remove(id)`` — the dynamic-synopsis remarks,
  via a side buffer with amortized full rebuilds (logarithmic-rebuilding in
  the style of Overmars [47]).

The hot loops are vectorized: leaf hits are gathered by boolean-mask
indexing over an object-dtype id array (no per-point Python appends), and
the side buffer is a contiguous point matrix scanned with one
``contains_points`` call per query rather than point by point.

Median splits keep the tree balanced: depth is ``O(log n)`` and the classic
kd-tree analysis gives ``O(n^{1-1/k} + OUT)`` worst-case reporting, while
orthant-style queries on the benign mapped point sets behave
polylogarithmically in practice — the T-4.4/T-4.11 benchmarks confirm the
paper's query-time *shape* against the Ω(N) baselines.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.index.backend import group_of, object_array
from repro.index.query_box import BoxBatch, QueryBox

#: Rebuild the main tree when the side buffer exceeds this fraction of it.
REBUILD_FRACTION = 0.25
#: ... but never rebuild for buffers smaller than this.
MIN_BUFFER_FOR_REBUILD = 64

#: In the multi-box walk, stop descending and broadcast-test a node's
#: contiguous point slice directly once ``alive boxes x slice points``
#: falls under this budget: one vectorized containment pass is cheaper
#: than the Python node visits a deeper descent would cost.  Measured
#: with the per-column containment kernel, in-process ``search_batch`` p50
#: over 60 cold batches of the benchmark's lakes (seed 2027, 4 shards,
#: 2-vCPU host, each value twice in one process): 2-D ``cold_2d`` read
#: 29/27 ms at 2048, 21/22 at 8192, 20/20 at 16384, 18/17 at 32768, 20/20
#: at 65536 and 32/34 at 131072; the 1-D ``ingest_churn`` lake 22/18,
#: 18/14, 15/15, 13/13, 12/12 and 13/12.  Seed 4242 agrees (16–18 ms at
#: 32768 against 20–23 at 8192 and 21–22 at 65536).
MULTIBOX_BROADCAST_CUTOFF = 32768


class _KDNode:
    __slots__ = ("start", "end", "lo", "hi", "active", "left", "right", "parent")

    def __init__(self, start: int, end: int, lo: np.ndarray, hi: np.ndarray) -> None:
        self.start = start
        self.end = end
        self.lo = lo
        self.hi = hi
        self.active = end - start
        self.left: Optional["_KDNode"] = None
        self.right: Optional["_KDNode"] = None
        self.parent: Optional["_KDNode"] = None


class DynamicKDTree:
    """Median-split kd-tree over ``(n, k)`` points with activation support.

    Parameters
    ----------
    points:
        ``(n, k)`` float array.
    ids:
        Optional unique hashable identifiers (default: positions).
    leaf_size:
        Maximum number of points per leaf.

    Examples
    --------
    >>> import numpy as np
    >>> tree = DynamicKDTree(np.array([[0.0], [1.0], [2.0]]))
    >>> tree.report_first(QueryBox.closed([0.5], [2.5])) in (1, 2)
    True
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: Optional[Iterable] = None,
        leaf_size: int = 16,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, k) array")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.dim = pts.shape[1]
        self._leaf_size = leaf_size
        id_list = list(ids) if ids is not None else list(range(pts.shape[0]))
        if len(id_list) != pts.shape[0]:
            raise ValueError("points and ids must have equal length")
        self._init_buffer()
        self._removed: set = set()
        self._build_main(pts, id_list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _init_buffer(self) -> None:
        # Contiguous side-buffer storage (amortized-doubling capacity), so
        # the per-query buffer scan is one vectorized mask, not a loop.
        self._buf_pts = np.empty((0, 0))
        self._buf_ids = np.empty(0, dtype=object)
        self._buf_active = np.empty(0, dtype=bool)
        self._buf_n = 0
        self._buf_pos: dict = {}

    def _build_main(self, pts: np.ndarray, id_list: list) -> None:
        order = np.arange(pts.shape[0])
        self._pts = pts.copy()
        self._perm = order
        # _pts is reordered in-place during the build so that each node owns
        # a contiguous slice [start, end).
        self._root = self._build(0, pts.shape[0])
        self._ids = [id_list[i] for i in self._perm]
        self._ids_arr = object_array(self._ids)
        self._pos_of_id = {pid: pos for pos, pid in enumerate(self._ids)}
        if len(self._pos_of_id) != len(self._ids):
            raise ValueError("ids must be unique")
        self._active = np.ones(pts.shape[0], dtype=bool)
        self._leaf_of: list[Optional[_KDNode]] = [None] * pts.shape[0]
        self._assign_leaves(self._root)

    def _build(self, start: int, end: int) -> _KDNode:
        slice_pts = self._pts[start:end]
        node = _KDNode(start, end, slice_pts.min(axis=0), slice_pts.max(axis=0))
        if end - start > self._leaf_size:
            axis = int(np.argmax(node.hi - node.lo))
            mid = (end - start) // 2
            part = np.argpartition(self._pts[start:end, axis], mid)
            self._pts[start:end] = self._pts[start:end][part]
            self._perm[start:end] = self._perm[start:end][part]
            node.left = self._build(start, start + mid)
            node.right = self._build(start + mid, end)
            node.left.parent = node
            node.right.parent = node
        return node

    def _assign_leaves(self, node: _KDNode) -> None:
        if node.left is None:
            for pos in range(node.start, node.end):
                self._leaf_of[pos] = node
        else:
            self._assign_leaves(node.left)
            self._assign_leaves(node.right)

    def __len__(self) -> int:
        return len(self._ids) + self._buf_n

    @property
    def n_active(self) -> int:
        """Number of points currently visible to queries."""
        return self._root.active + int(
            np.count_nonzero(self._buf_active[: self._buf_n])
        )

    @property
    def supports_insert(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Activation and dynamics
    # ------------------------------------------------------------------
    def deactivate(self, entry_id) -> None:
        """Hide a point from queries in O(depth)."""
        pos = self._pos_of_id.get(entry_id)
        if pos is not None:
            if not self._active[pos]:
                raise KeyError(f"entry {entry_id!r} is already inactive")
            self._active[pos] = False
            node = self._leaf_of[pos]
            while node is not None:
                node.active -= 1
                node = node.parent
            return
        bpos = self._buf_pos.get(entry_id)
        if bpos is None:
            raise KeyError(f"unknown entry {entry_id!r}")
        if not self._buf_active[bpos]:
            raise KeyError(f"entry {entry_id!r} is already inactive")
        self._buf_active[bpos] = False

    def activate(self, entry_id) -> None:
        """Re-show a previously deactivated point."""
        pos = self._pos_of_id.get(entry_id)
        if pos is not None:
            if self._active[pos]:
                raise KeyError(f"entry {entry_id!r} is already active")
            self._active[pos] = True
            node = self._leaf_of[pos]
            while node is not None:
                node.active += 1
                node = node.parent
            return
        bpos = self._buf_pos.get(entry_id)
        if bpos is None:
            raise KeyError(f"unknown entry {entry_id!r}")
        if self._buf_active[bpos]:
            raise KeyError(f"entry {entry_id!r} is already active")
        self._buf_active[bpos] = True

    def insert(self, points: np.ndarray, ids: Iterable) -> None:
        """Insert new points (dynamic-synopsis support).

        New points land in a contiguous side buffer that every query also
        scans (vectorized); when the buffer outgrows ``REBUILD_FRACTION``
        of the main tree, the whole structure is rebuilt — the classic
        amortized-logarithmic rebuilding trick [Overmars 1983].
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        id_list = list(ids)
        if pts.shape[0] != len(id_list):
            raise ValueError("points and ids must have equal length")
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        for pid in id_list:
            if pid in self._pos_of_id or pid in self._buf_pos:
                raise KeyError(f"duplicate entry id {pid!r}")
        need = self._buf_n + len(id_list)
        if need > self._buf_pts.shape[0] or self._buf_pts.shape[1] != self.dim:
            cap = max(need, 2 * self._buf_pts.shape[0])
            grown = np.empty((cap, self.dim))
            if self._buf_n:
                grown[: self._buf_n] = self._buf_pts[: self._buf_n]
            self._buf_pts = grown
            self._buf_ids = np.resize(self._buf_ids, cap)
            active = np.zeros(cap, dtype=bool)
            active[: self._buf_n] = self._buf_active[: self._buf_n]
            self._buf_active = active
        for row, pid in zip(pts, id_list):
            pos = self._buf_n
            self._buf_pts[pos] = row
            self._buf_ids[pos] = pid
            self._buf_active[pos] = True
            self._buf_pos[pid] = pos
            self._buf_n += 1
        if self._buf_n >= max(
            MIN_BUFFER_FOR_REBUILD, int(REBUILD_FRACTION * max(1, len(self._ids)))
        ):
            self._rebuild()

    def remove(self, entry_id) -> None:
        """Permanently remove a point (deactivate + drop at next rebuild).

        Deactivated points can be removed too; removing an unknown or
        already-removed id raises ``KeyError`` (matching the columnar
        backend's semantics).
        """
        if entry_id in self._removed:
            raise KeyError(f"unknown entry {entry_id!r}")
        try:
            self.deactivate(entry_id)
        except KeyError:
            # Already-inactive is fine for a removal; unknown ids are not.
            if entry_id not in self._pos_of_id and entry_id not in self._buf_pos:
                raise
        self._removed.add(entry_id)

    def export_points(self) -> tuple[np.ndarray, list, np.ndarray]:
        """Live contents as ``(points, ids, active)`` parallel arrays.

        Enumerates main-tree slots (build order) then the side buffer,
        skipping tombstoned ids — the same sweep :meth:`_rebuild` does.
        """
        pts, ids, act = [], [], []
        for pos, pid in enumerate(self._ids):
            if pid in self._removed:
                continue
            pts.append(self._pts[pos])
            ids.append(pid)
            act.append(bool(self._active[pos]))
        for bpos in range(self._buf_n):
            pid = self._buf_ids[bpos]
            if pid in self._removed:
                continue
            pts.append(self._buf_pts[bpos].copy())
            ids.append(pid)
            act.append(bool(self._buf_active[bpos]))
        return (
            np.asarray(pts, dtype=float),
            ids,
            np.asarray(act, dtype=bool),
        )

    def _rebuild(self) -> None:
        keep_pts, keep_ids = [], []
        for pos, pid in enumerate(self._ids):
            if pid in self._removed:
                continue
            keep_pts.append(self._pts[pos])
            keep_ids.append(pid)
        inactive = {
            pid
            for pos, pid in enumerate(self._ids)
            if not self._active[pos] and pid not in self._removed
        }
        for bpos in range(self._buf_n):
            pid = self._buf_ids[bpos]
            if pid in self._removed:
                continue
            keep_pts.append(self._buf_pts[bpos].copy())
            keep_ids.append(pid)
            if not self._buf_active[bpos]:
                inactive.add(pid)
        self._init_buffer()
        self._removed = set()
        self._build_main(np.asarray(keep_pts), keep_ids)
        for pid in inactive:
            self.deactivate(pid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_box(self, box: QueryBox) -> None:
        if box.dim != self.dim:
            raise ValueError(f"query box has dim {box.dim}, tree has dim {self.dim}")

    def _buffer_mask(self, box: QueryBox) -> Optional[np.ndarray]:
        """Active-and-inside mask over the side buffer, or None if empty."""
        if self._buf_n == 0:
            return None
        mask = box.contains_points(self._buf_pts[: self._buf_n])
        mask &= self._buf_active[: self._buf_n]
        return mask

    def report(self, box: QueryBox) -> list:
        """All active point ids inside the box.

        Per-node hits are accumulated as id *arrays* and materialized with
        a single ``np.concatenate(...).tolist()`` at the end — one Python
        list conversion per query instead of one per visited node.
        """
        self._check_box(box)
        chunks: list[np.ndarray] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.active == 0 or not box.intersects_bbox(node.lo, node.hi):
                continue
            if box.contains_bbox(node.lo, node.hi):
                chunks.append(self._active_ids_of(node))
            elif node.left is None:
                mask = box.contains_points(self._pts[node.start : node.end])
                mask &= self._active[node.start : node.end]
                chunks.append(self._ids_arr[node.start : node.end][mask])
            else:
                stack.append(node.left)
                stack.append(node.right)
        bmask = self._buffer_mask(box)
        if bmask is not None:
            chunks.append(self._buf_ids[: self._buf_n][bmask])
        if not chunks:
            return []
        return np.concatenate(chunks).tolist()

    def _active_ids_of(self, node: _KDNode) -> np.ndarray:
        """Object array of the active ids in a node's contiguous slice."""
        if node.active == node.end - node.start:
            return self._ids_arr[node.start : node.end]
        mask = self._active[node.start : node.end]
        return self._ids_arr[node.start : node.end][mask]

    def report_first(self, box: QueryBox):
        """One arbitrary active point id inside the box, or None."""
        self._check_box(box)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.active == 0 or not box.intersects_bbox(node.lo, node.hi):
                continue
            if box.contains_bbox(node.lo, node.hi):
                return self._first_active_id(node)
            if node.left is None:
                mask = box.contains_points(self._pts[node.start : node.end])
                mask &= self._active[node.start : node.end]
                hits = np.nonzero(mask)[0]
                if hits.size:
                    return self._ids[node.start + int(hits[0])]
            else:
                stack.append(node.left)
                stack.append(node.right)
        bmask = self._buffer_mask(box)
        if bmask is not None:
            hits = np.flatnonzero(bmask)
            if hits.size:
                return self._buf_ids[int(hits[0])]
        return None

    def _first_active_id(self, node: _KDNode):
        while node.left is not None:
            node = node.left if node.left.active > 0 else node.right
        mask = self._active[node.start : node.end]
        off = int(np.nonzero(mask)[0][0])
        return self._ids[node.start + off]

    def report_groups(self, box: QueryBox) -> set:
        """All group keys with >= 1 active point in the box."""
        return {group_of(pid) for pid in self.report(box)}

    # ------------------------------------------------------------------
    # Multi-box batch kernels (one shared traversal for the whole batch)
    # ------------------------------------------------------------------
    def report_many(self, boxes: Sequence[QueryBox]) -> list[list]:
        """Per-box active id lists via one shared multi-box tree walk.

        Semantically ``[self.report(b) for b in boxes]``, but the tree is
        traversed once with the subset of boxes still *alive* at each
        node: the intersect/contain prunes for all alive boxes are one
        broadcast comparison instead of Q separate Python walks, boxes
        that fully contain a node's bbox take its active-id array
        wholesale, and the surviving boxes share one ``(q, L)`` comparison
        per constrained side at each leaf.  This is the kernel behind the
        service cold path: a batch of deduplicated leaves hits every
        shard's tree in one call.
        """
        boxes = list(boxes)
        for box in boxes:
            self._check_box(box)
        q = len(boxes)
        if q == 0:
            return []
        batch = BoxBatch(boxes)
        chunks: list[list[np.ndarray]] = [[] for _ in range(q)]
        stack: list[tuple[_KDNode, np.ndarray]] = [(self._root, np.arange(q))]
        while stack:
            node, alive = stack.pop()
            if node.active == 0:
                continue
            alive = alive[batch.intersects_bbox(node.lo, node.hi, alive)]
            if alive.size == 0:
                continue
            full = batch.contains_bbox(node.lo, node.hi, alive)
            if full.any():
                ids_chunk = self._active_ids_of(node)
                for qi in alive[full]:
                    chunks[qi].append(ids_chunk)
                alive = alive[~full]
                if alive.size == 0:
                    continue
            size = node.end - node.start
            if node.left is None or alive.size * size <= MULTIBOX_BROADCAST_CUTOFF:
                # Leaf, or a subtree cheap enough that one broadcast pass
                # over its contiguous slice beats descending further.
                inside = batch.contains_points(
                    self._pts[node.start : node.end], alive
                )
                inside &= self._active[node.start : node.end][None, :]
                ids_arr = self._ids_arr[node.start : node.end]
                for row, qi in zip(inside, alive):
                    if row.any():
                        chunks[qi].append(ids_arr[row])
            else:
                stack.append((node.left, alive))
                stack.append((node.right, alive))
        if self._buf_n:
            inside = batch.contains_points(self._buf_pts[: self._buf_n])
            inside &= self._buf_active[: self._buf_n][None, :]
            buf_ids = self._buf_ids[: self._buf_n]
            for qi, row in enumerate(inside):
                if row.any():
                    chunks[qi].append(buf_ids[row])
        return [np.concatenate(c).tolist() if c else [] for c in chunks]

    def count_many(self, boxes: Sequence[QueryBox]) -> list[int]:
        """Per-box active point counts via the shared walk, counting from
        node counters and boolean masks — no id materialization."""
        boxes = list(boxes)
        for box in boxes:
            self._check_box(box)
        q = len(boxes)
        if q == 0:
            return []
        batch = BoxBatch(boxes)
        counts = np.zeros(q, dtype=np.int64)
        stack: list[tuple[_KDNode, np.ndarray]] = [(self._root, np.arange(q))]
        while stack:
            node, alive = stack.pop()
            if node.active == 0:
                continue
            alive = alive[batch.intersects_bbox(node.lo, node.hi, alive)]
            if alive.size == 0:
                continue
            full = batch.contains_bbox(node.lo, node.hi, alive)
            if full.any():
                counts[alive[full]] += node.active
                alive = alive[~full]
                if alive.size == 0:
                    continue
            size = node.end - node.start
            if node.left is None or alive.size * size <= MULTIBOX_BROADCAST_CUTOFF:
                inside = batch.contains_points(
                    self._pts[node.start : node.end], alive
                )
                inside &= self._active[node.start : node.end][None, :]
                counts[alive] += inside.sum(axis=1)
            else:
                stack.append((node.left, alive))
                stack.append((node.right, alive))
        if self._buf_n:
            inside = batch.contains_points(self._buf_pts[: self._buf_n])
            inside &= self._buf_active[: self._buf_n][None, :]
            counts += inside.sum(axis=1)
        return [int(c) for c in counts]

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[set]:
        """Per-box group sets (derived from the shared walk)."""
        return [
            {group_of(pid) for pid in ids} for ids in self.report_many(boxes)
        ]

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box."""
        self._check_box(box)
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.active == 0 or not box.intersects_bbox(node.lo, node.hi):
                continue
            if box.contains_bbox(node.lo, node.hi):
                total += node.active
            elif node.left is None:
                mask = box.contains_points(self._pts[node.start : node.end])
                mask &= self._active[node.start : node.end]
                total += int(np.count_nonzero(mask))
            else:
                stack.append(node.left)
                stack.append(node.right)
        bmask = self._buffer_mask(box)
        if bmask is not None:
            total += int(np.count_nonzero(bmask))
        return total
