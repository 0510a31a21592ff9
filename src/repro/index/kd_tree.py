"""Dynamic kd-tree with active counters — the general range-search engine.

This is the practical engine behind the mapped-space orthant queries of the
Ptile data structures (points live in ``R^{2d+1}`` / ``R^{4d+2}`` once the
weights are appended as coordinates).  It implements the
:class:`~repro.index.backend.RangeSearchBackend` protocol:

- ``report(box)`` — all active points in an axis-parallel
  :class:`~repro.index.query_box.QueryBox`;
- ``report_first(box)`` — one arbitrary active point (``ReportFirst``),
  found by a pruned descent that skips subtrees with zero active points;
- ``report_groups(box)`` — all dataset keys with an active point in the
  box (an integer ``np.unique`` over the hit rows' group column);
- ``deactivate_group`` / ``activate_group`` — the temporary deletions of
  Algorithms 2 and 4;
- ``insert(points, ids)`` / ``remove_group`` — the dynamic-synopsis
  remarks, via a side buffer with amortized full rebuilds
  (logarithmic-rebuilding in the style of Overmars [47]).

**Everything is a flat array, and the main tree stores ranks, not
coordinates.**  Bytes per mapped point are the constant of the paper's
Õ(N) space bound, and every mapped coordinate is drawn from a tiny
alphabet (coreset coordinates plus the bounding box per axis, ``count/s ±
delta`` for the weights), so :func:`_encode` factors each column into a
sorted float64 *level table* plus the rank of every point in it, in the
smallest unsigned dtype that holds the longest table (``uint8`` below 257
levels, then ``uint16``, ``uint32`` — read off the data, there is no
float tree).  Orthant containment only ever compares, and ranks preserve
every comparison, so answers are identical: a query translates its closed
effective bounds into closed rank bounds once per call
(:meth:`QueryBox.coded <repro.index.query_box.QueryBox.coded>`, two
``searchsorted`` per constrained column) and the walk, the bbox prunes and
the containment kernel run on the integers.  Codes sit in tree order,
column-major (each coordinate of a node's slice is one contiguous run —
what the per-column kernel reads), beside the dataset-key column (the
same smallest-unsigned-dtype rule over the largest key: ``uint8`` up to
256 datasets a shard) and bool active / dead masks; nodes are rows of a
preorder table —
slice bounds, bounding box *in code space*, active counter, right-child
index (the left child of node ``i`` is ``i + 1``).  Coordinates + node
boxes per mapped point on the four benchmark lakes (seed 2027, 4 shards,
float64 columns before → codes and level tables now): ``cold_2d`` 80.7 →
10.2 B (``uint8``, at most 186 levels a column), ``warm_point`` 48.6 →
16.5 B (``uint16``, 5 678 levels), ``ingest_churn`` 48.6 → 16.6 B,
``federated_batch`` 48.5 → 16.4 B.  Tables are per column rather than one
shared by all columns of a shard: sharing would save table bytes on the
1-D lakes (2.8 → 2.2 MB on ``warm_point``) but needs two-byte codes where
one does (4.6 → 9.2 MB on ``cold_2d``); 9.6 against 13.2 MB over the four.

**Construction never holds the float matrix.**  A tree is built from a
stream of ``(points, ids)`` blocks (:meth:`DynamicKDTree.from_blocks`; the
constructor is the one-block stream) — the Ptile builders' pieces, each
at most :data:`~repro.index.backend.BLOCK_ELEMENTS` elements:
:func:`_encode` rank-codes each block as it arrives — its own level table
per column plus narrow ranks — and the floats are let go.  :func:`_merge`
then unions the blocks' tables per column, moves every block's ranks into
the one ``(k, n)`` code matrix through a table-sized ``searchsorted``
lookup, and the tree is planted on the codes: arrays equal, byte for
byte, to coding the stacked matrix, however the stream is cut.

The side buffer is a float :class:`~repro.index.columnar.ColumnarStore`
queried with the original box — appends must stay O(1), and a new level
would re-code the whole store; :meth:`DynamicKDTree._rebuild` is the same
merge over two blocks, the live main rows *as the codes they already are*
and the freshly coded buffer, so new levels interleave the old ones at the
amortised cost inserts already paid and nothing is decoded.  ``to_arrays``
hands out codes, level tables, key column and node table and
``from_arrays`` adopts them, so a snapshot restore builds no tree and
decodes nothing.

Leaves hold at most :data:`DEFAULT_LEAF_SIZE` points, read each time a
tree is planted — it is not a constructor argument and a restored tree does
not remember the value it was first built with.  Median splits keep the
tree balanced: depth is ``O(log n)`` and the classic
kd-tree analysis gives ``O(n^{1-1/k} + OUT)`` worst-case reporting, while
orthant-style queries on the benign mapped point sets behave
polylogarithmically in practice — the T-4.4/T-4.11 benchmarks confirm the
paper's query-time *shape* against the Ω(N) baselines.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.index.backend import id_column
from repro.index.columnar import ColumnarStore
from repro.index.query_box import BoxBatch, QueryBox

#: Maximum number of points per leaf, read each time a tree is planted
#: (first build and every ``_rebuild``; it shapes the node table only,
#: never an answer, so a restored tree need not remember what it was built
#: with).  A node visit costs about as much dispatch as scanning a few
#: hundred points, and the multi-box walk stops descending once ``alive
#: boxes x slice points`` fits one broadcast pass anyway, so small leaves
#: only multiply the node table (``2k`` codes + 3 ``int32`` per node,
#: persisted in snapshots).  In-process on the rank-coded 2-D ``cold_2d``
#: lake (seed 2027, 455 k mapped points, 4 shards) at leaf sizes 32 / 64 /
#: 128 / 256 / 512 / 1024 / 2048: snapshot 9.93 / 9.41 / 9.14 / 9.01 / 8.95 /
#: 8.92 / 8.90 MB; one shard's single-box ``query`` p50 3.6 / 2.5 / 1.9 /
#: 1.4 / 0.9 / 0.8 / 0.6 ms; its Algorithm-4 timed loop 30 / 26 / 20 / 17 /
#: 12 / 11 / 9 ms; batched cold path flat at 6-8 ms.
DEFAULT_LEAF_SIZE = 512

#: Rebuild the main tree when the side buffer exceeds this fraction of it.
REBUILD_FRACTION = 0.25
#: ... but never rebuild for buffers smaller than this.
MIN_BUFFER_FOR_REBUILD = 64

#: In the multi-box walk, stop descending and broadcast-test a node's
#: contiguous point slice directly once ``alive boxes x slice points``
#: falls under this budget: one vectorized containment pass is cheaper
#: than the Python node visits a deeper descent would cost.  Measured on
#: the rank-coded tree (integer containment kernel), in-process
#: ``search_batch`` p50 over 60 cold batches of the benchmark's lakes (seed
#: 2027, 4 shards, 2-vCPU host, each value twice in one process): 2-D
#: ``cold_2d`` (``uint8`` codes) read 15.6/15.2 ms at 2048, 10.5/9.9 at
#: 8192, 7.8/7.7 at 16384, 6.6/6.2 at 32768, 5.8/6.3 at 65536, 5.5/5.3 at
#: 131072 and 5.9/5.6 at 262144; the 1-D ``ingest_churn`` lake (``uint16``)
#: 9.0/9.3, 7.6/7.4, 6.9/6.1, 5.9/6.4, 6.7/6.9, 6.9/7.0 and 6.3/6.4.  Seed
#: 4242 agrees (6.4/6.6 ms at 32768 against 9.9/10.0 at 8192, 6.1/5.9 at
#: 65536 and 7.1/5.6 at 131072).  A byte-wide column pass is cheaper than
#: the float one was, so the curve is now flat from 32768 to 131072 where
#: it used to turn up at 65536; the value stays at the start of the flat.
MULTIBOX_BROADCAST_CUTOFF = 32768


def _encode(cols: Iterable[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Factor the ``k`` columns of one block into their sorted level tables
    and, per column, every point's rank in it — narrowed at once to the
    smallest unsigned dtype the table allows, so no 8-byte rank column
    outlives its own iteration."""
    tables, ranks = [], []
    for col in cols:
        table, inverse = np.unique(col, return_inverse=True)
        tables.append(table)
        ranks.append(inverse.astype(np.min_scalar_type(max(table.size - 1, 0))))
    return ranks, tables


def _merge(blocks: Sequence[tuple]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One ``(k, n)`` code matrix and its ``k`` level tables from rank-coded
    ``(ranks, tables)`` blocks, rows in block order.

    A column's table is the union of the blocks' tables; a block's ranks
    move into it through one table-sized lookup.  One dtype for the whole
    matrix — the smallest unsigned one that holds the longest table — so a
    node's slice stays one ``(L, k)`` array for the containment kernel.
    """
    tables = [
        np.unique(np.concatenate(column)) for column in zip(*(t for _, t in blocks))
    ]
    dtype = np.min_scalar_type(max(max(t.size for t in tables) - 1, 0))
    codes = np.empty((len(tables), sum(r[0].size for r, _ in blocks)), dtype=dtype)
    start = 0
    for ranks, local in blocks:
        end = start + ranks[0].size
        for j, table in enumerate(tables):
            codes[j, start:end] = np.searchsorted(table, local[j]).astype(dtype)[ranks[j]]
        start = end
    return codes, tables


class DynamicKDTree:
    """Median-split kd-tree over ``(n, k)`` points with activation support.

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
    >>> tree = DynamicKDTree(np.array([[0.0], [1.0], [2.0]]))
    >>> tree.report_first(QueryBox.closed([0.5], [2.5])) in (1, 2)
    True
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: Optional[Iterable] = None,
    ) -> None:
        self._fill([(points, ids)])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple]) -> "DynamicKDTree":
        """The tree over the rows of a stream of ``(points, ids)`` blocks —
        arrays equal to ``DynamicKDTree(np.vstack(all points), all ids)``,
        but each block's floats are rank-coded and let go before the next
        one is asked for (see the module docstring).  ``ids`` as in the
        constructor."""
        tree = cls.__new__(cls)
        tree._fill(blocks)
        return tree

    def _fill(self, blocks: Iterable[tuple]) -> None:
        coded, groups = [], []
        for points, block_ids in blocks:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2 or (coded and pts.shape[1] != len(coded[0][1])):
                raise ValueError("points must be (n, k) arrays of one k")
            groups.append(id_column(block_ids, pts.shape[0]))
            coded.append(_encode(pts.T))
        if not sum(group.size for group in groups):
            raise ValueError("points must be a non-empty (n, k) array")
        group = np.concatenate(groups)  # promotes to the widest block's dtype
        self.dim = len(coded[0][1])
        self._build(*_merge(coded), group, np.ones(group.size, dtype=bool))

    def _build(
        self,
        codes: np.ndarray,
        tables: list[np.ndarray],
        group: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Plant the main tree over a ``(k, n)`` code matrix.

        The matrix is permuted in place so that every node owns a
        contiguous column slice ``[start, end)``; nodes are numbered in
        preorder (an explicit stack pushes the right half under the left
        one), so the left child of node ``i`` is ``i + 1`` and only the
        right child is recorded.  Splits are on the column whose slice
        spans the most ranks, at the median rank.  No rows (every group
        removed) plant one empty root that no query enters.
        """
        n = codes.shape[1]
        leaf_size = DEFAULT_LEAF_SIZE
        # A node splits only above leaf_size, so no leaf is smaller than
        # half of it (rounded down, but at least one point).
        cap = 2 * (n // max(1, (leaf_size + 1) // 2)) + 1
        span = np.zeros((3, cap), dtype=np.int32)  # start, end, right child
        box = np.empty((2, cap, self.dim), dtype=codes.dtype)  # lo, hi
        perm = np.arange(n)
        stack = [(0, n, -1)]
        m = 0
        while stack:
            start, end, parent = stack.pop()
            if parent >= 0:
                span[2, parent] = m
            seg = codes[:, start:end]
            lo = seg.min(axis=1, initial=np.iinfo(codes.dtype).max)
            hi = seg.max(axis=1, initial=0)
            span[0, m], span[1, m] = start, end
            box[0, m], box[1, m] = lo, hi
            if end - start > leaf_size:
                mid = (end - start) // 2
                part = np.argpartition(seg[int(np.argmax(hi - lo))], mid)
                codes[:, start:end] = seg[:, part]
                perm[start:end] = perm[start:end][part]
                stack.append((start + mid, end, m))
                stack.append((start, start + mid, -1))
            m += 1
        self._adopt(
            codes, tables, group[perm], active[perm],
            span[:, :m].copy(), box[:, :m].copy(),
        )

    def _adopt(
        self,
        codes: np.ndarray,
        tables: list[np.ndarray],
        group: np.ndarray,
        active: np.ndarray,
        span: np.ndarray,
        box: np.ndarray,
    ) -> None:
        self._pts = codes.T  # (n, k) rank codes, column-major
        self._tables = tables  # per column: sorted float64 levels
        self._group = group
        self._active = active
        self._dead = np.zeros(active.size, dtype=bool)
        self._n_dead = 0
        self._span = span
        self._start, self._end, self._right = span
        self._box = box  # in code space
        self._lo, self._hi = box
        cum = np.concatenate(([0], np.cumsum(active)))
        self._count = cum[self._end] - cum[self._start]
        self._buf: Optional[ColumnarStore] = None

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "DynamicKDTree":
        """A tree over its own :meth:`to_arrays`: no build, no decode, no copy.

        Codes, level tables, key column and node table may be read-only
        maps of a snapshot file: queries only read them, inserts land in
        the side buffer and a rebuild plants fresh arrays.  Private: the
        active mask and the node counters derived from it.

        The arrays come from outside the process, so everything a later
        query or rebuild would index with is checked here — ``ValueError``
        for a code beyond its column's table, node boxes beyond it, a
        table that is not strictly increasing float64 (unsorted,
        duplicated, NaN), code columns that are not unsigned, or a key column
        that is neither unsigned of at most 4 bytes nor the signed ``int32``
        one older files hold, or has a key outside ``[0, 2^31)``.  A key
        column wider than its keys need is narrowed (a private copy).  The
        ``local`` id column older snapshots carry is not read.
        """
        codes, levels, starts = arrays["codes"], arrays["levels"], arrays["level_start"]
        span, box = arrays["node_span"], arrays["node_box"]
        group = arrays["group"]
        active = np.array(arrays["active"], dtype=bool)
        if (
            codes.ndim != 2
            or codes.dtype.kind != "u"
            or group.dtype.itemsize > 4
            or not group.shape == active.shape == codes.shape[1:]
            or span.ndim != 2
            or span.shape[0] != 3
            or box.shape != (2, span.shape[1], codes.shape[0])
            or box.dtype != codes.dtype
            or tuple(span[:2, :1].ravel()) != (0, codes.shape[1])
        ):
            raise ValueError("backend arrays do not describe one kd-tree")
        if (
            levels.dtype != np.float64
            or levels.ndim != 1
            or starts.dtype.kind not in "iu"
            or starts.shape != (codes.shape[0] + 1,)
            or starts[0] != 0
            or starts[-1] != levels.size
            or (np.diff(starts) < 1).any()
        ):
            raise ValueError("level tables do not match the code columns")
        rising = np.diff(levels) > 0
        rising[starts[1:-1] - 1] = True  # one table ends, the next begins
        if np.isnan(levels).any() or not rising.all():
            raise ValueError("level tables must be strictly increasing and NaN-free")
        top = np.diff(starts) - 1
        if (codes.max(axis=1) > top).any() or (box > top).any():
            raise ValueError("a code or node box exceeds its column's level count")
        tree = cls.__new__(cls)
        tree.dim = int(codes.shape[0])
        tables = [levels[a:b] for a, b in zip(starts[:-1], starts[1:])]
        tree._adopt(codes, tables, id_column(group, group.size), active, span, box)
        return tree

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The tree's own arrays: ``codes`` as ``(k, n)`` columns in tree
        order, the level tables end to end (``levels``, column ``j``'s at
        ``level_start[j]:level_start[j + 1]``), the key column, a copy of the
        active mask, the node table (boxes in code space).

        Buffered or removed points are folded in by a rebuild first —
        invisible to queries, and what the next large insert would do.
        """
        if self._buf is not None or self._n_dead:
            self._rebuild()
        return {
            "codes": self._pts.T,
            "levels": np.concatenate(self._tables),
            "level_start": np.cumsum([0] + [t.size for t in self._tables]),
            "group": self._group,
            "active": self._active.copy(),
            "node_span": self._span,
            "node_box": self._box,
        }

    @property
    def nbytes(self) -> int:
        """Bytes held in arrays: codes, level tables, key column, masks,
        node table, side buffer."""
        buf = self._buf
        own = (
            self._pts, *self._tables, self._group, self._active,
            self._dead, self._span, self._box, self._count,
        )
        return sum(a.nbytes for a in own) + (buf.nbytes if buf is not None else 0)

    def __len__(self) -> int:
        buffered = len(self._buf) if self._buf is not None else 0
        return self._group.size - self._n_dead + buffered

    @property
    def n_active(self) -> int:
        """Number of points currently visible to queries."""
        buffered = self._buf.n_active if self._buf is not None else 0
        return int(self._count[0]) + buffered

    @property
    def supports_insert(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Activation and dynamics
    # ------------------------------------------------------------------
    def _set_active(self, rows: np.ndarray, value: bool) -> int:
        """Flip the (sorted) main-tree ``rows`` to ``value`` and move every
        node counter by the number of them inside its slice."""
        self._active[rows] = value
        inside = np.searchsorted(rows, self._end) - np.searchsorted(rows, self._start)
        self._count += inside if value else -inside
        return int(rows.size)

    def _group_rows(self, group: int) -> np.ndarray:
        """Mask of the live main-tree rows of one group."""
        return (self._group == group) & ~self._dead

    def _live(self, column: np.ndarray) -> np.ndarray:
        """The non-removed rows of a main-tree column (itself if none are)."""
        return column[~self._dead] if self._n_dead else column

    def deactivate_group(self, group: int) -> int:
        """Hide every active point of ``group``: one mask write plus one
        counter update over the node table."""
        rows = np.flatnonzero(self._group_rows(group) & self._active)
        buffered = self._buf.deactivate_group(group) if self._buf is not None else 0
        return self._set_active(rows, False) + buffered

    def activate_group(self, group: int) -> int:
        """Re-show every hidden point of ``group``."""
        rows = np.flatnonzero(self._group_rows(group) & ~self._active)
        buffered = self._buf.activate_group(group) if self._buf is not None else 0
        return self._set_active(rows, True) + buffered

    def insert(self, points: np.ndarray, ids: Iterable) -> None:
        """Insert new points (dynamic-synopsis support).

        New points land in a columnar side buffer that every query also
        scans (vectorized); when the buffer outgrows ``REBUILD_FRACTION``
        of the main tree, the whole structure is rebuilt — the classic
        amortized-logarithmic rebuilding trick [Overmars 1983].
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        group = id_column(ids, pts.shape[0])
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        if pts.shape[0] == 0:
            return
        if self._buf is None:
            self._buf = ColumnarStore(pts, ids=group)
        else:
            self._buf.insert(pts, group)
        if len(self._buf) >= max(
            MIN_BUFFER_FOR_REBUILD, int(REBUILD_FRACTION * self._group.size)
        ):
            self._rebuild()

    def _bury(self, rows: np.ndarray) -> int:
        """Tombstone main-tree rows (dropped at the next rebuild)."""
        self._set_active(rows[self._active[rows]], False)
        self._dead[rows] = True
        self._n_dead += int(rows.size)
        return int(rows.size)

    def remove_group(self, group: int) -> int:
        """Permanently remove every point of ``group``, hidden ones too
        (tombstones, dropped at the next rebuild); returns how many."""
        buffered = self._buf.remove_group(group) if self._buf is not None else 0
        return self._bury(np.flatnonzero(self._group_rows(group))) + buffered

    def _rebuild(self) -> None:
        """Replant the main tree over its live rows plus the side buffer:
        two blocks for :func:`_merge`, the first already coded (buffered
        values become new levels wherever they fall between the old ones)."""
        ranks, tables = self._pts.T, self._tables
        if self._n_dead:  # a level only removed rows used goes with them
            ranks, used = _encode(ranks[:, ~self._dead])
            tables = [table[u] for table, u in zip(tables, used)]
        blocks = [(ranks, tables)]
        rows = [(self._live(self._group), self._live(self._active))]
        if self._buf is not None:
            buf = self._buf.to_arrays()
            blocks.append(_encode(buf["points"]))
            rows.append((buf["group"], buf["active"]))
        group, active = map(np.concatenate, zip(*rows))
        # Re-narrowed: removals may have taken the keys that widened it.
        self._build(*_merge(blocks), id_column(group, group.size), active)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_box(self, box: QueryBox) -> None:
        if box.dim != self.dim:
            raise ValueError(f"query box has dim {box.dim}, tree has dim {self.dim}")

    def _slice(self, node: int) -> tuple[int, int]:
        return int(self._start[node]), int(self._end[node])

    def _active_rows(self, node: int) -> np.ndarray:
        """Row indexes of the active points in a node's contiguous slice."""
        start, end = self._slice(node)
        if self._count[node] == end - start:
            return np.arange(start, end)
        return start + np.flatnonzero(self._active[start:end])

    def _visit(self, box: QueryBox):
        """The pruned single-box descent, in code space: yields ``(node,
        None)`` for every maximal node with active points whose bbox the
        box contains, and ``(leaf, rows)`` — the leaf's active rows inside
        the box — for every leaf it merely intersects."""
        self._check_box(box)
        coded = box.coded(self._tables, self._pts.dtype)
        stack = [0] if coded is not None else []
        while stack:
            node = stack.pop()
            lo, hi = self._lo[node], self._hi[node]
            if self._count[node] == 0 or not coded.intersects_bbox(lo, hi):
                continue
            if coded.contains_bbox(lo, hi):
                yield node, None
            elif self._right[node] == 0:
                start, end = self._slice(node)
                mask = coded.contains_points(self._pts[start:end])
                mask &= self._active[start:end]
                yield node, start + np.flatnonzero(mask)
            else:
                stack.append(node + 1)
                stack.append(int(self._right[node]))

    def _rows(self, box: QueryBox) -> np.ndarray:
        """Main-tree row indexes of the active points inside the box."""
        chunks = [
            self._active_rows(node) if hits is None else hits
            for node, hits in self._visit(box)
        ]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)

    def report(self, box: QueryBox) -> list:
        """The keys of the active points inside the box, one per point."""
        keys = self._group[self._rows(box)].tolist()
        return keys + self._buf.report(box) if self._buf is not None else keys

    def report_first(self, box: QueryBox):
        """The key of one arbitrary active point inside the box, or None."""
        for node, hits in self._visit(box):
            if hits is None:  # count > 0: the slice has an active point
                start, end = self._slice(node)
                hits = np.array([start + np.argmax(self._active[start:end])])
            if hits.size:
                return int(self._group[hits[0]])
        return self._buf.report_first(box) if self._buf is not None else None

    def report_groups(self, box: QueryBox) -> set:
        """All group keys with >= 1 active point in the box."""
        groups = set(np.unique(self._group[self._rows(box)]).tolist())
        return groups | self._buf.report_groups(box) if self._buf is not None else groups

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box (node counters where a
        whole bbox is inside, masks at the leaves)."""
        total = sum(
            int(self._count[node]) if hits is None else hits.size
            for node, hits in self._visit(box)
        )
        return total + self._buf.count(box) if self._buf is not None else total

    # ------------------------------------------------------------------
    # Multi-box batch kernels (one shared traversal for the whole batch)
    # ------------------------------------------------------------------
    def _walk_many(self, boxes: list, on_full, on_scan) -> None:
        """One shared multi-box walk of the main tree.

        The tree is traversed once with the subset of boxes still *alive*
        at each node: the intersect/contain prunes for all alive boxes are
        one broadcast comparison instead of Q separate Python walks.
        ``on_full(node, boxes)`` is called for the boxes that contain a
        node's whole bbox, ``on_scan(start, inside, boxes)`` with the
        ``(q, L)`` active-and-inside matrix of a leaf — or of a subtree
        cheap enough that one broadcast pass over its contiguous slice
        beats descending further.
        """
        for box in boxes:
            self._check_box(box)
        if not boxes:
            return
        # Boxes that admit no level of some column drop out here; ``keep``
        # maps the coded batch's rows back to the caller's box indexes.
        batch, keep = BoxBatch(boxes).coded(self._tables, self._pts.dtype)
        stack = [(0, np.arange(keep.size))]
        while stack:
            node, alive = stack.pop()
            if self._count[node] == 0:
                continue
            lo, hi = self._lo[node], self._hi[node]
            alive = alive[batch.intersects_bbox(lo, hi, alive)]
            if alive.size == 0:
                continue
            full = batch.contains_bbox(lo, hi, alive)
            if full.any():
                on_full(node, keep[alive[full]])
                alive = alive[~full]
                if alive.size == 0:
                    continue
            start, end = self._slice(node)
            if (
                self._right[node] == 0
                or alive.size * (end - start) <= MULTIBOX_BROADCAST_CUTOFF
            ):
                inside = batch.contains_points(self._pts[start:end], alive)
                inside &= self._active[start:end][None, :]
                on_scan(start, inside, keep[alive])
            else:
                stack.append((node + 1, alive))
                stack.append((int(self._right[node]), alive))

    def report_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box int arrays of the hit points' keys (one per point) via
        one shared multi-box tree walk.

        Semantically ``[self.report(b) for b in boxes]``.  This is the
        kernel behind the service cold path: a batch of deduplicated
        leaves hits every shard's tree in one call, and
        :meth:`report_groups_many` reduces each array to its key set.
        """
        boxes = list(boxes)
        chunks: list[list[np.ndarray]] = [[] for _ in boxes]

        def on_full(node, full):
            hits = self._active_rows(node)
            for qi in full:
                chunks[qi].append(hits)

        def on_scan(start, inside, alive):
            for row, qi in zip(inside, alive):
                if row.any():
                    chunks[qi].append(start + np.flatnonzero(row))

        self._walk_many(boxes, on_full, on_scan)
        out = [
            self._group[np.concatenate(c) if c else np.empty(0, dtype=np.intp)]
            for c in chunks
        ]
        if self._buf is not None:
            out = [np.append(a, b) for a, b in zip(out, self._buf.report_many(boxes))]
        return out

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[set]:
        """Per-box group sets: the shared walk plus one integer
        ``np.unique`` per box."""
        return [
            set(np.unique(hit_groups).tolist())
            for hit_groups in self.report_many(boxes)
        ]
