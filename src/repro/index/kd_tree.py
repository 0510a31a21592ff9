"""Dynamic kd-tree with active counters — the general range-search engine.

This is the practical engine behind the mapped-space orthant queries of the
Ptile data structures (points live in ``R^{2d+1}`` / ``R^{4d+2}`` once the
weights are appended as coordinates).  It implements the
:class:`~repro.index.backend.RangeSearchBackend` protocol:

- ``report_many(boxes)`` / ``report_groups_many(boxes)`` — the keys of
  the active points inside each axis-parallel
  :class:`~repro.index.query_box.QueryBox` of a batch, by one shared
  multi-box walk (``report_groups_many`` adds an integer ``np.unique`` per
  box); a single box is a batch of one;
- ``report_first(box)`` / ``count(box)`` — one arbitrary active point
  (``ReportFirst``) and the number of them, by a pruned single-box
  descent that skips subtrees with zero active points;
- ``deactivate_group`` / ``activate_group`` — the temporary deletions of
  Algorithms 2 and 4;
- ``insert(points, ids)`` / ``remove_group`` — the dynamic-synopsis
  remarks, via a side buffer with amortized full rebuilds
  (logarithmic-rebuilding in the style of Overmars [47]).

**Everything is a flat array, and the main tree stores ranks, not
coordinates.**  Bytes per mapped point are the constant of the paper's
Õ(N) space bound, and every mapped coordinate is drawn from a tiny
alphabet (coreset coordinates plus the bounding box per axis, ``count/s ±
delta`` for the weights), so each column is stored as a sorted float64
*level table* plus the rank of every point in it, in the smallest
unsigned dtype that holds the longest table (``uint8`` below 257 levels,
then ``uint16``, ``uint32`` — read off the data, there is no float
tree).  Orthant containment only ever compares, and ranks preserve
every comparison, so answers are identical: a query translates its closed
effective bounds into closed rank bounds once per call
(:meth:`BoxBatch.coded <repro.index.query_box.BoxBatch.coded>`, two
``searchsorted`` per constrained column) and the walk, the bbox prunes and
the containment kernel run on the integers.

**A code column is stored once.**  Two columns with equal level tables
and equal codes are one fact: Algorithm 3's weights ``w + delta_i`` and
``w - delta_i`` exist to carry per-dataset synopsis error (Remark 2), and
on an exact lake (``delta_i = 0``) they coincide.  :func:`_merge` finds
such a column before the matrix exists and stores only the first; the
tree keeps ``columns`` (column ``j`` → the code column holding it, the
identity when nothing repeats), a query intersects the rank bounds of the
columns sharing one (:func:`~repro.index.query_box._fold_columns`), and
the walk, the prunes and the kernel run on the ``k_stored`` code columns
unchanged.  Splits pick the first widest column, so dropping a later
duplicate plants the same tree: same node spans, key order and answers.

Codes sit in tree order,
column-major (each coordinate of a node's slice is one contiguous run —
what the per-column kernel reads), beside the dataset-key column (the
same smallest-unsigned-dtype rule over the largest key: ``uint8`` up to
256 datasets a shard) and bool active / dead masks; nodes are rows of a
preorder table —
slice bounds, bounding box *in code space* (one column per code column),
active counter, right-child index (the left child of node ``i`` is ``i +
1``).  Coordinates + node boxes per mapped point on the four benchmark
lakes (seed 2027, 4 shards, float64 columns → codes and level tables →
the weights' codes stored once): ``cold_2d`` 80.7 → 10.2 → 9.2 B
(``uint8``, at most 186 levels a column), ``warm_point`` 48.6 → 16.5 →
14.4 B (``uint16``, 5 678 levels), ``ingest_churn`` 48.6 → 16.6 → 14.5 B,
``federated_batch`` 48.5 → 16.4 → 14.4 B.  Tables are per column rather
than one shared by all columns of a shard: sharing would save table bytes
on the 1-D lakes (2.8 → 2.2 MB on ``warm_point``) but needs two-byte codes
where one does (4.6 → 9.2 MB on ``cold_2d``); 9.6 against 13.2 MB over the
four.

**Construction never holds a float matrix, and never sorts a column to
rank it.**  Algorithms 1 and 3 take every mapped coordinate from a
coreset's sorted coordinates or the box, and every weight from the
``count/s ± delta`` lattice, so the enumerator already knows each rank: a
tree is built from a stream of ``(codes, tables, ids)`` blocks
(:meth:`DynamicKDTree.from_blocks`) — the Ptile builders' pieces of at
most :data:`~repro.index.backend.BLOCK_ELEMENTS` elements, born as level
codes.  :func:`_merge` unions the levels the blocks' rows use per column
(a sort of a few hundred values, by the build path's one distinct-values
pass, :func:`~repro.geometry.rect_enum._sorted_unique`, which never
loads ``numpy.ma``), moves every block's codes into the one ``(k_stored,
n)`` code matrix through a table-sized lookup, and the tree is planted on the
codes: arrays equal, byte for byte, to coding the decoded rows, however
the stream is cut.  Only rows that arrive as floats are factored by
:func:`_encode` (one ``np.unique`` a column): the constructor's points and
the side buffer at a rebuild.

The side buffer is a float :class:`~repro.index.columnar.ColumnarStore`
(not an engine of its own: this buffer is its one serving job) queried
with the original box — appends must stay O(1), and a new level would
re-code the whole store; :meth:`DynamicKDTree._rebuild` is the same merge
over two blocks, the live main rows *as the codes they already are*
and the freshly coded buffer, so new levels interleave the old ones at the
amortised cost inserts already paid and nothing is decoded; the merge
finds the shared columns afresh, so a buffered ``delta > 0`` row simply
keeps the two weights apart.  ``to_arrays`` hands out codes, column map,
the level tables of all ``k`` columns, key column and node table and
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

from repro.geometry.rect_enum import _sorted_unique
from repro.index.backend import id_column
from repro.index.columnar import ColumnarStore
from repro.index.query_box import BoxBatch, QueryBox, _as_batch, _fold_columns

#: Maximum number of points per leaf, read each time a tree is planted
#: (first build and every ``_rebuild``; it shapes the node table only,
#: never an answer, so a restored tree need not remember what it was built
#: with).  A node visit costs about as much dispatch as scanning a few
#: hundred points, and the multi-box walk stops descending once ``alive
#: boxes x slice points`` fits :data:`MULTIBOX_BROADCAST_CUTOFF` anyway, so
#: small leaves only multiply the node table (``2 k_stored`` codes + 3
#: ``int32`` per node, persisted in snapshots) and the single-box walks.
#: In-process on the rank-coded 2-D ``cold_2d`` lake (seed 2027, 455 k
#: mapped points, 4 shards, 2-vCPU host) at leaf sizes 32 / 64 / 128 / 256
#: / 512 / 1024 / 2048, two runs each: snapshot 5.76 / 5.27 / 5.02 / 4.90
#: / 4.84 / 4.81 / 4.79 MB; one shard's single-box ``query`` p50 5.6-7.1 /
#: 5.3-6.5 / 4.5-4.8 / 3.0-3.5 / 2.1-2.4 / 2.2-2.5 / 1.9-2.0 ms; its
#: Algorithm-4 timed loop 50-60 / 42-55 / 37-40 / 26-32 / 20-23 / 22-25 /
#: 20-21 ms; a cold 4-expression ``search_batch`` flat at 9-12 ms.
DEFAULT_LEAF_SIZE = 512

#: Rebuild the main tree when the side buffer exceeds this fraction of it.
REBUILD_FRACTION = 0.25
#: ... but never rebuild for buffers smaller than this.
MIN_BUFFER_FOR_REBUILD = 64

#: In the multi-box walk, stop descending and broadcast-test a node's
#: contiguous point slice directly once ``alive boxes x slice points``
#: falls under this budget: one vectorized containment pass is cheaper
#: than the Python node visits a deeper descent would cost.  A cost
#: setting, never an answer: at 0 the walk descends to every leaf, past
#: every tree's size it scans from the root, and both answer alike.
#: Chosen from in-process ``search_batch`` p50 (ms), 200 cold batches of
#: 4 expressions, leaf cache off, 4 shards, 2-vCPU host; the median of 3
#: runs (seed 2027) and of 2 runs (seed 2029) a cell, the budgets of a
#: lake alternating in order.  The four bench lakes as built, and 256
#: datasets of the same 2-D family, where scanning from the root loses:
#:
#:   budget              32768  131072  262144  524288  1048576  none
#:   cold_2d      2027    12.9    10.7    10.8    11.7     11.4  11.5
#:                2029    12.5    11.0    11.9    11.4     12.3  12.0
#:   ingest_churn 2027     9.7     8.7     8.3     8.0      7.7   7.3
#:                2029     8.8     7.1     7.4     7.5      8.2   7.2
#:   warm_point   2027    13.8    11.7    11.3    12.2     11.5  12.5
#:                2029    11.4    12.2    11.1    10.6     11.5  11.0
#:   federated    2027    10.6     9.1     8.1     8.6      8.0   8.7
#:                2029     8.6     8.2     7.9     8.6      8.2   9.4
#:   2-D x 256    2027    31.1    25.6    24.5    25.3     29.6  41.7
#:                2029    29.6    24.7    24.7    25.0     27.4  43.0
#:
#: Every lake is flat from 131072 to 524288, and the large 2-D lake turns
#: up past it; the value sits in the middle of the flat.  (A 1-D bench
#: shard holds 21-42 k mapped points, so at this budget a batch of a few
#: boxes scans it from the root.)
MULTIBOX_BROADCAST_CUTOFF = 262144


def _encode(cols: Iterable[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Factor ``k`` float columns into their sorted level tables and, per
    column, every point's rank in it — narrowed at once to the smallest
    unsigned dtype the table allows, so no 8-byte rank column outlives its
    own iteration."""
    tables, ranks = [], []
    for col in cols:
        table, inverse = np.unique(col, return_inverse=True)
        tables.append(table)
        ranks.append(inverse.astype(np.min_scalar_type(max(table.size - 1, 0))))
    return ranks, tables


def _aliases(blocks: Sequence[tuple], lookups: list, tables: list, i: int, j: int) -> bool:
    """Whether column ``j`` has column ``i``'s merged level table and, in
    every block, its merged codes."""
    if not np.array_equal(tables[i], tables[j]):
        return False
    for (codes, _), lookup in zip(blocks, lookups):
        if np.array_equal(lookup[i], lookup[j]):  # the same local levels
            same = np.array_equal(codes[i], codes[j])
        else:
            same = np.array_equal(lookup[i][codes[i]], lookup[j][codes[j]])
        if not same:
            return False
    return True


def _merge(blocks: Sequence[tuple]) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """One ``(k_stored, n)`` code matrix, its ``k`` level tables and the
    column map from coded ``(codes, tables)`` blocks, rows in block order.

    A column's table is the union of the levels the blocks' rows use (a
    used mask per block drops the rest: an enumerator's stack tables, a
    removed row's last level), so it holds exactly the values present; a
    block's codes move into it through one table-sized lookup.  A column
    whose table and codes equal an earlier column's is found before the
    matrix exists and not stored again: ``columns[j]`` is the matrix row
    holding column ``j``, rows numbered in first-use order.  One dtype for
    the whole matrix — the smallest unsigned one that holds the longest
    table — so a node's slice stays one ``(L, k_stored)`` array for the
    containment kernel.
    """
    used: list[list[np.ndarray]] = [[] for _ in blocks[0][1]]
    for codes, tables in blocks:
        for j, (col, table) in enumerate(zip(codes, tables)):
            mask = np.zeros(table.size, dtype=bool)
            mask[col] = True
            used[j].append(table[mask])
    tables = [_sorted_unique(np.concatenate(column)) for column in used]
    dtype = np.min_scalar_type(max(max(t.size for t in tables) - 1, 0))
    lookups = [
        [np.searchsorted(table, level).astype(dtype) for table, level in zip(tables, local)]
        for _, local in blocks
    ]
    stored: list[int] = []  # the first column of every matrix row
    columns = np.empty(len(tables), dtype=np.min_scalar_type(len(tables) - 1))
    for j in range(len(tables)):
        row = next(
            (r for r, i in enumerate(stored) if _aliases(blocks, lookups, tables, i, j)),
            len(stored),
        )
        if row == len(stored):
            stored.append(j)
        columns[j] = row
    out = np.empty((len(stored), sum(len(c[0]) for c, _ in blocks)), dtype=dtype)
    start = 0
    for (codes, _), lookup in zip(blocks, lookups):
        end = start + len(codes[0])
        for row, j in enumerate(stored):
            np.take(lookup[j], codes[j], out=out[row, start:end])
        start = end
    return out, tables, columns


def _first_uses(columns: np.ndarray, n_stored: int) -> np.ndarray:
    """The first column of every code column under a column map, or
    ``ValueError`` unless the map is integer, one-dimensional and onto
    ``range(n_stored)`` in first-use order (what :func:`_merge` writes)."""
    if columns.dtype.kind not in "iu" or columns.ndim != 1 or not columns.size:
        raise ValueError("the column map must be a non-empty integer vector")
    rows = columns.astype(np.int64)
    seen = np.maximum.accumulate(np.concatenate(([-1], rows[:-1])))
    if rows.min() < 0 or (rows > seen + 1).any() or rows.max() != n_stored - 1:
        raise ValueError("the column map must reach every code column in first-use order")
    return np.flatnonzero(rows > seen)


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
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or not pts.shape[1]:
            raise ValueError("points must be a non-empty (n, k) array")
        self._fill([(*_encode(pts.T), ids)])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple]) -> "DynamicKDTree":
        """The tree over the rows of a stream of ``(codes, tables, ids)``
        blocks (:func:`~repro.index.backend.build_engine`'s pieces) —
        arrays equal to ``DynamicKDTree`` of the decoded rows, but nothing
        is decoded (see the module docstring)."""
        tree = cls.__new__(cls)
        tree._fill(blocks)
        return tree

    def _fill(self, blocks: Iterable[tuple]) -> None:
        coded, groups = [], []
        for codes, tables, block_ids in blocks:
            if len(codes) != len(tables) or (coded and len(tables) != len(coded[0][1])):
                raise ValueError("blocks must code (n, k) points of one k")
            groups.append(id_column(block_ids, len(codes[0])))
            coded.append((codes, tables))
        if not sum(group.size for group in groups):
            raise ValueError("points must be a non-empty (n, k) array")
        group = np.concatenate(groups)  # promotes to the widest block's dtype
        self._build(*_merge(coded), group, np.ones(group.size, dtype=bool))

    def _build(
        self,
        codes: np.ndarray,
        tables: list[np.ndarray],
        columns: np.ndarray,
        group: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Plant the main tree over a ``(k_stored, n)`` code matrix.

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
        box = np.empty((2, cap, codes.shape[0]), dtype=codes.dtype)  # lo, hi
        perm = np.arange(n)
        top = np.iinfo(codes.dtype).max
        stack = [(0, n, -1)]
        m = 0
        while stack:
            start, end, parent = stack.pop()
            if parent >= 0:
                span[2, parent] = m
            seg = codes[:, start:end]
            lo = seg.min(axis=1, initial=top)
            hi = seg.max(axis=1, initial=0)
            span[0, m], span[1, m] = start, end
            box[0, m], box[1, m] = lo, hi
            if end - start > leaf_size:
                mid = (end - start) // 2
                part = np.argpartition(seg[int(np.argmax(hi - lo))], mid)
                # np.take, not fancy indexing: same result, and planting a
                # cold_2d shard takes 28 ms instead of 40.
                codes[:, start:end] = np.take(seg, part, axis=1)
                perm[start:end] = np.take(perm[start:end], part)
                stack.append((start + mid, end, m))
                stack.append((start, start + mid, -1))
            m += 1
        self._adopt(
            codes, tables, columns, group[perm], active[perm],
            span[:, :m].copy(), box[:, :m].copy(),
        )

    def _adopt(
        self,
        codes: np.ndarray,
        tables: list[np.ndarray],
        columns: np.ndarray,
        group: np.ndarray,
        active: np.ndarray,
        span: np.ndarray,
        box: np.ndarray,
    ) -> None:
        self.dim = len(tables)
        self._pts = codes.T  # (n, k_stored) rank codes, column-major
        self._tables = tables  # per column: sorted float64 levels
        self._columns = columns  # per column: the code column holding it
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
        duplicated, NaN), code columns that are not unsigned, no column
        map or one that is not integer, not one entry per table, not onto
        the code columns in first-use order, or maps columns with different
        tables to one code column, or a key column that is not unsigned of
        at most 4 bytes or has a key outside ``[0, 2^31)``.  A key column
        wider than its keys need is narrowed (a private copy).  An emptied
        tree has no rows, no levels and one empty root.
        """
        codes, levels, starts = arrays["codes"], arrays["levels"], arrays["level_start"]
        span, box = arrays["node_span"], arrays["node_box"]
        group = arrays["group"]
        active = np.array(arrays["active"], dtype=bool)
        n = codes.shape[1] if codes.ndim == 2 else -1
        if (
            codes.ndim != 2
            or codes.dtype.kind != "u"
            or group.dtype.kind == "i"
            or group.dtype.itemsize > 4
            or not group.shape == active.shape == codes.shape[1:]
            or span.ndim != 2
            or span.shape[0] != 3
            or box.shape != (2, span.shape[1], codes.shape[0])
            or box.dtype != codes.dtype
            or tuple(span[:2, :1].ravel()) != (0, n)
            or (n == 0 and span.shape[1] != 1)
        ):
            raise ValueError("backend arrays do not describe one kd-tree")
        columns = arrays.get("columns")
        if columns is None:
            raise ValueError("backend arrays hold no column map")
        first = _first_uses(columns, codes.shape[0])
        sizes = np.diff(starts)  # none at all once every row is removed
        if (
            levels.dtype != np.float64
            or levels.ndim != 1
            or starts.dtype.kind not in "iu"
            or starts.shape != (columns.size + 1,)
            or starts[0] != 0
            or starts[-1] != levels.size
            or (sizes < 1 if n else sizes != 0).any()
        ):
            raise ValueError("level tables do not match the code columns")
        rising = np.diff(levels) > 0
        rising[starts[1:-1][sizes[:-1] > 0] - 1] = True  # the next table begins
        if np.isnan(levels).any() or not rising.all():
            raise ValueError("level tables must be strictly increasing and NaN-free")
        tables = [levels[a:b] for a, b in zip(starts[:-1], starts[1:])]
        if any(
            not np.array_equal(table, tables[first[row]])
            for table, row in zip(tables, columns)
        ):
            raise ValueError("columns sharing a code column must share a level table")
        stored_sizes = sizes[first]
        if n and ((codes.max(axis=1) >= stored_sizes).any() or (box >= stored_sizes).any()):
            raise ValueError("a code or node box exceeds its column's level count")
        tree = cls.__new__(cls)
        tree._adopt(codes, tables, columns, id_column(group, group.size), active, span, box)
        return tree

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The tree's own arrays: ``codes`` as ``(k_stored, n)`` columns in
        tree order, the column map (``columns[j]``: the code column holding
        column ``j``), the level tables of all ``k`` columns end to end
        (``levels``, column ``j``'s at ``level_start[j]:level_start[j +
        1]``), the key column, a copy of the active mask, the node table
        (boxes in code space, one column per code column).

        Buffered or removed points are folded in by a rebuild first —
        invisible to queries, and what the next large insert would do.
        """
        if self._buf is not None or self._n_dead:
            self._rebuild()
        return {
            "codes": self._pts.T,
            "columns": self._columns,
            "levels": np.concatenate(self._tables),
            "level_start": np.cumsum([0] + [t.size for t in self._tables]),
            "group": self._group,
            "active": self._active.copy(),
            "node_span": self._span,
            "node_box": self._box,
        }

    @property
    def nbytes(self) -> int:
        """Bytes held in arrays: codes, column map, level tables, key
        column, masks, node table, side buffer."""
        buf = self._buf
        own = (
            self._pts, self._columns, *self._tables, self._group, self._active,
            self._dead, self._span, self._box, self._count,
        )
        return sum(a.nbytes for a in own) + (buf.nbytes if buf is not None else 0)

    def __len__(self) -> int:
        buffered = len(self._buf) if self._buf is not None else 0
        return self._group.size - self._n_dead + buffered

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
        """The non-removed rows of a main-tree column or code matrix."""
        return column[..., ~self._dead] if self._n_dead else column

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
        two blocks for :func:`_merge`, the live rows as the codes they are
        (a shared code column handed over once per column it holds) and
        the buffer's floats freshly coded (buffered values become new
        levels wherever they fall between the old ones).  The merge finds
        the shared columns afresh: a buffered row that tells two of them
        apart (a synopsis with ``delta > 0``) stores them apart."""
        stored = list(self._live(self._pts.T))
        blocks = [([stored[row] for row in self._columns], self._tables)]
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
    def _check_box(self, box: QueryBox | BoxBatch) -> None:
        if box.dim != self.dim:
            raise ValueError(f"query box has dim {box.dim}, tree has dim {self.dim}")

    def _coded(self, batch: BoxBatch) -> tuple[BoxBatch, np.ndarray]:
        """A batch on the stored code columns: bounds translated to ranks,
        then intersected where columns share a code column."""
        return _fold_columns(*batch.coded(self._tables, self._pts.dtype), self._columns)

    def _slice(self, node: int) -> tuple[int, int]:
        return int(self._start[node]), int(self._end[node])

    def _active_rows(self, node: int) -> np.ndarray:
        """Row indexes of the active points in a node's contiguous slice."""
        start, end = self._slice(node)
        if self._count[node] == end - start:
            return np.arange(start, end)
        return start + np.flatnonzero(self._active[start:end])

    def _visit(self, box: QueryBox):
        """The pruned single-box descent, in code space, on the box's coded
        one-row batch: yields ``(node, None)`` for every maximal node with
        active points whose bbox the box contains, and ``(leaf, rows)`` —
        the leaf's active rows inside the box — for every leaf it merely
        intersects.  It serves ``report_first`` (the paper's ReportFirst
        loop, stopping at the first hit) and ``count``, which stay off the
        batch kernel's fixed cost; reporting a box is :meth:`report_many`."""
        self._check_box(box)
        coded, keep = self._coded(box.batch)
        stack = [0] if keep.size else []
        while stack:
            node = stack.pop()
            lo, hi = self._lo[node], self._hi[node]
            if self._count[node] == 0 or not coded.intersects_bbox(lo, hi)[0]:
                continue
            if coded.contains_bbox(lo, hi)[0]:
                yield node, None
            elif self._right[node] == 0:
                start, end = self._slice(node)
                mask = coded.contains_points(self._pts[start:end])[0]
                mask &= self._active[start:end]
                yield node, start + np.flatnonzero(mask)
            else:
                stack.append(node + 1)
                stack.append(int(self._right[node]))

    def report_first(self, box: QueryBox):
        """The key of one arbitrary active point inside the box, or None."""
        for node, hits in self._visit(box):
            if hits is None:  # count > 0: the slice has an active point
                start, end = self._slice(node)
                hits = np.array([start + np.argmax(self._active[start:end])])
            if hits.size:
                return int(self._group[hits[0]])
        return self._buf.report_first(box) if self._buf is not None else None

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
    def _walk_many(self, batch: BoxBatch, on_full, on_scan) -> None:  # lint: hot-path
        """One shared multi-box walk of the main tree.

        The tree is traversed once with the subset of boxes still *alive*
        at each node: the intersect/contain prunes for all alive boxes are
        one broadcast comparison instead of Q separate Python walks.
        ``on_full(node, boxes)`` is called for the boxes that contain a
        node's whole bbox, ``on_scan(start, inside, boxes)`` with the
        ``(q, L)`` active-and-inside matrix of a leaf — or of a subtree
        whose ``alive boxes x slice points`` fits
        :data:`MULTIBOX_BROADCAST_CUTOFF`, where one broadcast pass over
        its contiguous slice beats descending further.  The float
        ``batch`` is only coded here, against this tree's level tables: a
        batch shared by several trees is built once by its caller.
        """
        self._check_box(batch)
        # Boxes that admit no level of some column drop out here; ``keep``
        # maps the coded batch's rows back to the caller's box indexes.
        coded, keep = self._coded(batch)
        starts, ends, rights = self._span.tolist()
        count, lo, hi = self._count, self._lo, self._hi
        stack = [(0, np.arange(keep.size))]
        while stack:
            node, alive = stack.pop()
            if count[node] == 0:
                continue
            alive = alive[coded.intersects_bbox(lo[node], hi[node], alive)]
            if alive.size == 0:
                continue
            full = coded.contains_bbox(lo[node], hi[node], alive)
            if full.any():
                on_full(node, keep[alive[full]])
                alive = alive[~full]
                if alive.size == 0:
                    continue
            start, end = starts[node], ends[node]
            if rights[node] == 0 or alive.size * (end - start) <= MULTIBOX_BROADCAST_CUTOFF:
                inside = coded.contains_points(self._pts[start:end], alive)
                inside &= self._active[start:end][None, :]
                on_scan(start, inside, keep[alive])
            else:
                stack.append((node + 1, alive))
                stack.append((rights[node], alive))

    def report_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box int arrays of the hit points' keys (one per point) via
        one shared multi-box tree walk.

        The one reporting kernel: a batch of deduplicated leaves on the
        service cold path hits every shard's tree in one call, an untimed
        library query is a batch of one box, and
        :meth:`report_groups_many` reduces each array to its sorted keys.
        ``boxes`` may be a :class:`~repro.index.query_box.BoxBatch`
        already, which the walk and the side buffer then share as it is.
        """
        if not len(boxes):
            return []
        batch = _as_batch(boxes)
        chunks: list[list[np.ndarray]] = [[] for _ in range(len(batch))]

        def on_full(node, full):
            hits = self._active_rows(node)
            for qi in full:
                chunks[qi].append(hits)

        def on_scan(start, inside, alive):
            for row, qi in zip(inside, alive):
                if row.any():
                    chunks[qi].append(start + np.flatnonzero(row))

        self._walk_many(batch, on_full, on_scan)
        out = [
            self._group[np.concatenate(c) if c else np.empty(0, dtype=np.intp)]
            for c in chunks
        ]
        if self._buf is not None:
            out = [np.append(a, b) for a, b in zip(out, self._buf.report_many(batch))]
        return out

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box sorted unique key arrays: the shared walk plus one
        integer ``np.unique`` per box."""
        return [np.unique(hit_groups) for hit_groups in self.report_many(boxes)]
