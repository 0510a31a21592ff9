"""Classic multi-level range tree over weighted points (Section 2).

The textbook construction [de Berg et al., Computational Geometry]: a
balanced binary tree over the first coordinate whose every node stores an
*associated structure* — a range tree over the remaining coordinates of the
points in the node's subtree; the last level is a
:class:`~repro.index.sorted_list.SortedListIndex`.  A ``k``-dimensional
query decomposes the first coordinate's range into ``O(log n)`` canonical
nodes and recurses into their associated structures.

Dynamics are provided by activation flags (the paper only ever deletes
points *temporarily* during a query and re-inserts them afterwards —
Algorithms 2 and 4 — which maps exactly to deactivate/activate).  A
deactivation updates the ``O(log^{k-1} n)`` associated structures on the
root-to-leaf path, each in ``O(log n)``, matching the
``O(log^{k} n)``-style update bounds quoted in Section 2.

Memory is ``Theta(n log^{k-1} n)``, which in pure Python is practical only
for small ``k``; the higher-dimensional mapped spaces of the Ptile indexes
default to :class:`~repro.index.kd_tree.DynamicKDTree` instead (README,
"Range-search backends").  Both engines share the same protocol and the
test suite cross-checks them against each other.
"""

from __future__ import annotations

import bisect
import functools
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import CapabilityError, ConstructionError
from repro.geometry.interval import Interval
from repro.index.backend import id_column
from repro.index.query_box import QueryBox
from repro.index.sorted_list import SortedListIndex


#: The most associated-structure entries (:func:`_assoc_entries`) a build
#: may make; a larger one is a ``ConstructionError`` before it allocates.
#: An entry costs ~750–870 B (``tracemalloc`` peak of 126 x 6 and 400 x 6
#: point builds), so this is ~0.8 GB.  The largest build tier-1, the
#: doctests and CI's paper scripts make holds 214 632 entries (126 mapped
#: points in 6 dimensions, in ``tests/core/test_ptile_range.py``); the
#: paper scripts' largest holds 7 872.
MAX_ASSOC_ENTRIES = 1 << 20


@functools.lru_cache(maxsize=None)
def _assoc_entries(n: int, k: int) -> int:
    """The sorted-list entries a range tree over ``n`` points in ``k``
    dimensions holds, by the construction's own recurrence: a node over
    ``m`` points keeps a sorted list of ``m`` (``k = 1``) or a tree over
    its ``m`` points' other ``k - 1`` coordinates, and splits ``m`` at
    ``m // 2`` until ``m = 1``.

    >>> _assoc_entries(4, 1), _assoc_entries(4, 2)
    (12, 24)
    """
    own = n if k == 1 else _assoc_entries(n, k - 1)
    if n == 1:
        return own
    return own + _assoc_entries(n // 2, k) + _assoc_entries(n - n // 2, k)


class _Node:
    """A node of the primary tree: a contiguous slice of the sorted order."""

    __slots__ = ("lo", "hi", "left", "right", "assoc")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.assoc = None  # RangeTree over remaining dims, or SortedListIndex


class RangeTree:
    """A ``k``-dimensional range tree with activation-based dynamics.

    Parameters
    ----------
    points:
        ``(n, k)`` array.
    ids:
        Optional integer dataset key of every point (default: positions).
        Internally every level keys its points by row position, which is
        unique; a report maps the rows it finds to their keys.

    Examples
    --------
    >>> import numpy as np
    >>> rt = RangeTree(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]))
    >>> sorted(rt.report_many([QueryBox.closed([0.5, 0.5], [2.5, 2.5])])[0])
    [1, 2]
    """

    def __init__(self, points: np.ndarray, ids: Optional[Iterable] = None) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, k) array")
        entries = _assoc_entries(*pts.shape)
        if entries > MAX_ASSOC_ENTRIES:
            raise ConstructionError(
                f"a range tree over {pts.shape[0]} points in {pts.shape[1]} "
                f"dimensions would hold {entries:,} associated-structure entries, "
                f"past MAX_ASSOC_ENTRIES = {MAX_ASSOC_ENTRIES:,}; build it with "
                "engine 'kd'"
            )
        self._group = id_column(ids, pts.shape[0])
        self._plant(pts, list(range(pts.shape[0])))

    def _plant(self, pts: np.ndarray, rows: list) -> None:
        """Build this level over ``pts``, whose points are the top-level
        ``rows`` (the ids every level and sorted list keys them by)."""
        self.dim = pts.shape[1]
        order = np.argsort(pts[:, 0], kind="stable")
        self._keys = pts[order, 0]
        self._row_ids = [rows[i] for i in order]
        self._pos_of_id = {pid: pos for pos, pid in enumerate(self._row_ids)}
        self._rest = pts[order, 1:]
        self._root = self._build(0, pts.shape[0])

    def _build(self, lo: int, hi: int) -> _Node:
        node = _Node(lo, hi)
        if self.dim == 1:
            node.assoc = SortedListIndex(self._keys[lo:hi], ids=self._row_ids[lo:hi])
        else:
            node.assoc = RangeTree.__new__(RangeTree)
            node.assoc._plant(self._rest[lo:hi], self._row_ids[lo:hi])
        if hi - lo > 1:
            mid = (lo + hi) // 2
            node.left = self._build(lo, mid)
            node.right = self._build(mid, hi)
        return node

    def __len__(self) -> int:
        return len(self._row_ids)

    @property
    def nbytes(self) -> int:
        """Bytes of the coordinate arrays alone: the nodes, id list and
        associated structures are Python objects no array sum sees."""
        return self._keys.nbytes + self._rest.nbytes

    def insert(self, points: np.ndarray, ids: Iterable) -> None:
        """Unsupported — the textbook range tree is static."""
        raise CapabilityError(
            "RangeTree is static; use the 'kd' engine for dynamic insertion"
        )

    def remove_group(self, group: int) -> int:
        """Unsupported — the textbook range tree is static."""
        raise CapabilityError(
            "RangeTree is static; use the 'kd' engine for dynamic removal"
        )

    def _activity(self) -> SortedListIndex:
        """The last-level sorted list of the root's associated chain: it
        covers every point and is the structure ``_set_active`` always
        updates."""
        t: "RangeTree" = self
        while t.dim > 1:
            t = t._root.assoc
        return t._root.assoc

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def _toggle_group(self, group: int, active: bool) -> int:
        sli = self._activity()
        rows = [
            row for row in np.flatnonzero(self._group == group).tolist()
            if sli.is_active(row) != active
        ]
        for row in rows:
            self._set_active(row, active)
        return len(rows)

    def deactivate_group(self, group: int) -> int:
        """Hide every active point of ``group`` (a loop of point toggles —
        the multi-level structure has no bulk form)."""
        return self._toggle_group(group, active=False)

    def activate_group(self, group: int) -> int:
        """Re-show every hidden point of ``group``."""
        return self._toggle_group(group, active=True)

    def _set_active(self, row: int, active: bool) -> None:
        pos = self._pos_of_id[row]
        node = self._root
        while node is not None:
            if isinstance(node.assoc, SortedListIndex):
                if active:
                    node.assoc.activate(row)
                else:
                    node.assoc.deactivate(row)
            else:
                node.assoc._set_active(row, active)
            if node.left is None:
                break
            node = node.left if pos < node.left.hi else node.right

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _key_range(self, box: QueryBox) -> tuple[int, int]:
        lo, hi = box.lo[0], box.hi[0]
        if box.lo_open[0]:
            left = bisect.bisect_right(self._keys, lo)
        else:
            left = bisect.bisect_left(self._keys, lo)
        if box.hi_open[0]:
            right = bisect.bisect_left(self._keys, hi)
        else:
            right = bisect.bisect_right(self._keys, hi)
        return left, max(left, right)

    def _canonical(self, node: _Node, lo: int, hi: int, out: list) -> None:
        """Collect the O(log n) nodes exactly covering positions [lo, hi)."""
        if lo >= node.hi or hi <= node.lo:
            return
        if lo <= node.lo and node.hi <= hi:
            out.append(node)
            return
        if node.left is not None:
            self._canonical(node.left, lo, hi, out)
            self._canonical(node.right, lo, hi, out)

    def _sub_box(self, box: QueryBox) -> Optional[QueryBox]:
        if box.dim == 1:
            return None
        cons = [
            (float(box.lo[i]), float(box.hi[i]), bool(box.lo_open[i]), bool(box.hi_open[i]))
            for i in range(1, box.dim)
        ]
        return QueryBox(cons)

    def _last_interval(self, box: QueryBox) -> Interval:
        return Interval(
            float(box.lo[0]), float(box.hi[0]), bool(box.lo_open[0]), bool(box.hi_open[0])
        )

    def _check_box(self, box: QueryBox) -> None:
        if box.dim != self.dim:
            raise ValueError(f"query box has dim {box.dim}, tree has dim {self.dim}")

    def _rows(self, box: QueryBox) -> list:
        """The rows of the active points inside the box."""
        self._check_box(box)
        if self.dim == 1:
            return self._root.assoc.report(self._last_interval(box))
        left, right = self._key_range(box)
        nodes: list[_Node] = []
        self._canonical(self._root, left, right, nodes)
        sub = self._sub_box(box)
        out: list = []
        for node in nodes:
            out.extend(node.assoc._rows(sub))
        return out

    def _first_row(self, box: QueryBox):
        """The row of one arbitrary active point inside the box, or None."""
        self._check_box(box)
        if self.dim == 1:
            return self._root.assoc.report_first(self._last_interval(box))
        left, right = self._key_range(box)
        nodes: list[_Node] = []
        self._canonical(self._root, left, right, nodes)
        sub = self._sub_box(box)
        for node in nodes:
            found = node.assoc._first_row(sub)
            if found is not None:
                return found
        return None

    def report_first(self, box: QueryBox):
        """The key of one arbitrary active point inside the box, or None."""
        row = self._first_row(box)
        return None if row is None else int(self._group[row])

    # ------------------------------------------------------------------
    # Multi-box batch kernels: the only way to report a box.  The
    # multi-level decomposition offers no cross-box sharing (each box
    # selects its own canonical node set), so the batch form is the
    # straightforward per-box loop over ``_rows`` — the protocol's answer
    # form is what callers rely on, not a speedup.
    # ------------------------------------------------------------------
    def report_many(self, boxes: Sequence[QueryBox]) -> list[list]:
        """Per-box lists of the hit points' keys, one per point (per-box
        loop; see the comment above)."""
        return [self._group[self._rows(box)].tolist() for box in boxes]

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box sorted unique key arrays (integer even when empty: the
        rows index the key column, never an empty Python list)."""
        return [np.unique(self._group[self._rows(box)]) for box in boxes]

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box."""
        self._check_box(box)
        if self.dim == 1:
            return self._root.assoc.count(self._last_interval(box))
        left, right = self._key_range(box)
        nodes: list[_Node] = []
        self._canonical(self._root, left, right, nodes)
        sub = self._sub_box(box)
        return sum(node.assoc.count(sub) for node in nodes)
