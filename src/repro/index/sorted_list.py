"""The 1-dimensional range tree: a sorted array with activation flags.

``SortedListIndex`` stores (value, id) pairs sorted by value and supports,
over the *active* subset:

- ``report(interval)``   — all ids with value in the interval,
- ``report_first(interval)`` — one arbitrary id (the paper's ``ReportFirst``),
- ``count(interval)``    — number of active ids in the interval,
- ``deactivate(id)`` / ``activate(id)`` — the delete/re-insert trick used by
  the query procedures of Algorithms 2 and 4.

All operations are ``O(log n)`` (plus output size for ``report``) thanks to
a Fenwick tree over activation flags.  This class doubles as the associated
structure at the last level of :class:`~repro.index.range_tree.RangeTree`
and as the per-direction score tree of the Pref index (Algorithm 5).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.geometry.interval import Interval
from repro.index.fenwick import FenwickTree


class SortedListIndex:
    """Static sorted array over ``(value, id)`` pairs with O(log n) activation.

    Parameters
    ----------
    values:
        Sequence of floats.
    ids:
        Optional parallel sequence of hashable identifiers; defaults to the
        positional index.  Identifiers must be unique within one list.

    Examples
    --------
    >>> sl = SortedListIndex([0.3, 0.1, 0.9], ids=["a", "b", "c"])
    >>> sorted(sl.report(Interval(0.2, 1.0)))
    ['a', 'c']
    >>> sl.deactivate("c")
    >>> sl.report(Interval(0.2, 1.0))
    ['a']
    """

    def __init__(self, values: Sequence[float], ids: Optional[Iterable] = None) -> None:
        vals = np.asarray(list(values), dtype=float)
        id_list = list(ids) if ids is not None else list(range(len(vals)))
        if len(id_list) != len(vals):
            raise ValueError("values and ids must have equal length")
        order = np.argsort(vals, kind="stable")
        self._values = vals[order]
        self._ids = [id_list[i] for i in order]
        self._pos_of_id = {pid: pos for pos, pid in enumerate(self._ids)}
        if len(self._pos_of_id) != len(self._ids):
            raise ValueError("ids must be unique")
        self._active = FenwickTree.all_ones(len(self._ids))
        self._is_active = [True] * len(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def deactivate(self, entry_id) -> None:
        """Hide an entry from all queries (idempotent errors are raised)."""
        pos = self._pos_of_id[entry_id]
        if not self._is_active[pos]:
            raise KeyError(f"entry {entry_id!r} is already inactive")
        self._is_active[pos] = False
        self._active.add(pos, -1)

    def activate(self, entry_id) -> None:
        """Re-show a previously deactivated entry."""
        pos = self._pos_of_id[entry_id]
        if self._is_active[pos]:
            raise KeyError(f"entry {entry_id!r} is already active")
        self._is_active[pos] = True
        self._active.add(pos, +1)

    def is_active(self, entry_id) -> bool:
        """Whether the entry currently participates in queries."""
        return self._is_active[self._pos_of_id[entry_id]]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _index_range(self, interval: Interval) -> tuple[int, int]:
        """Half-open position range of values satisfying the interval."""
        if interval.lo_open:
            left = bisect.bisect_right(self._values, interval.lo)
        else:
            left = bisect.bisect_left(self._values, interval.lo)
        if interval.hi_open:
            right = bisect.bisect_left(self._values, interval.hi)
        else:
            right = bisect.bisect_right(self._values, interval.hi)
        return left, right

    def count(self, interval: Interval) -> int:
        """Number of active entries with value in the interval."""
        left, right = self._index_range(interval)
        return self._active.range_sum(left, right)

    def report(self, interval: Interval) -> list:
        """All active ids with value in the interval (ascending by value)."""
        left, right = self._index_range(interval)
        pos = left
        out = []
        while True:
            pos = self._active.find_first_positive(pos, right)
            if pos >= right:
                return out
            out.append(self._ids[pos])
            pos += 1

    def report_first(self, interval: Interval):
        """One arbitrary active id in the interval, or None — ``ReportFirst``."""
        left, right = self._index_range(interval)
        pos = self._active.find_first_positive(left, right)
        if pos >= right:
            return None
        return self._ids[pos]

    def values_of(self, entry_id) -> float:
        """The stored value of an entry (for tests and diagnostics)."""
        return float(self._values[self._pos_of_id[entry_id]])
