"""Query results with reporting-order metadata.

The paper's data structures are *enumeration* structures: indexes are
reported one at a time with bounded delay (Section 2, "Delay guarantees").
``QueryResult`` therefore records the order in which indexes were emitted
and per-emission timestamps, so the T-DELAY benchmark can measure the gap
between consecutive reports directly.

A ``QueryResult`` is the answer to a whole query.  A leaf of a batch
never becomes one: the engine packs each leaf's sorted key array straight
into a :class:`~repro.core.bitset.DatasetBitmap` over global ids, and the
planner combines those.  A result may carry that bitmap and materialize
``indexes`` lazily, so the Python-int list is only built when a consumer
actually reads it (the HTTP server's bitset wire format never does).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.core.bitset import DatasetBitmap


class QueryResult:
    """The outcome of one distribution-aware query.

    Attributes
    ----------
    indexes:
        Reported dataset indexes, in emission order (no duplicates).
        Materialized lazily (in sorted order) from ``bitmap`` when the
        result was produced by the bitset warm path.
    bitmap:
        The answer as a packed bitset, when the producer had one; None for
        enumeration-structure results that report indexes one at a time.
    emit_times:
        ``time.perf_counter()`` stamps, one per emitted index (same order),
        plus the query start time in ``start_time`` — enabling delay
        measurements.  Populated only when the query was issued with
        ``record_times=True``.
    stats:
        Free-form per-query counters (nodes visited, points deleted, ...).
    trace:
        Serialized span tree (a plain dict) when the query was issued with
        tracing enabled; None otherwise.  See
        :mod:`repro.service.observability` for the schema.
    maybe_bitmap:
        For *degraded* answers only (``stats["degraded"]`` is set): the
        datasets that might additionally belong to the answer beyond the
        certain ones in ``bitmap``/``indexes`` — disjoint from them, so
        the engine's answer satisfies ``must ⊆ answer ⊆ must ∪ maybe``.
        None for exact results.  See :mod:`repro.service.degrade`.
    """

    __slots__ = (
        "_indexes",
        "bitmap",
        "start_time",
        "end_time",
        "emit_times",
        "stats",
        "trace",
        "maybe_bitmap",
        "_index_set",
        "_index_set_len",
    )

    def __init__(
        self,
        indexes: Optional[list[int]] = None,
        start_time: Optional[float] = None,
        end_time: Optional[float] = None,
        emit_times: Optional[list[float]] = None,
        stats: Optional[dict] = None,
        bitmap: Optional[DatasetBitmap] = None,
        trace: Optional[dict] = None,
        maybe_bitmap: Optional[DatasetBitmap] = None,
    ) -> None:
        self._indexes = indexes if indexes is not None else ([] if bitmap is None else None)
        self.bitmap = bitmap
        self.start_time = start_time
        self.end_time = end_time
        self.emit_times = emit_times if emit_times is not None else []
        self.stats = stats if stats is not None else {}
        self.trace = trace
        self.maybe_bitmap = maybe_bitmap
        self._index_set: Optional[set[int]] = None
        self._index_set_len = -1

    # ------------------------------------------------------------------
    @property
    def indexes(self) -> list[int]:
        """Reported indexes; materialized from ``bitmap`` on first read."""
        if self._indexes is None:
            self._indexes = self.bitmap.to_list()
        return self._indexes

    @indexes.setter
    def indexes(self, value: list[int]) -> None:
        self._indexes = value
        # The assigned list is now the sole answer; a bitmap from a
        # previous producer would silently disagree with it (and the wire
        # encoder prefers the bitmap), so drop it.
        self.bitmap = None
        self._index_set = None
        self._index_set_len = -1

    @property
    def index_set(self) -> set[int]:
        """The reported indexes as a set ``J``.

        Computed once and cached (rebuilding a fresh set per access made
        every recall/precision loop quadratic).  Enumeration structures
        only ever *append* to ``indexes``, so the cache revalidates by
        length and is transparent to the report loops.
        """
        if self._indexes is None and self.bitmap is not None:
            if self._index_set is None:
                self._index_set = self.bitmap.to_set()
                self._index_set_len = len(self._index_set)
            return self._index_set
        if self._index_set is None or self._index_set_len != len(self.indexes):
            self._index_set = set(self.indexes)
            self._index_set_len = len(self._index_set)
        return self._index_set

    @property
    def out_size(self) -> int:
        """``OUT = |J|`` (popcount when only the bitmap is materialized)."""
        if self._indexes is None and self.bitmap is not None:
            return self.bitmap.count()
        return len(self.indexes)

    def delays(self) -> list[float]:
        """Gaps between consecutive emissions (incl. start→first, last→end).

        Empty when timing was not recorded.
        """
        if self.start_time is None or self.end_time is None or not self.emit_times:
            return []
        stamps = [self.start_time, *self.emit_times, self.end_time]
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def max_delay(self) -> Optional[float]:
        """Largest inter-report gap, or None without timing data."""
        gaps = self.delays()
        return max(gaps) if gaps else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryResult(out_size={self.out_size}, "
            f"timed={self.start_time is not None})"
        )


def _emit(result: QueryResult, keys: Iterable[int], record_times: bool) -> QueryResult:
    """``result`` with the keys of a lazy iterable appended to its indexes,
    in emission order.

    With ``record_times`` the start is stamped before the first key is
    asked for — before whatever work the iterable does to find it — each
    key gets one ``perf_counter`` stamp as it is emitted, and the end is
    stamped once the iterable is exhausted.
    """
    if not record_times:
        result.indexes.extend(keys)
        return result
    result.start_time = time.perf_counter()
    for key in keys:
        result.indexes.append(key)
        result.emit_times.append(time.perf_counter())
    result.end_time = time.perf_counter()
    return result
