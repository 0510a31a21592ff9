"""LRU cache of per-leaf answers, counting its events into a registry.

The cache sits between the planner and the sharded executor: keys are the
planner's canonical leaf keys, values are the global answers the executor
computed for those leaves — packed
:class:`~repro.core.bitset.DatasetBitmap` bitsets (``ceil(N / 64)`` words
per answer).  Caching at the *leaf* granularity — rather than whole
expressions — is what makes cross-query reuse effective: two different
expressions that share a predicate share its cached answer.
``resident_bytes`` tracks the estimated heap footprint of the stored
values, so ``/stats`` can surface cache-memory regressions.

The cache keeps its occupancy (size, ``resident_bytes``,
``max_size_seen``, ``generation``) and nothing else: every hit, miss,
upgrade, eviction and flush is one ``inc`` on the
:class:`~repro.service.observability.MetricsRegistry` it is built with
(the node's one record, ``repro_cache_*_total``), and :meth:`snapshot`
reads the counts back from there.

Cached answers are only valid for the synopsis set they were computed
against, so the cache exposes explicit :meth:`~LeafResultCache.invalidate`
(called by ``QueryService.rebuild`` whenever the synopsis set changes) and
tracks a ``generation`` counter so stale readers can detect the flush.

Live repository mutation deliberately does *not* flush the cache.  Every
entry carries the dataset-count **watermark** it was computed at: an entry
whose watermark trails the current count is still exact for every dataset
below the watermark, so the service upgrades it by evaluating the leaf on
the delta shard only and unioning (see
``ShardedBatchExecutor.eval_delta_leaves``).  Removals never touch entries
at all — tombstone masks are applied when answers are read.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.bitset import DatasetBitmap
from repro.service.observability import MetricsRegistry


def _answer_bytes(value: DatasetBitmap) -> int:
    """Estimated heap footprint of one stored answer: words buffer plus
    ndarray/view header plus bitmap object."""
    return value.nbytes + 96


@dataclass(frozen=True)
class CacheEntry:
    """One cached leaf answer plus the dataset-count it was computed at."""

    indexes: DatasetBitmap
    watermark: int = 0


class LeafResultCache:
    """A bounded LRU mapping leaf keys to packed answer bitsets.

    Parameters
    ----------
    capacity:
        Maximum number of cached leaves.  ``0`` disables caching (every
        lookup is a miss, nothing is stored) — handy for benchmarking the
        cold path without branching at call sites.
    registry:
        Where the cache counts its events (``repro_cache_*_total``).

    Examples
    --------
    >>> from repro.core.bitset import DatasetBitmap
    >>> from repro.service.observability import MetricsRegistry
    >>> bits = lambda *members: DatasetBitmap.from_indices(members, 8)
    >>> cache = LeafResultCache(capacity=2, registry=MetricsRegistry())
    >>> cache.put("a", bits(1, 2))
    >>> cache.get("a").to_list()
    [1, 2]
    >>> cache.get("b") is None
    True
    >>> cache.put("b", bits(3)); cache.put("c", bits(4))   # evicts "a" (LRU)
    >>> cache.get("a") is None, cache.snapshot()["evictions"]
    (True, 1)
    >>> cache.resident_bytes > 0
    True

    Watermarked entries support warm-cache ingestion: the service stores the
    dataset count an answer was computed at and upgrades stale entries from
    the delta shard instead of flushing.

    >>> cache.put("leaf", bits(0, 2), watermark=3)
    >>> entry = cache.get_entry("leaf")
    >>> (entry.indexes.to_list(), entry.watermark)
    ([0, 2], 3)
    """

    def __init__(self, capacity: int, registry: MetricsRegistry) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.registry = registry
        self.generation = 0
        self.max_size_seen = 0  # guarded-by: _lock
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()  # guarded-by: _lock
        self._resident_bytes = 0  # guarded-by: _lock
        # The service can sit behind a ThreadingHTTPServer, so the
        # read-then-move and insert-then-evict sequences must be atomic.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        # OrderedDict.__len__ during a concurrent popitem/clear is not a
        # documented-safe combination; the lock costs nothing off the warm
        # path and keeps the read consistent with resident_bytes.
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching recency or hit/miss counters."""
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[DatasetBitmap]:  # lint: hot-path
        """The cached answer, or None; refreshes LRU recency on hit."""
        entry = self.get_entry(key)
        return None if entry is None else entry.indexes

    def get_entry(self, key: Hashable) -> Optional[CacheEntry]:  # lint: hot-path
        """The cached :class:`CacheEntry` (answer + watermark), or None.

        Counts a hit/miss and refreshes LRU recency exactly like
        :meth:`get`; callers that care about staleness compare the entry's
        ``watermark`` against the current dataset count.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        self.registry.inc(
            "repro_cache_misses_total" if entry is None else "repro_cache_hits_total"
        )
        return entry

    def put(
        self,
        key: Hashable,
        indexes: DatasetBitmap,
        generation: Optional[int] = None,
        watermark: int = 0,
    ) -> None:
        """Store (or refresh) an answer, evicting the LRU entry if full.

        Answers are stored as-is (bitmaps are immutable by convention).
        Pass the ``generation`` observed *before* computing
        ``indexes`` to make the write flush-safe: if an :meth:`invalidate`
        happened in the meantime (the synopsis set changed
        mid-computation), the stale answer is silently dropped instead of
        poisoning the fresh cache.  ``watermark`` records the dataset count
        the answer covers.
        """
        if self.capacity == 0:
            return
        n_evicted = 0
        with self._lock:
            if generation is not None and generation != self.generation:
                return
            old = self._entries.get(key)
            if old is not None:
                self._resident_bytes -= _answer_bytes(old.indexes)
            self._entries[key] = CacheEntry(indexes, int(watermark))
            self._resident_bytes += _answer_bytes(indexes)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                _k, evicted = self._entries.popitem(last=False)
                self._resident_bytes -= _answer_bytes(evicted.indexes)
                n_evicted += 1
            self.max_size_seen = max(self.max_size_seen, len(self._entries))
        if n_evicted:
            self.registry.inc("repro_cache_evictions_total", by=n_evicted)

    def export_entries(self) -> list[tuple[Hashable, CacheEntry]]:
        """The entries in LRU order (oldest first), for snapshotting.

        A consistent copy taken under the lock; recency and counters are
        untouched, so exporting is invisible to the hit-rate accounting.
        """
        with self._lock:
            return list(self._entries.items())

    def restore_entries(
        self,
        items: "list[tuple[Hashable, CacheEntry]]",
        generation: int,
    ) -> None:
        """Replace the contents with snapshotted entries (oldest first).

        The inverse of :meth:`export_entries`: entries land in the given
        order so LRU recency survives a save/load cycle, resident-byte
        accounting is recomputed, and the generation counter is restored so
        generation-guarded writers from before the snapshot stay doomed.
        Entries beyond ``capacity`` are dropped from the old end, exactly
        as ``put`` would have evicted them (without counting evictions).
        """
        with self._lock:
            self._entries.clear()
            self._resident_bytes = 0
            kept = items[-self.capacity :] if self.capacity else []
            for key, entry in kept:
                self._entries[key] = entry
                self._resident_bytes += _answer_bytes(entry.indexes)
            self.generation = int(generation)

    def note_upgrades(self, n: int) -> None:
        """Count ``n`` stale entries refreshed in place from the delta shard."""
        self.registry.inc("repro_cache_upgrades_total", by=int(n))

    def invalidate(self) -> None:
        """Drop every entry (the synopsis set changed) and bump generation."""
        with self._lock:
            self._entries.clear()
            self._resident_bytes = 0
            self.generation += 1
        self.registry.inc("repro_cache_invalidations_total")

    @property
    def resident_bytes(self) -> int:
        """Estimated heap bytes held by the cached answers."""
        with self._lock:
            return self._resident_bytes

    def snapshot(self) -> dict:
        """Lifetime counts (read back from the registry) plus current
        occupancy, JSON-ready."""
        count = self.registry.counter_value
        hits = int(count("repro_cache_hits_total"))
        misses = int(count("repro_cache_misses_total"))
        out = {
            "hits": hits,
            "misses": misses,
            "upgrades": int(count("repro_cache_upgrades_total")),
            "evictions": int(count("repro_cache_evictions_total")),
            "invalidations": int(count("repro_cache_invalidations_total")),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
        with self._lock:
            out["max_size_seen"] = self.max_size_seen
            out["size"] = len(self._entries)
            out["capacity"] = self.capacity
            out["generation"] = self.generation
            out["resident_bytes"] = self._resident_bytes
        return out
