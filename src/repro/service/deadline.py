"""Monotonic deadline budgets for query serving.

A :class:`Deadline` is an absolute expiry instant on the
``time.perf_counter()`` clock — the same clock every other stamp in the
serving layer uses — created from a relative budget the moment a request
enters the service.  It is threaded *by reference* through
``QueryService.search_batch`` → ``ShardedBatchExecutor`` →
``DatasetSearchEngine.eval_leaf_batch_bits``, where cheap checkpoint
polls (:meth:`Deadline.expired`, one clock read and one comparison)
between shards and leaves raise
:class:`~repro.errors.DeadlineExceeded` carrying the partial results
computed so far.

Wall-clock deadlines deliberately do not exist here: ``time.time()`` can
jump (NTP), and a budget that fires early or never because the clock
stepped would be far worse than the one extra nanosecond
``perf_counter`` costs.
"""

from __future__ import annotations

import sys
import time

from repro.errors import QueryError


class Deadline:
    """An absolute expiry instant on the ``perf_counter`` clock.

    Examples
    --------
    >>> d = Deadline(60.0)
    >>> d.expired()
    False
    >>> d.remaining() <= 60.0
    True
    >>> Deadline.from_ms(0.0)
    Traceback (most recent call last):
        ...
    repro.errors.QueryError: deadline budget must be positive and finite, got 0.0 ms
    """

    __slots__ = ("expires_at",)

    def __init__(self, budget_s: float) -> None:
        self.expires_at = time.perf_counter() + float(budget_s)

    @classmethod
    def from_ms(cls, budget_ms: float) -> "Deadline":
        """The wire-format constructor (``"deadline_ms"`` on ``/search``):
        a finite JSON number > 0 — ``float()`` would pass ``"5"`` and
        ``true`` (a 1 ms budget)."""
        if isinstance(budget_ms, bool) or not isinstance(budget_ms, (int, float)):
            raise QueryError(f"deadline_ms must be a number, got {budget_ms!r}")
        # NaN, Infinity and an integer past the float range fail here too.
        if not 0.0 < budget_ms <= sys.float_info.max:
            raise QueryError(
                f"deadline budget must be positive and finite, got {budget_ms} ms"
            )
        return cls(budget_ms / 1e3)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.perf_counter()

    def expired(self) -> bool:
        """The checkpoint poll: one clock read, one comparison."""
        return time.perf_counter() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(remaining={self.remaining():.6f}s)"
