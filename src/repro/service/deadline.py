"""Monotonic deadline budgets for query serving.

A :class:`Deadline` is an absolute expiry instant on the
``time.perf_counter()`` clock — the same clock every other stamp in the
serving layer uses — created from a relative budget the moment a request
enters the service.  It is threaded *by reference* through
``QueryService.search_batch`` → ``ShardedBatchExecutor``, whose cheap
checkpoint polls (:meth:`Deadline.expired`, one clock read and one
comparison) run before each unit and again inside its lock, never within
a unit's batched engine call.  An executor call answers every leaf or
none: ``[]`` is how the service reads a tripped budget, and the overshoot
is at most one unit's batched call.  It stays a parameter, unlike the
batch's tracer (a request context, see :mod:`repro.trace`), because it
changes what the executor returns, where a tracer only watches.

Wall-clock deadlines deliberately do not exist here: ``time.time()`` can
jump (NTP), and a budget that fires early or never because the clock
stepped would be far worse than the one extra nanosecond
``perf_counter`` costs.
"""

from __future__ import annotations

import time

from repro.wire import DEADLINE_MS, decode


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
    repro.errors.QueryError: deadline_ms must be Number(span='(0, inf)'), got 0.0
    """

    __slots__ = ("expires_at",)

    def __init__(self, budget_s: float) -> None:
        self.expires_at = time.perf_counter() + float(budget_s)

    @classmethod
    def from_ms(cls, budget_ms: float) -> "Deadline":
        """The wire-format constructor (``"deadline_ms"`` on ``/search``):
        a finite JSON number > 0, read by :data:`repro.wire.DEADLINE_MS`."""
        return cls(decode(DEADLINE_MS, budget_ms, "deadline_ms") / 1e3)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.perf_counter()

    def expired(self) -> bool:
        """The checkpoint poll: one clock read, one comparison."""
        return time.perf_counter() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(remaining={self.remaining():.6f}s)"
