"""Admission control: a bounded inflight gate for the HTTP server.

Load shedding beats queue collapse: a search endpoint that accepts every
request under overload serves *all* of them slowly (threads pile up on
the shard locks, p99 explodes, deadlines fire for everyone).  The gate
caps concurrently-executing search requests at ``max_inflight``; up to
``max_queue`` excess requests wait briefly (:data:`QUEUE_TIMEOUT_S`) for a
slot, and everything beyond that is shed immediately with ``429 Too Many
Requests`` and a ``Retry-After`` hint (:data:`RETRY_AFTER_S`) — the
client's signal to back off while the requests already admitted keep their
latency budget.

The gate is deliberately tiny — one lock, one condition, three counters —
and sits entirely in the server layer: the service underneath never
sees shed requests, so ``/stats`` query telemetry stays a picture of
*admitted* work.

Examples
--------
>>> gate = AdmissionGate(max_inflight=1, max_queue=0)
>>> gate.try_acquire()
True
>>> gate.try_acquire()      # full, no queue -> shed
False
>>> gate.release()
>>> gate.snapshot()["shed"]
1
"""

from __future__ import annotations

import threading
import time

from repro.errors import ConstructionError

#: How long a queued request waits for a slot before it is shed, seconds.
QUEUE_TIMEOUT_S = 1.0

#: The back-off hint of a shed response (the ``429`` body's
#: ``retry_after_s`` and, rounded up to a whole second, its ``Retry-After``
#: header).
RETRY_AFTER_S = 1.0


class AdmissionGate:
    """Bounded-concurrency admission with a small overflow queue.

    Parameters
    ----------
    max_inflight:
        Maximum requests executing at once (must be >= 1).
    max_queue:
        How many further requests may *wait* for a slot (0 = shed
        immediately when full; a queued request is shed after
        :data:`QUEUE_TIMEOUT_S`).
    """

    def __init__(self, max_inflight: int, max_queue: int = 0) -> None:
        if max_inflight < 1:
            raise ConstructionError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ConstructionError("max_queue must be >= 0")
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0  # guarded-by: _cond
        self._queued = 0  # guarded-by: _cond
        self._admitted = 0  # guarded-by: _cond
        self._queued_total = 0  # guarded-by: _cond
        self._shed = 0  # guarded-by: _cond

    def try_acquire(self) -> bool:
        """Admit the calling request, queue it briefly, or shed it.

        Returns True when a slot was taken (the caller MUST pair it with
        :meth:`release`), False when the request should be shed.
        """
        with self._cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self._admitted += 1
                return True
            if self._queued >= self.max_queue:
                self._shed += 1
                return False
            self._queued += 1
            self._queued_total += 1
            try:
                remaining = QUEUE_TIMEOUT_S
                deadline = time.monotonic() + remaining
                while self._inflight >= self.max_inflight:
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self._shed += 1
                        return False
                    remaining = deadline - time.monotonic()
                self._inflight += 1
                self._admitted += 1
                return True
            finally:
                self._queued -= 1

    def release(self) -> None:
        """Return a slot (wakes one queued waiter, if any)."""
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def snapshot(self) -> dict:
        """JSON-ready gate state and lifetime counters."""
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "queued": self._queued,
                "admitted": self._admitted,
                "queued_total": self._queued_total,
                "shed": self._shed,
            }
