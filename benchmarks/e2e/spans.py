"""Span recording (server children) and wall-clock attribution (client).

The benchmark times layers from outside: :class:`SpanRecorder` swaps a
public function or method for a closure that records ``{id, name, start,
end, parent, thread, n_in, n_out}`` and restores the original on
``uninstall``.  ``parent`` is the enclosing span *on the same thread*;
spans that start on another thread (shard pool, RPC threads) are adopted
afterwards, in :func:`attribute`, by the innermost request-thread span
that was open when they started.  That works because every process reads
the same ``CLOCK_MONOTONIC`` through ``time.perf_counter`` and traced
requests are sent one at a time.

Attribution splits every instant of a request equally among the spans
that are running and have no running child at that instant.  On one
thread this is exactly the span's self time (duration minus the part its
children cover); with parallel shard spans it keeps the per-layer times
summing to the root span instead of counting overlapped time twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from typing import Callable, Optional

ROOT = "server.request"


class SpanRecorder:
    """Wraps callables with span-recording closures; one per child process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        n_in: Optional[Callable] = None,
        n_out: Optional[Callable] = None,
    ) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        def recorded(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == name:
                # Recursion inside one layer (expression_from_json on an
                # And/Or tree) is one span, not one per node.
                return fn(*args, **kwargs)
            span = {
                "id": next(ids),
                "name": name,
                "parent": stack[-1][0] if stack else None,
                "thread": threading.get_ident(),
            }
            if n_in is not None:
                span["n_in"] = n_in(*args, **kwargs)
            stack.append((span["id"], name))
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if n_out is not None:
                    span["n_out"] = n_out(result)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                spans.append(span)

        return recorded

    def install(self, targets: list[tuple]) -> None:
        """``targets``: ``(owner, attribute, span name[, n_in[, n_out]])``."""
        for owner, attr, name, *counts in targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, *counts))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def drain(self) -> list[dict]:
        out = list(self.spans)
        del self.spans[: len(out)]
        return out


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _adopt_orphans(spans: list[dict], root: str) -> list[list[dict]]:
    """Group spans by root span and parent the cross-thread orphans.

    Returns one span list per root, in root start order.  A span with no
    same-thread parent belongs to the root whose interval holds its start
    and is adopted by the latest-started span on the root's thread that
    is still open at that moment (the innermost one, since spans nest).
    Spans outside every root are dropped (keep-alive bookkeeping between
    requests).
    """
    by_id = {s["id"]: s for s in spans}
    roots = sorted((s for s in spans if s["name"] == root), key=lambda s: s["start"])
    starts = [r["start"] for r in roots]
    position = {r["id"]: i for i, r in enumerate(roots)}
    groups: list[list[dict]] = [[r] for r in roots]

    def root_index(span: dict) -> Optional[int]:
        top = span
        while top["parent"] in by_id:
            top = by_id[top["parent"]]
        if top["id"] in position:
            return position[top["id"]]
        i = bisect_right(starts, top["start"]) - 1
        if i >= 0 and top["start"] <= roots[i]["end"]:
            return i
        return None

    orphans = []
    for span in spans:
        if span["name"] == root:
            continue
        i = root_index(span)
        if i is None:
            continue
        groups[i].append(span)
        if span["parent"] is None:
            orphans.append((i, span))
    for i, span in orphans:
        thread = roots[i]["thread"]
        open_then = [
            s
            for s in groups[i]
            if s["thread"] == thread and s["start"] <= span["start"] <= s["end"]
        ]
        span["parent"] = max(open_then, key=lambda s: s["start"])["id"]
    return groups


def _subtract(interval: tuple, holes: list[tuple]) -> list[tuple]:
    """``interval`` minus the union of ``holes`` as a list of intervals."""
    out = []
    cursor, end = interval
    for lo, hi in sorted(holes):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi <= cursor:
            continue
        if lo > cursor:
            out.append((cursor, lo))
        cursor = hi
    if cursor < end:
        out.append((cursor, end))
    return out


def wall_shares(group: list[dict]) -> dict:
    """Seconds of one request's wall clock attributed to each span name."""
    children = defaultdict(list)
    for span in group:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    pieces = []  # (start, end, name) self intervals
    for span in group:
        for lo, hi in _subtract((span["start"], span["end"]), children[span["id"]]):
            pieces.append((lo, hi, span["name"]))
    cuts = sorted({t for lo, hi, _ in pieces for t in (lo, hi)})
    shares: dict = defaultdict(float)
    for lo, hi in zip(cuts, cuts[1:]):
        running = [name for a, b, name in pieces if a <= lo and hi <= b]
        for name in running:
            shares[name] += (hi - lo) / len(running)
    return dict(shares)


def self_seconds(spans: list[dict]) -> dict:
    """Total self time per span name, children taken per thread.

    For build-time spans, which have no request root: parallel shard
    builds each count in full, so a name's total is thread time, not wall.
    """
    covered: dict = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
    return dict(totals)


def attribute(spans: list[dict], root: str = ROOT) -> list[dict]:
    """Per-root ``{"root": span, "spans": [...], "shares": {name: s}}``."""
    out = []
    for group in _adopt_orphans(spans, root):
        out.append({"root": group[0], "spans": group, "shares": wall_shares(group)})
    return out
