"""Span tracing carried as a request context, not as a parameter.

A traced batch sets its :class:`Tracer` into :data:`TRACER` for the length
of the batch (``QueryService.search_batch`` and
``FederatedCoordinator.search_batch`` set it, a tracer or None, and reset
it when the batch ends, raising or not).  Every instrumented stage below
opens with ``with span("stage", **meta) [as s]:``, which reads the context
once and returns a new span nested under the innermost open one, or
:data:`NO_SPAN` (``as`` binds None) when the batch is untraced.  A context
belongs to one thread: work handed to a pool thread opens no spans.

Stdlib only, so core and index code can open spans without importing the
service layer.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, nullcontext
from contextvars import ContextVar
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.service.observability import MetricsRegistry


class Span:
    """One timed stage: name, monotonic start/end, parent link, children.

    Use as a context manager (via :meth:`Tracer.span`); attach metadata
    through keyword arguments at creation or by assigning into ``meta``
    inside the block.  ``to_dict`` serializes the subtree with times
    relative to a clock origin (the trace root's start — see
    :mod:`repro.service.observability`'s timing schema).
    """

    __slots__ = ("name", "tracer", "parent", "children", "meta", "t0", "t1")

    def __init__(
        self,
        name: str,
        tracer: "Tracer",
        parent: Optional["Span"] = None,
        **meta: object,
    ) -> None:
        self.name = name
        self.tracer = tracer
        self.parent = parent
        self.children: list[Span] = []
        self.meta = meta
        self.t0: Optional[float] = None
        self.t1: Optional[float] = None

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.t1 = time.perf_counter()
        self.tracer._pop(self)

    @property
    def duration_s(self) -> float:
        if self.t0 is None or self.t1 is None:
            return 0.0
        return self.t1 - self.t0

    def to_dict(self, origin: Optional[float] = None) -> dict:
        """JSON-ready subtree; times relative to ``origin`` (default: own
        start, making the root start at 0.0)."""
        if origin is None:
            origin = self.t0 if self.t0 is not None else 0.0
        out = {
            "name": self.name,
            "start_s": (self.t0 - origin) if self.t0 is not None else None,
            "duration_s": self.duration_s,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.to_dict(origin) for c in self.children]
        return out


#: What an untraced stage enters in place of a span (``as`` binds None):
#: one shared object, so the disabled path allocates nothing.
NO_SPAN: AbstractContextManager[Optional[Span]] = nullcontext()

#: The histogram family every finished span's duration is observed into.
STAGE_METRIC = "repro_stage_seconds"


class Tracer:
    """Produces linked spans and feeds finished durations to a registry.

    One tracer instance serves one traced batch on the thread that runs
    it — nothing is locked.  Nesting is implicit: the innermost open span
    adopts new spans.

    On exit every span's duration is recorded into the registry histogram
    ``repro_stage_seconds{stage=<name>}`` (:data:`STAGE_METRIC`), so traced
    traffic populates the per-stage histograms that ``/metrics`` exposes;
    a tracer without a registry only builds the span tree.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("a") as a:
    ...     with tracer.span("b", detail=1) as b:
    ...         pass
    >>> tracer.root is a and a.children == [b] and b.parent is a
    True
    >>> a.duration_s >= b.duration_s >= 0.0
    True
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry
        self.root: Optional[Span] = None
        self._stack: list[Span] = []

    def span(self, name: str, **meta: object) -> Span:
        """A new span; nests under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self, parent=parent, **meta)
        if parent is not None:
            parent.children.append(span)
        elif self.root is None:
            self.root = span
        return span

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if self.registry is not None:
            self.registry.observe(
                STAGE_METRIC, span.duration_s, {"stage": span.name}
            )


#: The running batch's tracer; None when it is untraced or outside a batch.
TRACER: ContextVar[Optional[Tracer]] = ContextVar("repro_tracer", default=None)


def span(name: str, **meta: object) -> AbstractContextManager[Optional[Span]]:
    """A new span of the running batch's tracer, or :data:`NO_SPAN`.

    >>> with span("outside any batch") as s:
    ...     s is None
    True
    """
    tracer = TRACER.get()
    return NO_SPAN if tracer is None else tracer.span(name, **meta)


def record_span(name: str, t0: float, t1: float, **meta: object) -> None:
    """Attach a phase timed with ``perf_counter`` stamps to the running
    batch's tracer, if any, and feed the stage histogram — for call sites
    that already hold the stamps (the service's batch pipeline), without
    the context-manager protocol in the hot path."""
    tracer = TRACER.get()
    if tracer is None:
        return
    phase = tracer.span(name, **meta)
    phase.t0, phase.t1 = t0, t1
    if tracer.registry is not None:
        tracer.registry.observe(STAGE_METRIC, t1 - t0, {"stage": name})
