"""Degraded answers: the trivial must / maybe bound.

When a query's deadline fires before the executor finished — or the
caller asks for a cheap answer outright — the service does not return a
500.  Every leaf it could not answer exactly contributes the trivial
bound ``(must, maybe) = (∅, live)``, where *live* is every dataset below
the batch's watermark that is not tombstoned.  ``must ⊆ exact ⊆ must ∪
maybe`` holds by construction, and the leaves of the same batch that
*were* answered exactly (or came from the cache) still tighten the
expression's bound through :func:`~repro.service.planner.combine_bounds`.

Why not screen each leaf on every dataset's synopsis: measured on the
seed-2027 benchmark lakes, such a screen leaves more than half of the
lake undecided (``maybe_fraction`` 0.64 on the 64-dataset 2-D lake, 0.50
on the 2 000-dataset 1-D one) and, on the large lake, costs 8.6x the
exact leaf it stands in for, so the fallback would answer later than
the real answer.

Bounds are **never cached**: they are not the engine's answer, and a
later exact evaluation must not be shadowed by them.
"""

from __future__ import annotations

from repro.core.bitset import DatasetBitmap
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import Predicate
from repro.core.pref_index import pref_threshold
from repro.errors import QueryError
from repro.service.planner import LeafBounds


class SynopsisScreen:
    """The degraded bound of one batch.

    ``live`` is the batch's universe: every dataset below the watermark
    it read, minus the tombstones it read with it, so the bound covers
    exactly the datasets its exact answers would.
    """

    def __init__(self, live: DatasetBitmap) -> None:
        self._bound: LeafBounds = (DatasetBitmap.zeros(live.nbits), live)

    def screen_leaf(self, leaf: Predicate) -> LeafBounds:
        """``(∅, live)`` for ``leaf``, refusing what the exact path refuses
        (a two-sided Pref interval, an unknown measure) with the same
        :class:`~repro.errors.QueryError`."""
        measure = leaf.measure
        if isinstance(measure, PreferenceMeasure):
            pref_threshold(leaf.theta)  # refuses anything but [a, inf)
        elif not isinstance(measure, PercentileMeasure):
            raise QueryError(f"unsupported measure {type(measure).__name__}")
        return self._bound
