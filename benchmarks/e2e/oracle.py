"""The benchmark's own copy of the lake and the checks run against it.

Exact measure values are computed on the concatenated lake with the
library's own primitives (``Rectangle.contains_points``, the k-th largest
projection of ``Dataset.kth_score``) vectorized over datasets — a
per-dataset ``Expression.ground_truth`` loop over thousands of datasets
and hundreds of leaves would take longer than the timed phase.
:meth:`ExactLake.matches_library` ties the two together on a sample of
expressions every run.

Checks, per recorded answer:

- **recall 1** — every live dataset in the exact answer is reported, and
  nothing tombstoned or out of range is (:meth:`ExactLake.check`);
- **slack** — on single-leaf answers, every reported dataset's exact
  value lies within the band the structures guarantee
  (:meth:`ExactLake.audit`, through ``repro.evaluation``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure
from repro.core.predicates import And, Expression, Or, Predicate
from repro.evaluation import audit_interval_query


class ExactLake:
    """Raw arrays by global dataset index, with adds and tombstones."""

    def __init__(self, arrays: Sequence[np.ndarray]) -> None:
        self.arrays = list(arrays)
        self.removed: set[int] = set()
        self._values: dict = {}  # leaf key -> exact values of datasets [0, len)
        self._segment: Optional[tuple] = None  # last (lo, hi, points, starts, sizes)
        self._sorted: dict = {}  # (vector, lo, hi) -> per-segment sorted projections

    @property
    def n(self) -> int:
        return len(self.arrays)

    def add(self, arrays: Sequence[np.ndarray]) -> list[int]:
        first = self.n
        self.arrays.extend(arrays)
        return list(range(first, self.n))

    def remove(self, indexes: Sequence[int]) -> None:
        self.removed.update(int(i) for i in indexes)

    def live(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[list(self.removed)] = False
        return mask

    # -- exact measure values -----------------------------------------
    def _concat(self, lo: int, hi: int) -> tuple:
        if self._segment is None or self._segment[:2] != (lo, hi):
            part = self.arrays[lo:hi]
            sizes = np.array([len(a) for a in part])
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            self._segment = (lo, hi, np.concatenate(part), starts, sizes)
        return self._segment[2:]

    def _measure(self, measure, lo: int, hi: int) -> np.ndarray:
        points, starts, sizes = self._concat(lo, hi)
        if isinstance(measure, PercentileMeasure):
            inside = measure.rect.contains_points(points)
            return np.add.reduceat(inside.astype(np.int64), starts) / sizes
        key = (measure.vector.tobytes(), lo, hi)
        ranked = self._sorted.get(key)
        if ranked is None:
            proj = points @ measure.vector
            segment = np.repeat(np.arange(len(sizes)), sizes)
            ranked = self._sorted[key] = proj[np.lexsort((proj, segment))]
        # Ascending within each segment: the k-th largest sits k from its end.
        kth = ranked[starts + sizes - measure.k]
        return np.where(measure.k <= sizes, kth, -np.inf)

    def values(self, leaf: Predicate) -> np.ndarray:
        """Exact ``M(P_i)`` for every dataset, extended as the lake grows."""
        key = leaf.canonical_key()
        have = self._values.get(key)
        if have is None or len(have) < self.n:
            lo = 0 if have is None else len(have)
            new = self._measure(leaf.measure, lo, self.n)
            have = new if have is None else np.concatenate([have, new])
            self._values[key] = have
        return have

    def truth(self, expression: Expression) -> np.ndarray:
        """Exact answer as a mask over all indexes (tombstones included)."""
        if isinstance(expression, Predicate):
            v, theta = self.values(expression), expression.theta
            above = v > theta.lo if theta.lo_open else v >= theta.lo
            below = v < theta.hi if theta.hi_open else v <= theta.hi
            return above & below
        parts = [self.truth(child) for child in expression.children]
        if isinstance(expression, And):
            return np.logical_and.reduce(parts)
        if isinstance(expression, Or):
            return np.logical_or.reduce(parts)
        raise TypeError(f"unsupported expression node {type(expression).__name__}")

    # -- checks --------------------------------------------------------
    def check(self, expression: Expression, answer: np.ndarray) -> Optional[str]:
        """None if the answer has recall 1 over live datasets, else why not."""
        answer = np.asarray(answer, dtype=np.int64)
        if answer.size and (answer.min() < 0 or answer.max() >= self.n):
            return f"index outside [0, {self.n})"
        reported = np.zeros(self.n, dtype=bool)
        reported[answer] = True
        live = self.live()
        missed = np.flatnonzero(self.truth(expression) & live & ~reported)
        if missed.size:
            return f"recall < 1: missed {missed[:5].tolist()}"
        dead = np.flatnonzero(reported & ~live)
        if dead.size:
            return f"reported tombstoned {dead[:5].tolist()}"
        return None

    def audit(
        self, leaf: Predicate, answer: np.ndarray, eps: float, eps_effective: float
    ) -> Optional[str]:
        """None if every reported dataset is inside the guaranteed band.

        The band is the implementation's: ``2·eps_effective + 2·delta_i``
        around a percentile interval (Theorem 4.11 before the paper folds
        the factor 2), ``2·eps + 2·delta_i`` below a preference threshold
        (Lemma 5.2); ``delta_i`` is 0 for the exact synopses served here.
        """
        if isinstance(leaf.measure, PercentileMeasure):
            theta, slack = leaf.theta.clamp(0.0, 1.0), 2.0 * eps_effective
        else:
            theta, slack = leaf.theta, 2.0 * eps
        report = audit_interval_query(
            self.values(leaf),
            {int(i) for i in answer},
            theta,
            slack_of=lambda _j: slack,
        )
        if report.slack_violations:
            return f"outside slack band: {report.slack_violations[:3]}"
        return None

    def matches_library(self, expression: Expression) -> Optional[str]:
        """None if :meth:`truth` equals ``Expression.ground_truth``."""
        library = expression.ground_truth(Repository.from_arrays(self.arrays))
        own = set(np.flatnonzero(self.truth(expression)).tolist())
        if own != library:
            return f"oracle disagrees with ground_truth on {sorted(own ^ library)[:5]}"
        return None
