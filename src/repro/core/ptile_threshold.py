"""Approximate Ptile index for threshold-predicates (Section 4.2).

Implements Algorithms 1 (construction) and 2 (query) and therefore
Theorem 4.4: ``~O(N)`` space and preprocessing, ``~O(1 + OUT)`` query time,
and for ``theta = [a_theta, 1]`` the returned set ``J`` satisfies

- (recall)    ``q_Pi(P) ⊆ J`` with probability ``>= 1 - phi``, and
- (precision) every ``j ∈ J`` has ``M_R(P_j) >= a_theta - 2 eps' - 2 delta_j``
  where ``eps'`` is the coreset sampling error (Lemma 4.2; the theorem
  statement folds the factor 2 away by halving eps upfront).

Construction maps every combinatorially different rectangle ``rho`` of every
coreset to the point ``(rho^-, rho^+, w + delta_i) ∈ R^{2d+1}`` — weight as
an extra coordinate, shifted by the per-dataset synopsis error so that
Remark 2's unknown-deltas setting works with a single structure.  A query
``(R, a_theta)`` becomes the orthant of Algorithm 2 crossed with
``[a_theta - eps, inf)`` on the weight coordinate.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core._ptile_common import (
    PtileIndexBase,
    _report,
    _row_ranges,
    _weight_levels,
)
from repro.core.results import QueryResult
from repro.errors import QueryError
from repro.geometry.interval import Interval
from repro.geometry.rect_enum import (
    GAP_INNER_HI,
    GAP_INNER_LO,
    _row_counts,
    rectangles_arrays,
)
from repro.geometry.rectangle import Rectangle
from repro.index.backend import build_engine
from repro.index.query_box import QueryBox
from repro.synopsis.base import Synopsis


class PtileThresholdIndex(PtileIndexBase):
    """The Ptile data structure for one threshold-predicate (Theorem 4.4).

    Parameters
    ----------
    synopses:
        One synopsis per dataset, all of the same dimension.  Use
        :class:`~repro.synopsis.exact.ExactSynopsis` for the centralized
        setting (``delta = 0``).
    eps:
        Coreset accuracy parameter (the paper's ``eps``).
    phi:
        Failure probability for the coreset union bound; default ``1/N``.
    delta:
        Optional global synopsis-error bound overriding the per-synopsis
        advertised ``delta_ptile`` values.
    sample_size:
        Optional explicit coreset size (overrides the eps/phi bound).
    engine:
        Range-search backend: ``"kd"`` (default, dynamic) or
        ``"rangetree"`` (static, faithful textbook range tree; practical
        only at small scale).  See :mod:`repro.index.backend`.
    rng:
        Source of randomness for coreset sampling.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.synopsis import ExactSynopsis
    >>> rng = np.random.default_rng(0)
    >>> data = [rng.uniform(0, 1, size=(500, 1)) for _ in range(8)]
    >>> idx = PtileThresholdIndex([ExactSynopsis(p) for p in data], eps=0.1, rng=rng)
    >>> res = idx.query(Rectangle([0.0], [1.0]), a_theta=0.5)
    >>> sorted(res.indexes)
    [0, 1, 2, 3, 4, 5, 6, 7]
    """

    def __init__(
        self,
        synopses: Iterable[Synopsis],
        eps: float = 0.1,
        phi: Optional[float] = None,
        delta: Optional[float] = None,
        sample_size: Optional[int] = None,
        engine: str = "kd",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(synopses, eps, phi, delta, sample_size, engine, rng)
        keys = self._register_pending()
        self._tree = build_engine(
            self._mapped(keys, *self._stacked(keys)), self.engine_kind
        )

    # ------------------------------------------------------------------
    # Construction (Algorithm 1)
    # ------------------------------------------------------------------
    def _mapped(
        self, keys: Sequence[int], coresets: np.ndarray, deltas: np.ndarray
    ) -> Iterator[tuple[list, list, np.ndarray]]:
        """Map every coreset rectangle to ``(rho^-, rho^+, w + delta_i)``.

        Each dataset maps to its rectangles, then one extra *sentinel*
        point representing the empty rectangle (inner constraints
        vacuously satisfied for every query, weight ``0 + delta_i``): a
        dataset whose coreset entirely misses the query region must still
        be reported whenever ``a_theta - eps - delta_i <= 0`` — a corner
        case Lemma 4.1 glosses by assuming a largest rectangle inside ``R``
        exists.  The sentinel never harms precision: if it matches,
        ``a_theta <= eps + delta_i``, and every dataset trivially satisfies
        the Lemma 4.2 bound then.

        The rows of the datasets ``keys`` (their ``(K, s, d)`` coreset
        stack and deltas), in key order, are cut into pieces of one block
        budget (:func:`_row_ranges`), as the range builder cuts its pairs;
        each piece's rectangles are one
        :func:`~repro.geometry.rect_enum.rectangles_arrays` call over the
        datasets it touches, coded as the range builder codes its pieces; a
        sentinel row is ``lo = GAP_INNER_LO``, ``hi = GAP_INNER_HI``, count 0.
        """
        rects = _row_counts(coresets, None, False)
        which, ((plus, up), _) = _weight_levels(coresets.shape[1], deltas)
        keys = np.asarray(keys)
        for datasets, rows, owner, position in _row_ranges(rects + 1, 2 * self.dim + 1):
            real = position < rects[owner]
            # No sentinel precedes the range's first row in its dataset.
            enumerated = (rows[0], rows[1] - int(np.count_nonzero(~real)))
            codes, tables, inside = rectangles_arrays(coresets[datasets], enumerated)
            coded = np.empty((2, self.dim, owner.size), dtype=codes.dtype)
            coded[:, :, real] = codes
            empty = [np.searchsorted(t, [GAP_INNER_LO, GAP_INNER_HI]) for t in tables]
            coded[:, :, ~real] = np.transpose(empty)[:, :, None]
            count = np.zeros(owner.size, dtype=inside.dtype)
            count[real] = inside
            columns = [*coded.reshape(-1, owner.size), up[count, which[owner]]]
            yield columns, [*tables, *tables, plus], keys[owner]

    # ------------------------------------------------------------------
    # Query (Algorithm 2)
    # ------------------------------------------------------------------
    def _query_box(self, rect: Rectangle, a_theta: float) -> QueryBox:
        """Validate one ``(R, a_theta)`` query and build its Algorithm-2 box."""
        self._check_query_rect(rect)
        if not 0.0 <= a_theta <= 1.0:
            raise QueryError(f"a_theta must be in [0, 1], got {a_theta}")
        cons = rect.query_orthant_2d()
        cons.append((a_theta - self.eps_effective, math.inf, False, False))
        return QueryBox(cons)

    def query(
        self,
        rect: Rectangle,
        a_theta: float,
        record_times: bool = False,
    ) -> QueryResult:
        """Report all datasets with (approximately) ``M_R(P_i) >= a_theta``.

        Returns a :class:`~repro.core.results.QueryResult` whose index set
        ``J`` satisfies the Theorem 4.4 guarantees.
        """
        box = self._query_box(rect, a_theta)
        return _report(self._tree, box, record_times, self.n_datasets)

    def query_expression(self, rect: Rectangle, theta: Interval, **kwargs) -> QueryResult:
        """Interval-flavoured entry point (requires a threshold interval)."""
        if not theta.is_threshold:
            raise QueryError(
                "PtileThresholdIndex supports one-sided theta = [a, 1]; use "
                "PtileRangeIndex for general intervals"
            )
        return self.query(rect, theta.lo, **kwargs)
