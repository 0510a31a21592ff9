"""Exact CPtile index in R^1 with a fixed theta (Appendix C.1, Theorem C.5).

The centralized lower bound (Theorem 3.4) kills exact structures for
``d >= 2``, but in one dimension an exact index exists when the interval
``theta = [a_theta, b_theta]`` is known at preprocessing time.

For each dataset ``P_i`` (sorted ``p_1 < ... < p_n``) every point ``p_j`` is
mapped to the 4-dimensional point ``(q_j, r_j, p_j, s_j)`` where

- ``r_j``: the point such that ``[r_j, p_j]`` contains exactly
  ``A = ceil(a_theta * n)`` points (so ``|P ∩ [R^-, p_j]| >= A  ⇔  R^- <= r_j``),
- ``q_j``: the point one below the window of ``B = floor(b_theta * n)``
  points ending at ``p_j`` (so the count is ``<= B  ⇔  q_j < R^-``),
- ``s_j = p_{j+1}`` (``+inf`` for the last point), making ``p_j`` the unique
  largest point of ``P_i`` inside ``R``: ``p_j <= R^+ < s_j``.

A query ``R = [R^-, R^+]`` then maps to the orthant
``(-inf, R^-) x [R^-, inf) x (-inf, R^+] x (R^+, inf)``; the points found
are in one-to-one correspondence with the qualifying datasets, so the query
procedure never reports duplicates (Lemma C.1) and is exact (Lemma C.2).

Strict versus non-strict sides are handled exactly by the open/closed bounds
of :class:`~repro.index.query_box.QueryBox` — no general-position assumption
is needed (the paper assumes distinct points; we require that too).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.geometry.interval import Interval
from repro.index.backend import build_backend
from repro.index.query_box import QueryBox

#: Sentinels standing in for -inf/+inf coordinates (kd bboxes need finites).
_NEG = -1e300
_POS = 1e300


class ExactPtile1DIndex:
    """Exact centralized Ptile index over 1-d datasets, fixed ``theta``.

    Parameters
    ----------
    datasets:
        Raw 1-d datasets: each an ``(n_i,)`` or ``(n_i, 1)`` array with
        distinct values (the paper's assumption).
    theta:
        The fixed query interval ``[a_theta, b_theta] ⊆ (0, 1]`` —
        ``a_theta`` must be positive so the count window ``A >= 1`` exists.
    engine:
        Any registered range-search backend (``"kd"`` default,
        ``"rangetree"``, ``"columnar"``).

    Examples
    --------
    >>> import numpy as np
    >>> idx = ExactPtile1DIndex(
    ...     [np.array([1.0, 2.0, 3.0, 4.0]), np.array([10.0, 11.0])],
    ...     theta=Interval(0.5, 1.0))
    >>> idx.query(1.5, 4.5).indexes   # dataset 0 has mass 3/4 in [1.5, 4.5]
    [0]
    """

    def __init__(
        self,
        datasets: Iterable[np.ndarray],
        theta: Interval,
        engine: str = "kd",
    ) -> None:
        self.theta = theta
        a = theta.lo
        b = min(1.0, theta.hi)
        if not 0.0 < a <= b:
            raise ConstructionError(
                "ExactPtile1DIndex requires 0 < a_theta <= b_theta (the zero-"
                "mass corner cannot be certified by a stored point)"
            )
        self._sorted: list[np.ndarray] = []
        rows: list[tuple[float, float, float, float]] = []
        ids: list[int] = []
        for key, data in enumerate(datasets):
            pts = np.asarray(data, dtype=float).reshape(-1)
            if pts.size == 0:
                raise ConstructionError(f"dataset {key} is empty")
            pts = np.sort(pts)
            if np.unique(pts).size != pts.size:
                raise ConstructionError(
                    f"dataset {key} has duplicate values (paper assumption)"
                )
            self._sorted.append(pts)
            n = pts.size
            cnt_min = math.ceil(a * n - 1e-12)   # need count >= cnt_min
            cnt_max = math.floor(b * n + 1e-12)  # need count <= cnt_max
            if cnt_min < 1 or cnt_min > cnt_max or cnt_max < 1:
                continue  # this dataset can never satisfy theta
            for j in range(n):  # j is 0-based rank of p_j
                if j + 1 < cnt_min:
                    continue  # too few points at or below p_j
                r_j = pts[j - cnt_min + 1]
                q_j = pts[j - cnt_max] if j - cnt_max >= 0 else _NEG
                s_j = pts[j + 1] if j + 1 < n else _POS
                rows.append((q_j, r_j, pts[j], s_j))
                ids.append(key)
        self.n_datasets = len(self._sorted)
        self.total_points = sum(p.size for p in self._sorted)
        if not rows:
            # No dataset can ever qualify; keep a stub tree for uniformity.
            # Its q_j = +inf is never < R^-, so no query box reports it.
            rows = [(_POS, _POS, _POS, _POS)]
            ids = [0]
        self._tree = build_backend(np.asarray(rows), ids, engine=engine)

    @property
    def n_mapped_points(self) -> int:
        """Number of stored 4-dimensional points."""
        return len(self._tree)

    def query(self, r_lo: float, r_hi: float, record_times: bool = False) -> QueryResult:
        """Report exactly ``{i : M_{[r_lo, r_hi]}(P_i) ∈ theta}``."""
        if r_lo > r_hi:
            raise QueryError("query interval has r_lo > r_hi")
        return _emit(QueryResult(), self._reported(r_lo, r_hi), record_times)

    def _reported(self, r_lo: float, r_hi: float) -> Iterator[int]:
        box = QueryBox(
            [
                (_NEG, r_lo, False, True),    # q_j < R^-
                (r_lo, _POS, False, False),   # r_j >= R^-
                (_NEG, r_hi, False, False),   # p_j <= R^+
                (r_hi, _POS, True, False),    # s_j > R^+
            ]
        )
        yield from self._tree.report(box)

    def brute_force(self, r_lo: float, r_hi: float) -> set[int]:
        """Exact answer by per-dataset counting (for verification)."""
        out = set()
        for key, pts in enumerate(self._sorted):
            count = int(np.searchsorted(pts, r_hi, side="right")) - int(
                np.searchsorted(pts, r_lo, side="left")
            )
            if count / pts.size in self.theta:
                out.add(key)
        return out
