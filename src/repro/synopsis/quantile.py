"""Per-attribute equi-depth (quantile) histogram synopsis.

This is the synopsis family the prior Ptile system actually ships:
Fainder [8] represents each dataset by per-attribute percentile/quantile
histograms.  Compared with the d-dimensional equi-width grid of
:class:`~repro.synopsis.histogram.HistogramSynopsis`:

- storage is ``O(d · q)`` for ``q`` quantiles — independent of how skewed
  the data is (equi-depth bins adapt to density);
- rectangle masses are estimated under a per-attribute *independence
  assumption* (product of marginal masses), whose error is measured at
  construction and advertised as ``delta`` — for correlated attributes
  this delta is honestly large, which is exactly the weakness of
  marginal-only synopses the paper's framework surfaces;
- sampling draws each attribute independently from its marginal.

Scoring for the preference class uses the same independence assumption
through sampling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.rectangle import Rectangle
from repro.synopsis.base import PROBE_RECTS, Synopsis


class QuantileHistogramSynopsis(Synopsis):
    """Per-attribute equi-depth quantile sketch of a dataset.

    Parameters
    ----------
    points:
        ``(n, d)`` training data (consumed at construction).
    n_quantiles:
        Number of quantile knots per attribute.
    rng:
        Draws the :data:`~repro.synopsis.base.PROBE_RECTS` probe rectangles
        the advertised ``delta_ptile`` is *measured* on (the
        independence-assumption error is data-dependent).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(8)
    >>> data = rng.uniform(size=(5000, 2))       # independent attributes
    >>> syn = QuantileHistogramSynopsis(data, rng=rng)
    >>> abs(syn.mass(Rectangle([0.0, 0.0], [0.5, 0.5])) - 0.25) < 0.05
    True
    """

    def __init__(
        self,
        points: np.ndarray,
        n_quantiles: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if n_quantiles < 2:
            raise ValueError("n_quantiles must be >= 2")
        rng = rng if rng is not None else np.random.default_rng()
        self._dim = int(pts.shape[1])
        self._n_points = int(pts.shape[0])
        self._levels = np.linspace(0.0, 1.0, n_quantiles)
        # knots[h][j] = the levels[j]-quantile of attribute h.
        self._knots = [
            np.quantile(pts[:, h], self._levels) for h in range(self._dim)
        ]
        # (d, q) matrix view of the same knots, for the vectorized
        # all-axes-at-once CDF used by ``mass`` (rows are sorted).
        self._knots_mat = np.vstack(self._knots)
        self._delta_ptile = self._measure_delta(pts, rng)
        self._delta_pref = self._measure_delta_pref(pts, rng)

    # ------------------------------------------------------------------
    def _marginal_cdf_all(self, values: np.ndarray) -> np.ndarray:
        """Per-axis CDFs ``P[attribute_h <= values[h]]`` for all axes at once.

        One vectorized pass replaces the per-axis Python loop over
        ``np.interp`` calls: position each value within its row of the
        sorted knot matrix (a right-sided rank, matching ``np.searchsorted
        (..., side="right")``) and linearly interpolate the shared level
        grid.  Duplicate knots resolve exactly as ``np.interp`` does — the
        level of the *last* duplicate — because the right-sided rank lands
        one past the run and the interpolation weight degenerates to zero.
        """
        v = np.asarray(values, dtype=float)
        k = self._knots_mat
        q = k.shape[1]
        # rank[h] = #knots in row h that are <= v[h]  (== searchsorted
        # side="right" per row, vectorized across rows; q is small).
        rank = (k <= v[:, None]).sum(axis=1)
        idx = np.clip(rank, 1, q - 1)
        rows = np.arange(k.shape[0])
        x0 = k[rows, idx - 1]
        x1 = k[rows, idx]
        span = x1 - x0
        t = np.where(span > 0.0, (v - x0) / np.where(span > 0.0, span, 1.0), 0.0)
        cdf = self._levels[idx - 1] + t * (self._levels[idx] - self._levels[idx - 1])
        cdf = np.where(v < k[:, 0], 0.0, cdf)
        cdf = np.where(v >= k[:, -1], 1.0, cdf)
        return cdf

    def _measure_delta(self, pts: np.ndarray, rng: np.random.Generator) -> float:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        worst = 0.0
        for _ in range(PROBE_RECTS):
            a = rng.uniform(lo, hi)
            b = rng.uniform(lo, hi)
            rect = Rectangle(np.minimum(a, b), np.maximum(a, b))
            exact = rect.count_inside(pts) / pts.shape[0]
            worst = max(worst, abs(self.mass(rect) - exact))
        return min(1.0, 1.25 * worst + 1e-3)

    def _measure_delta_pref(self, pts: np.ndarray, rng: np.random.Generator) -> float:
        worst = 0.0
        n = pts.shape[0]
        for _ in range(16):
            v = rng.normal(size=self._dim)
            v /= np.linalg.norm(v)
            proj = np.sort(pts @ v)
            for frac in (0.05, 0.25):
                k = max(1, int(frac * n))
                worst = max(worst, abs(self.score(v, k) - proj[n - k]))
        return 1.25 * worst + 1e-6

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def n_quantiles(self) -> int:
        """Knots per attribute."""
        return int(self._levels.size)

    # -- percentile class -------------------------------------------------
    @property
    def delta_ptile(self) -> float:
        return self._delta_ptile

    def mass(self, rect: Rectangle) -> float:
        """Independence-assumption mass: product of marginal masses.

        Both corner CDFs are computed for every axis in one vectorized
        pass (no per-axis Python loop).
        """
        if rect.dim != self._dim:
            raise ValueError("rectangle dimension mismatch")
        upper = self._marginal_cdf_all(np.asarray(rect.hi, dtype=float))
        lower = self._marginal_cdf_all(np.asarray(rect.lo, dtype=float))
        return float(np.prod(np.clip(upper - lower, 0.0, None)))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw each attribute independently via inverse-CDF sampling."""
        self._check_sample_args(size)
        out = np.empty((size, self._dim))
        for h in range(self._dim):
            u = rng.uniform(0.0, 1.0, size=size)
            out[:, h] = np.interp(u, self._levels, self._knots[h])
        return out

    # -- preference class --------------------------------------------------
    @property
    def delta_pref(self) -> float:
        return self._delta_pref

    def score(self, vector: np.ndarray, k: int) -> float:
        """k-th largest projection under the independence model.

        Deterministic: combine per-attribute quantile grids into the
        projected distribution by Monte-Carlo with a fixed stream (the
        estimate must be stable across calls for index construction).
        """
        v = self._check_score_args(vector, k)
        if k > self._n_points:
            return float("-inf")
        rng = np.random.default_rng(0xC0FFEE)  # fixed: deterministic synopsis
        m = 2048
        sample = self.sample(m, rng)
        proj = np.sort(sample @ v)
        k_scaled = min(m, max(1, round(k * m / self._n_points)))
        return float(proj[m - k_scaled])
