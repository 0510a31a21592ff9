"""Diagonal Gaussian mixture model synopsis, fitted with EM.

Mixture models are one of the synopsis kinds named in Section 1.2 for the
percentile class.  We implement expectation-maximization for diagonal-
covariance mixtures from scratch (numpy only):

- ``mass(rect)`` is analytic — a product of axis-wise normal CDFs per
  component;
- ``sample`` draws from the mixture;
- ``score(v, k)`` uses the fact that the projection of a diagonal Gaussian
  mixture onto ``v`` is a 1-d Gaussian mixture, whose quantile is found by
  bisection on the mixture CDF.

Because the fit error is data-dependent, the advertised ``delta`` bounds are
*measured* at construction on held-out probe rectangles/directions — this
matches the paper's model where each ``delta_i`` is known to the system.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.geometry.rectangle import Rectangle
from repro.synopsis.base import PROBE_DIRS, PROBE_K_FRACS, PROBE_RECTS, Synopsis

_SQRT2 = math.sqrt(2.0)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF via the error function (vectorized)."""
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / _SQRT2))


class GMMSynopsis(Synopsis):
    """A diagonal-covariance Gaussian mixture fitted to a dataset.

    Parameters
    ----------
    points:
        ``(n, d)`` training data (consumed at construction).
    n_components:
        Number of mixture components.
    rng:
        Random generator (initialization + delta probing: the advertised
        ``delta`` bounds are *measured* on ``PROBE_RECTS`` rectangles /
        ``PROBE_DIRS`` directions, see :mod:`repro.synopsis.base`).
    n_iter:
        EM iterations.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(11)
    >>> data = np.vstack([rng.normal(-2, 0.5, (1500, 2)), rng.normal(2, 0.5, (1500, 2))])
    >>> syn = GMMSynopsis(data, n_components=2, rng=rng)
    >>> syn.delta_ptile < 0.2
    True
    """

    def __init__(
        self,
        points: np.ndarray,
        n_components: int = 4,
        rng: Optional[np.random.Generator] = None,
        n_iter: int = 50,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self._dim = int(pts.shape[1])
        self._n_points = int(pts.shape[0])
        self._fit(pts, n_components, n_iter, rng)
        self._delta_ptile = self._measure_delta_ptile(pts, rng)
        self._delta_pref = self._measure_delta_pref(pts, rng)

    # ------------------------------------------------------------------
    # EM fitting
    # ------------------------------------------------------------------
    def _fit(
        self, pts: np.ndarray, k: int, n_iter: int, rng: np.random.Generator
    ) -> None:
        n, d = pts.shape
        k = min(k, n)
        init = rng.choice(n, size=k, replace=False)
        means = pts[init].copy()
        var0 = pts.var(axis=0) + 1e-6
        variances = np.tile(var0, (k, 1))
        weights = np.full(k, 1.0 / k)
        var_floor = 1e-6 * (var0 + 1e-12)
        for _ in range(n_iter):
            # E-step: responsibilities via log-sum-exp.
            log_prob = (
                -0.5 * np.sum(np.log(2.0 * math.pi * variances), axis=1)  # (k,)
                - 0.5
                * np.sum(
                    (pts[:, None, :] - means[None, :, :]) ** 2 / variances[None, :, :],
                    axis=2,
                )  # (n, k)
            )
            log_prob = log_prob + np.log(weights + 1e-300)
            log_norm = np.logaddexp.reduce(log_prob, axis=1, keepdims=True)
            resp = np.exp(log_prob - log_norm)
            # M-step.
            nk = resp.sum(axis=0) + 1e-12
            weights = nk / n
            means = (resp.T @ pts) / nk[:, None]
            diff2 = (pts[:, None, :] - means[None, :, :]) ** 2
            variances = np.einsum("nk,nkd->kd", resp, diff2) / nk[:, None]
            variances = np.maximum(variances, var_floor)
        self._weights = weights
        self._means = means
        self._stds = np.sqrt(variances)

    # ------------------------------------------------------------------
    # delta measurement (the "known delta_i" of the paper's model)
    # ------------------------------------------------------------------
    def _measure_delta_ptile(self, pts: np.ndarray, rng: np.random.Generator) -> float:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        worst = 0.0
        for _ in range(PROBE_RECTS):
            a = rng.uniform(lo, hi)
            b = rng.uniform(lo, hi)
            rect = Rectangle(np.minimum(a, b), np.maximum(a, b))
            exact = rect.count_inside(pts) / pts.shape[0]
            worst = max(worst, abs(self.mass(rect) - exact))
        return min(1.0, 1.25 * worst + 1e-3)  # small safety margin

    def _measure_delta_pref(self, pts: np.ndarray, rng: np.random.Generator) -> float:
        worst = 0.0
        n = pts.shape[0]
        for _ in range(PROBE_DIRS):
            v = rng.normal(size=self._dim)
            v /= np.linalg.norm(v)
            proj = np.sort(pts @ v)
            for frac in PROBE_K_FRACS:
                k = max(1, int(frac * n))
                exact = proj[n - k]
                worst = max(worst, abs(self.score(v, k) - exact))
        return 1.25 * worst + 1e-6

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def n_components(self) -> int:
        """Number of mixture components."""
        return int(self._weights.size)

    # -- percentile class -------------------------------------------------
    @property
    def delta_ptile(self) -> float:
        return self._delta_ptile

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        self._check_sample_args(size)
        comp = rng.choice(self.n_components, size=size, p=self._weights)
        noise = rng.normal(size=(size, self._dim))
        return self._means[comp] + noise * self._stds[comp]

    def mass(self, rect: Rectangle) -> float:
        """Analytic mixture mass of an axis-parallel rectangle."""
        if rect.dim != self._dim:
            raise ValueError("rectangle dimension mismatch")
        upper = _normal_cdf((rect.hi[None, :] - self._means) / self._stds)
        lower = _normal_cdf((rect.lo[None, :] - self._means) / self._stds)
        per_comp = np.prod(np.maximum(0.0, upper - lower), axis=1)
        return float(np.dot(self._weights, per_comp))

    # -- preference class --------------------------------------------------
    @property
    def delta_pref(self) -> float:
        return self._delta_pref

    def score(self, vector: np.ndarray, k: int) -> float:
        """Quantile of the projected 1-d mixture at rank k (bisection)."""
        v = self._check_score_args(vector, k)
        if k > self._n_points:
            return float("-inf")
        mu = self._means @ v
        sigma = np.sqrt((self._stds ** 2) @ (v ** 2))
        target = 1.0 - (k - 0.5) / self._n_points  # CDF level of the k-th largest
        target = min(max(target, 1e-9), 1.0 - 1e-9)
        lo = float(np.min(mu - 8.0 * sigma))
        hi = float(np.max(mu + 8.0 * sigma))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            cdf = float(np.dot(self._weights, _normal_cdf((mid - mu) / sigma)))
            if cdf < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
