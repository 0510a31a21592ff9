"""ε-sample synopsis: a uniform subsample of the dataset.

One of the synopsis kinds named in Section 1.2 for the percentile class.
A uniform subsample ``C`` of size ``m`` is an ε-sample for rectangles with
``eps = O(sqrt(log(1/phi) / m))`` (Section 2), so the synopsis error is
``delta = O(1/sqrt(m))``.  The subsample also supports preference scoring:
the k-th largest projection of ``P`` is estimated by the
``ceil(k * m / n)``-th largest projection of ``C`` (rank scaling), whose
rank error is again ``O(m^{-1/2})`` relative mass.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.geometry.rectangle import Rectangle
from repro.synopsis.base import PROBE_DIRS, PROBE_K_FRACS, Synopsis

#: Default failure-probability knob for the advertised delta bound.
DEFAULT_PHI = 0.01


def epsilon_for_sample_size(m: int, phi: float = DEFAULT_PHI) -> float:
    """The rectangle-class ε-sample error of a uniform subsample of size m.

    Uses the classic VC bound ``eps = sqrt(ln(2/phi) / (2 m))`` (a
    Dvoretzky-Kiefer-Wolfowitz-style constant, empirically conservative for
    axis-parallel rectangles; the T-FED benchmark measures the true error).
    """
    if m < 1:
        raise ValueError("sample size must be positive")
    return min(1.0, math.sqrt(math.log(2.0 / phi) / (2.0 * m)))


class EpsilonSampleSynopsis(Synopsis):
    """A uniform subsample of the dataset, used as its synopsis.

    Parameters
    ----------
    subsample:
        ``(m, d)`` array of points drawn uniformly from the dataset.
    n_points:
        Size ``n`` of the original dataset (kept for rank scaling).
    delta:
        Optional explicit error bound; defaults to
        :func:`epsilon_for_sample_size`.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> data = rng.normal(size=(5000, 2))
    >>> syn = EpsilonSampleSynopsis.from_points(data, size=400, rng=rng)
    >>> abs(syn.mass(Rectangle([-1, -1], [1, 1])) -
    ...     Rectangle([-1, -1], [1, 1]).count_inside(data) / 5000) < syn.delta_ptile
    True
    """

    def __init__(
        self,
        subsample: np.ndarray,
        n_points: int,
        delta: Optional[float] = None,
        delta_pref: Optional[float] = None,
    ) -> None:
        pts = np.asarray(subsample, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("subsample must be a non-empty (m, d) array")
        if n_points < pts.shape[0]:
            raise ValueError("n_points cannot be smaller than the subsample")
        self._subsample = pts
        self._n_points = int(n_points)
        self._delta = (
            float(delta) if delta is not None else epsilon_for_sample_size(pts.shape[0])
        )
        # Score error is data-dependent (rank error times local projection
        # density); prefer a measured bound from from_points().  Fallback:
        # rank error delta converted through the empirical projection spread.
        if delta_pref is not None:
            self._delta_pref = float(delta_pref)
        else:
            spread = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
            self._delta_pref = min(1.0, 2.0 * self._delta) * max(1.0, spread)

    @staticmethod
    def from_points(
        points: np.ndarray,
        size: int,
        rng: np.random.Generator,
        delta: Optional[float] = None,
    ) -> "EpsilonSampleSynopsis":
        """Draw the subsample from a raw dataset (the data-owner side).

        While the raw data is in hand, the preference-score error
        ``delta_pref`` is *measured* on probe directions (the paper's model
        assumes each ``delta_i`` is known to the data owner).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        size = min(size, pts.shape[0])
        idx = rng.choice(pts.shape[0], size=size, replace=False)
        syn = EpsilonSampleSynopsis(pts[idx], n_points=pts.shape[0], delta=delta)
        worst = 0.0
        n = pts.shape[0]
        for _ in range(PROBE_DIRS):
            v = rng.normal(size=pts.shape[1])
            v /= np.linalg.norm(v)
            proj = np.sort(pts @ v)
            for frac in PROBE_K_FRACS:
                k = max(1, int(frac * n))
                worst = max(worst, abs(syn.score(v, k) - proj[n - k]))
        syn._delta_pref = 1.5 * worst + 1e-6
        return syn

    @property
    def subsample(self) -> np.ndarray:
        """The stored subsample (read-only view)."""
        return self._subsample

    @property
    def dim(self) -> int:
        return int(self._subsample.shape[1])

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def size(self) -> int:
        """Subsample size ``m``."""
        return int(self._subsample.shape[0])

    # -- percentile class -------------------------------------------------
    @property
    def delta_ptile(self) -> float:
        return self._delta

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        self._check_sample_args(size)
        idx = rng.integers(0, self.size, size=size)
        return self._subsample[idx]

    def mass(self, rect: Rectangle) -> float:
        return rect.count_inside(self._subsample) / self.size

    # -- preference class --------------------------------------------------
    @property
    def delta_pref(self) -> float:
        return self._delta_pref

    def score(self, vector: np.ndarray, k: int) -> float:
        """Rank-scaled k-th largest projection of the subsample."""
        v = self._check_score_args(vector, k)
        if k > self._n_points:
            return float("-inf")
        # Rank k out of n maps to rank ~ k * m / n out of m.
        k_scaled = min(self.size, max(1, math.ceil(k * self.size / self._n_points)))
        proj = self._subsample @ v
        return float(np.partition(proj, self.size - k_scaled)[self.size - k_scaled])
