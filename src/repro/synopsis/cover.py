"""Metric r-cover synopsis (for the Section 6 extension queries).

Section 6 ("Future work") defines nearest-neighbor and diversity queries
over the framework and notes that the missing ingredient is a coreset;
additive-error coresets for nearest-neighbor search exist [26].  This
module provides the simplest such object: a greedy **r-cover** of the
dataset — a subset ``C ⊆ P`` such that every point of ``P`` is within
distance ``r`` of some point of ``C``.  Consequences used by the extension
indexes:

- ``|dist(q, C) - dist(q, P)| <= r`` for every query point ``q``
  (nearest-neighbor additive error);
- for every pair realizing the diameter of ``P ∩ R`` there are cover
  points within ``r``, so diameters are preserved up to ``±2r`` modulo a
  boundary expansion (see :mod:`repro.core.diversity_index`).

The greedy construction is grid-accelerated: points are bucketed into
cells of side ``r / sqrt(d)`` and one representative (an actual data
point) is kept per cell — every point shares a cell with its
representative, hence lies within the cell diagonal ``<= r``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConstructionError
from repro.synopsis.base import Synopsis


class CoverSynopsis(Synopsis):
    """A greedy r-cover of a dataset, stored as actual data points.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset (consumed at construction; only the cover and
        its radius are kept — federated storage model).
    radius:
        Cover radius ``r > 0``; this is the synopsis error ``delta`` for
        the nearest-neighbor measure class.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = rng.uniform(size=(2000, 2))
    >>> cov = CoverSynopsis(data, radius=0.1)
    >>> cov.cover_points.shape[0] < 2000
    True
    >>> q = np.array([0.5, 0.5])
    >>> exact = np.linalg.norm(data - q, axis=1).min()
    >>> bool(abs(cov.distance_to(q) - exact) <= 0.1 + 1e-12)
    True
    """

    def __init__(self, points: np.ndarray, radius: float) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConstructionError("points must be a non-empty (n, d) array")
        if radius <= 0.0:
            raise ConstructionError(f"radius must be positive, got {radius}")
        self._dim = int(pts.shape[1])
        self._n_points = int(pts.shape[0])
        self.radius = float(radius)
        cell = self.radius / np.sqrt(self._dim)
        keys = np.floor(pts / cell).astype(np.int64)
        _, first = np.unique(keys, axis=0, return_index=True)
        self._cover = pts[np.sort(first)]

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def cover_points(self) -> np.ndarray:
        """The cover ``C ⊆ P`` (read-only view)."""
        return self._cover

    @property
    def size(self) -> int:
        """``|C|``."""
        return int(self._cover.shape[0])

    def distance_to(self, query: np.ndarray) -> float:
        """``dist(q, C)`` — within ``radius`` of ``dist(q, P)``."""
        q = np.asarray(query, dtype=float)
        if q.shape != (self._dim,):
            raise ValueError(f"query must have shape ({self._dim},)")
        return float(np.linalg.norm(self._cover - q, axis=1).min())

    def covers(self, points: np.ndarray) -> bool:
        """Verify the cover property on the given points (for tests)."""
        pts = np.asarray(points, dtype=float)
        for p in pts:
            if np.linalg.norm(self._cover - p, axis=1).min() > self.radius + 1e-9:
                return False
        return True
