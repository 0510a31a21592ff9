"""The exact synopsis: the dataset itself (centralized setting, delta = 0)."""

from __future__ import annotations

import numpy as np

from repro.geometry.rectangle import Rectangle
from repro.synopsis.base import Synopsis


#: ``score_batch`` projects at most this many (point, direction) pairs at a
#: time (8 MB of float64: stays in a last-level cache, still amortises the
#: matmul), in whole groups of ``SCORE_BLOCK_ALIGN`` directions so that no
#: block but the last ends in a BLAS edge tile.
SCORE_BLOCK_ELEMENTS = 1 << 20
SCORE_BLOCK_ALIGN = 64


class ExactSynopsis(Synopsis):
    """Wraps the raw dataset; every estimate is exact.

    Setting ``S_{P_i} = P_i`` for every dataset makes the federated problem
    coincide with the centralized one (Section 1.1), so the centralized
    CPtile/CPref indexes are simply the federated indexes instantiated with
    exact synopses.

    Parameters
    ----------
    points:
        ``(n, d)`` array — the dataset ``P``.

    Examples
    --------
    >>> import numpy as np
    >>> syn = ExactSynopsis(np.array([[0.0], [1.0], [2.0], [3.0]]))
    >>> syn.mass(Rectangle([0.5], [2.5]))
    0.5
    >>> syn.score(np.array([1.0]), k=2)
    2.0
    """

    def __init__(self, points: np.ndarray) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self._points = pts

    @property
    def points(self) -> np.ndarray:
        """The underlying dataset (read-only view)."""
        return self._points

    @property
    def dim(self) -> int:
        return int(self._points.shape[1])

    @property
    def n_points(self) -> int:
        return int(self._points.shape[0])

    # -- percentile class (exact) ---------------------------------------
    @property
    def delta_ptile(self) -> float:
        return 0.0

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        self._check_sample_args(size)
        idx = rng.integers(0, self.n_points, size=size)
        return self._points[idx]

    def mass(self, rect: Rectangle) -> float:
        return rect.count_inside(self._points) / self.n_points

    # -- preference class (exact) ---------------------------------------
    @property
    def delta_pref(self) -> float:
        return 0.0

    def score(self, vector: np.ndarray, k: int) -> float:
        """Exact ``omega_k(P, v)``; ``-inf`` when ``k > |P|`` (undefined)."""
        v = self._check_score_args(vector, k)
        if k > self.n_points:
            return float("-inf")
        proj = self._points @ v
        # k-th largest = (n-k)-th order statistic.
        return float(np.partition(proj, self.n_points - k)[self.n_points - k])

    def score_batch(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """Vectorized exact scoring over many unit vectors at once."""
        vs = np.atleast_2d(np.asarray(vectors, dtype=float))
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > self.n_points:
            return np.full(vs.shape[0], float("-inf"))
        norms = np.linalg.norm(vs, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ValueError("preference vectors must be nonzero")
        units = (vs / norms).T  # (d, m)
        order = self.n_points - k
        # Project and select in direction blocks, never the whole (n, m)
        # matrix: an eps-net has ~10^6 directions, and that matrix plus the
        # copy np.partition takes of it is gigabytes of page faults per
        # dataset.  A net that fits one block is the one matmul it always
        # was; across blocks a BLAS may round an element differently at a
        # tile edge, by an ulp.
        step = SCORE_BLOCK_ELEMENTS // self.n_points
        step = max(1, step // SCORE_BLOCK_ALIGN) * SCORE_BLOCK_ALIGN
        out = np.empty(vs.shape[0])
        for start in range(0, vs.shape[0], step):
            proj = self._points @ units[:, start : start + step]  # (n, <= step)
            proj.partition(order, axis=0)
            out[start : start + step] = proj[order]
        return out
