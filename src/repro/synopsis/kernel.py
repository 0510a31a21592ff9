"""Direction/quantile kernel synopsis for preference queries.

Section 1.2 names "a kernel [5, 37, 55] or a histogram" as the common
synopsis for the top-k preference class.  This synopsis follows the
continuous-top-k sketch of Yu-Agarwal-Yang [55]: fix a centrally symmetric
ε-net ``D`` of directions; for each ``u ∈ D`` store a compact quantile
sketch of the projections ``{<p, u> : p ∈ P}``.  To score an arbitrary unit
vector ``v`` at rank ``k``, snap ``v`` to its nearest stored direction and
read the sketched quantile.  For points in a ball of radius ``r``,
Lemma 5.1 bounds the snapping error by ``eps_dir * r``; the quantile sketch
adds a rank-discretization error measured at build time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.epsilon_net import build_epsilon_net, nearest_net_vector
from repro.synopsis.base import PROBE_DIRS, PROBE_K_FRACS, Synopsis


class DirectionQuantileSynopsis(Synopsis):
    """Kernel-style synopsis: per-direction projection quantiles.

    Supports only the preference class ``F_k`` (requesting ``sample`` raises
    :class:`~repro.errors.CapabilityError`).

    Parameters
    ----------
    points:
        ``(n, d)`` training data (consumed at construction).
    eps_dir:
        Direction-net resolution; score error from snapping is
        ``<= eps_dir * max ||p||`` (Lemma 5.1).
    n_quantiles:
        Number of stored quantiles per direction.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(5)
    >>> data = rng.uniform(-1, 1, size=(2000, 2)) * 0.5
    >>> syn = DirectionQuantileSynopsis(data, eps_dir=0.1)
    >>> v = np.array([1.0, 0.0])
    >>> exact = np.sort(data @ v)[-10]
    >>> bool(abs(syn.score(v, 10) - exact) <= syn.delta_pref + 1e-9)
    True
    """

    def __init__(
        self,
        points: np.ndarray,
        eps_dir: float = 0.1,
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
        self._radius = float(np.linalg.norm(pts, axis=1).max())
        self._eps_dir = float(eps_dir)
        self._net = build_epsilon_net(self._dim, eps_dir)
        # Quantiles at evenly spaced CDF levels including both extremes.
        self._levels = np.linspace(0.0, 1.0, n_quantiles)
        proj = pts @ self._net.T  # (n, m)
        self._quantiles = np.quantile(proj, self._levels, axis=0).T  # (m, q)
        self._delta_pref = self._measure_delta(pts, rng)

    def _measure_delta(self, pts: np.ndarray, rng: np.random.Generator) -> float:
        worst = 0.0
        n = pts.shape[0]
        for _ in range(PROBE_DIRS):
            v = rng.normal(size=self._dim)
            v /= np.linalg.norm(v)
            proj = np.sort(pts @ v)
            for frac in PROBE_K_FRACS:
                k = max(1, int(frac * n))
                worst = max(worst, abs(self.score(v, k) - proj[n - k]))
        # Snapping bound (Lemma 5.1) plus measured sketch error.
        return float(self._eps_dir * self._radius + 1.25 * worst + 1e-9)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_points(self) -> int:
        return self._n_points

    @property
    def n_directions(self) -> int:
        """Number of stored net directions."""
        return int(self._net.shape[0])

    @property
    def delta_pref(self) -> float:
        return self._delta_pref

    def score(self, vector: np.ndarray, k: int) -> float:
        """Snap to the nearest stored direction, interpolate its quantile."""
        v = self._check_score_args(vector, k)
        if k > self._n_points:
            return float("-inf")
        u_idx = nearest_net_vector(self._net, v)
        # k-th largest projection sits at CDF level 1 - (k - 0.5)/n.
        level = min(1.0, max(0.0, 1.0 - (k - 0.5) / self._n_points))
        q = self._quantiles[u_idx]
        return float(np.interp(level, self._levels, q))

    def score_batch(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """Vectorized snapping + interpolation over many unit vectors."""
        vs = np.atleast_2d(np.asarray(vectors, dtype=float))
        if k > self._n_points:
            return np.full(vs.shape[0], float("-inf"))
        norms = np.linalg.norm(vs, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ValueError("preference vectors must be nonzero")
        nearest = np.argmax((vs / norms) @ self._net.T, axis=1)
        level = min(1.0, max(0.0, 1.0 - (k - 0.5) / self._n_points))
        return np.array(
            [np.interp(level, self._levels, self._quantiles[i]) for i in nearest]
        )
