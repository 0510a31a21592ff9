"""Centrally symmetric ε-nets of unit vectors on the sphere (Section 2).

A set ``C`` of unit vectors is an ε-net of ``S^{d-1}`` if for every unit
vector ``v`` there is ``u ∈ C`` with angle ``O(eps)``; the paper additionally
requires central symmetry (``u ∈ C  ⇒  -u ∈ C``) so that low-score queries
mirror high-score queries.  ``|C| = O(eps^{-(d-1)})`` and the net is built in
``O(eps^{-(d-1)})`` time [Agarwal-Har-Peled-Yu 2008].

Constructions per dimension
---------------------------
- ``d = 1``: ``{+1, -1}``.
- ``d = 2``: evenly spaced angles on the circle.
- ``d = 3``: a Fibonacci sphere lattice, symmetrized.
- ``d >= 4``: a deterministic lattice of normalized grid directions over
  ``{-k..k}^d``, symmetrized and deduplicated — simple, deterministic, and
  with covering radius ``O(1/k)``.

All constructions guarantee, and tests verify, covering angle
``<= arccos(1 / sqrt(1 + eps^2))`` as in the paper's definition.
"""

from __future__ import annotations

import math

import numpy as np


def covering_angle_bound(eps: float) -> float:
    """The paper's net angle bound ``arccos(1 / sqrt(1 + eps^2)) = O(eps)``."""
    return math.acos(1.0 / math.sqrt(1.0 + eps * eps))


def build_epsilon_net(dim: int, eps: float) -> np.ndarray:
    """Build a centrally symmetric ε-net of unit vectors in ``R^dim``.

    Returns an ``(m, dim)`` array of unit vectors with ``m = O(eps^{-(dim-1)})``.

    Examples
    --------
    >>> net = build_epsilon_net(2, 0.25)
    >>> bool(np.allclose(np.linalg.norm(net, axis=1), 1.0))
    True
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    angle = covering_angle_bound(eps)
    if dim == 2:
        return _circle_net(angle)
    if dim == 3:
        return _fibonacci_net(angle)
    return _lattice_net(dim, angle)


def _circle_net(angle: float) -> np.ndarray:
    """Evenly spaced directions on the unit circle with spacing <= angle."""
    # m directions spaced 2*pi/m apart; nearest-direction angle <= pi/m.
    m = max(4, int(math.ceil(math.pi / angle)) * 2)  # even => symmetric
    thetas = np.arange(m) * (2.0 * math.pi / m)
    return np.column_stack([np.cos(thetas), np.sin(thetas)])


def _fibonacci_net(angle: float) -> np.ndarray:
    """Symmetrized Fibonacci sphere lattice with covering angle <= angle."""
    # A Fibonacci lattice of m points has covering radius ~ 2.4 / sqrt(m).
    m = max(8, int(math.ceil((2.6 / angle) ** 2)))
    k = np.arange(m, dtype=float)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * math.pi * k / golden
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return _symmetrize(pts)


def _lattice_net(dim: int, angle: float) -> np.ndarray:
    """Normalized integer grid directions, symmetric and deduplicated."""
    # Directions u/|u| for u in {-k..k}^d cover the sphere with angle O(1/k).
    k = max(1, int(math.ceil(1.5 / angle)))
    if (2 * k + 1) ** dim > 2_000_000:
        raise ValueError(
            f"epsilon-net in dimension {dim} with eps yielding grid radius {k} "
            "is too large; increase eps"
        )
    axes = [np.arange(-k, k + 1, dtype=float)] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    grid = grid[np.any(grid != 0.0, axis=1)]
    norms = np.linalg.norm(grid, axis=1, keepdims=True)
    dirs = grid / norms
    return _symmetrize(_dedupe(dirs))


def _dedupe(vectors: np.ndarray, decimals: int = 9) -> np.ndarray:
    """The rows of ``vectors`` whose rounding no earlier row shares, in
    order: what ``np.unique(rounded, axis=0, return_index=True)`` keeps,
    from one stable ``lexsort`` and a row-change mask (rows compare as
    floats, so ``-0.0`` equals ``0.0``)."""
    rounded = np.round(vectors, decimals)
    order = np.lexsort(rounded.T[::-1])
    ranked = rounded[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return vectors[np.sort(order[first])]


def _symmetrize(vectors: np.ndarray) -> np.ndarray:
    """Ensure u in C implies -u in C (paper requires central symmetry)."""
    return _dedupe(np.vstack([vectors, -vectors]))


def nearest_net_vector(net: np.ndarray, query: np.ndarray) -> int:
    """Index of ``argmin_{h in C} ||u - h||`` (Algorithm 6, line 1).

    For unit vectors, minimizing Euclidean distance equals maximizing the
    inner product, so a single matrix-vector product suffices.
    """
    q = np.asarray(query, dtype=float)
    if q.ndim != 1 or q.shape[0] != net.shape[1]:
        raise ValueError("query must be a vector of the net's dimension")
    norm = np.linalg.norm(q)
    if norm == 0.0:
        raise ValueError("query vector must be nonzero")
    return int(np.argmax(net @ (q / norm)))


def net_covering_angle(net: np.ndarray, trials: int, rng: np.random.Generator) -> float:
    """Empirical covering angle of a net via random probes (for tests/benches)."""
    dim = net.shape[1]
    probes = rng.normal(size=(trials, dim))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    cos = np.clip(probes @ net.T, -1.0, 1.0).max(axis=1)
    return float(np.arccos(cos).max())
