"""ε-samples for the range space of axis-parallel rectangles (Section 2).

By the ε-sample theorem [Vapnik-Chervonenkis 1971; Chazelle 2000], a uniform
random subset of size ``O(eps^-2 log(phi^-1))`` of a point set ``X`` is an
ε-sample for the range space ``(X, rectangles)`` with probability at least
``1 - phi``: for every axis-parallel rectangle ``R``,

    | |X ∩ R| / |X|  -  |C ∩ R| / |C| |  <=  eps.

Lemma 2.1 extends this through a synopsis: sampling from a synopsis with
error ``delta`` yields an ``(eps + delta)``-sample of the underlying dataset.

The constant in the sample-size bound (:data:`DEFAULT_SAMPLE_CONSTANT`) is
chosen so the laptop-scale experiments stay fast while the empirical error
stays well inside the bound (verified in ``tests/geometry/test_epsilon_sample.py``
and the T-FED benchmark).
"""

from __future__ import annotations

import math

import numpy as np

#: Leading constant for the eps-sample size bound.  The theory hides a
#: constant; 0.5 keeps coreset sizes laptop-friendly and is validated
#: empirically by the property tests (rectangle range spaces are benign).
DEFAULT_SAMPLE_CONSTANT = 0.5

#: Hard floor/ceiling on coreset sizes so extreme (eps, phi) choices neither
#: degenerate nor explode the combinatorial rectangle enumeration.
MIN_SAMPLE_SIZE = 4
MAX_SAMPLE_SIZE = 4096


def epsilon_sample_size(eps: float, phi: float, n_datasets: int = 1) -> int:
    """Size ``Theta(eps^-2 log(N / phi))`` of an ε-sample (Algorithm 1, line 4).

    Parameters
    ----------
    eps:
        Target additive error, in ``(0, 1)``.
    phi:
        Failure probability, in ``(0, 1)``.
    n_datasets:
        ``N``; the per-dataset failure budget is ``phi / N`` so a union bound
        makes *all* coresets good simultaneously with probability ``1 - phi``.

    The leading constant is :data:`DEFAULT_SAMPLE_CONSTANT`; the result is
    clamped to ``[MIN_SAMPLE_SIZE, MAX_SAMPLE_SIZE]`` (the enumeration cost
    downstream is polynomial in this size).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    if n_datasets < 1:
        raise ValueError("n_datasets must be positive")
    raw = DEFAULT_SAMPLE_CONSTANT * eps ** -2 * math.log(max(math.e, n_datasets / phi))
    return int(min(max(MIN_SAMPLE_SIZE, math.ceil(raw)), MAX_SAMPLE_SIZE))


def epsilon_of_sample_size(size: int, phi: float, n_datasets: int = 1) -> float:
    """Inverse of :func:`epsilon_sample_size`: the ε a given coreset buys.

    When a coreset is capped below the theoretical size for a requested
    ``eps`` (memory budgets), the data structures widen their query slack to
    this *effective* ε so the recall guarantee is preserved.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must be in (0, 1), got {phi}")
    log_term = math.log(max(math.e, n_datasets / phi))
    raw = math.sqrt(DEFAULT_SAMPLE_CONSTANT * log_term / size)
    return min(1.0, raw)


def draw_epsilon_sample(
    points: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` uniform samples *with replacement* from a point set.

    This is the centralized sampling primitive; federated synopses implement
    their own ``sample`` drawing from the compressed representation (the
    combination is covered by Lemma 2.1).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if size <= 0:
        raise ValueError("sample size must be positive")
    idx = rng.integers(0, pts.shape[0], size=size)
    return pts[idx]


def empirical_rectangle_error(
    points: np.ndarray,
    sample: np.ndarray,
    rectangles: list,
) -> float:
    """Max over the given rectangles of | mass(P, R) - mass(S, R) |.

    A *lower bound* on the true ε-sample error (which quantifies over all
    rectangles); used by tests and the T-FED benchmark to check Lemma 2.1
    empirically.  ``rectangles`` is a list of
    :class:`~repro.geometry.rectangle.Rectangle`.
    """
    pts = np.asarray(points, dtype=float)
    smp = np.asarray(sample, dtype=float)
    worst = 0.0
    for rect in rectangles:
        mass_p = rect.count_inside(pts) / pts.shape[0]
        mass_s = rect.count_inside(smp) / smp.shape[0]
        worst = max(worst, abs(mass_p - mass_s))
    return worst
