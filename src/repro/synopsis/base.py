"""The synopsis interface (Section 1.1, "Synopsis").

The two index families consume synopses through two narrow procedures:

- ``sample(size, rng)`` — ``S_P.Sample(kappa)`` of Algorithm 1: ``kappa``
  random draws (with replacement) from the distribution the synopsis
  represents; combined with Lemma 2.1 this yields an ``(eps+delta)``-sample
  of the underlying dataset.
- ``score(vector, k)`` — ``S_P.Score(v, k)`` of Algorithm 5: an estimate of
  ``omega_k(P, v)``, the k-th largest inner product of ``P`` with the unit
  vector ``v``.

Each synopsis advertises its error bounds ``delta_ptile`` (for ``F_□``) and
``delta_pref`` (for ``F_k``); a synopsis that does not support a class
raises :class:`~repro.errors.CapabilityError` and reports ``None`` for the
corresponding delta.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.errors import CapabilityError
from repro.geometry.rectangle import Rectangle

#: How many random probes a synopsis built from raw points spends
#: *measuring* the error bound it advertises (the paper's model takes each
#: ``delta_i`` as known to the data owner): rectangles for ``delta_ptile``,
#: unit directions — each scored at the ranks ``PROBE_K_FRACS * n`` — for
#: ``delta_pref``.  Read when a synopsis is constructed.
PROBE_RECTS = 128
PROBE_DIRS = 32
PROBE_K_FRACS = (0.01, 0.1, 0.25)


class Synopsis(ABC):
    """Abstract base class for dataset synopses."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Dimension ``d`` of the represented dataset."""

    @property
    @abstractmethod
    def n_points(self) -> int:
        """Size ``n_i = |P_i|`` of the represented dataset."""

    # ------------------------------------------------------------------
    # Percentile-class capability (F_□)
    # ------------------------------------------------------------------
    @property
    def delta_ptile(self) -> Optional[float]:
        """Upper bound on ``Err_{S_P}(F_□)``, or None if unsupported."""
        return None

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` random draws (with replacement) from the synopsis.

        Raises
        ------
        CapabilityError
            If the synopsis does not support the percentile class.
        """
        raise CapabilityError(
            f"{type(self).__name__} does not support sampling (class F_□)"
        )

    def mass(self, rect: Rectangle) -> float:
        """Estimate of ``M_R(P) = |P ∩ R| / |P|`` for a rectangle.

        Default implementation is unsupported; subclasses that support the
        percentile class override it (it powers the Fainder-style baseline
        and diagnostics, not the paper's index itself).
        """
        raise CapabilityError(
            f"{type(self).__name__} does not support mass estimation (class F_□)"
        )

    # ------------------------------------------------------------------
    # Preference-class capability (F_k)
    # ------------------------------------------------------------------
    @property
    def delta_pref(self) -> Optional[float]:
        """Upper bound on ``Err_{S_P}(F_k)``, or None if unsupported."""
        return None

    def score(self, vector: np.ndarray, k: int) -> float:
        """Estimate of ``omega_k(P, v)``, the k-th largest projection.

        Raises
        ------
        CapabilityError
            If the synopsis does not support the preference class.
        """
        raise CapabilityError(
            f"{type(self).__name__} does not support scoring (class F_k)"
        )

    def score_batch(self, vectors: np.ndarray, k: int) -> np.ndarray:
        """``score`` over many unit vectors at once (``(m, d)`` array).

        The default loops; synopses with vectorizable scoring override it
        (this dominates Pref construction time: ``|C|`` calls per dataset).
        """
        vs = np.atleast_2d(np.asarray(vectors, dtype=float))
        return np.array([self.score(v, k) for v in vs])

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_sample_args(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"sample size must be positive, got {size}")

    def _check_score_args(self, vector: np.ndarray, k: int) -> np.ndarray:
        v = np.asarray(vector, dtype=float)
        if v.ndim != 1 or v.shape[0] != self.dim:
            raise ValueError(f"vector must have shape ({self.dim},)")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("preference vector must be nonzero")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return v / norm
