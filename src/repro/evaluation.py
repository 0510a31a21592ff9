"""Evaluation utilities: recall / precision / guarantee-slack audits.

The tests, benchmarks and examples all need the same three checks against
ground truth:

- **recall** — the paper's hard guarantee ``q_Π(P) ⊆ J``;
- **precision** — the fraction of reported indexes that exactly satisfy
  the predicate;
- **slack audit** — every false positive must sit within the documented
  additive band of the thresholds (``2·ε_eff + 2·δ_i`` for Ptile/Pref,
  ``2r`` / ``4r`` for the Section 6 extensions).

This module centralizes them so every consumer applies identical, audited
logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.geometry.interval import Interval


@dataclass
class GuaranteeReport:
    """Outcome of auditing one query against exact ground truth.

    Attributes
    ----------
    truth:
        The exact index set.
    reported:
        The index set returned by the structure under audit.
    slack_violations:
        False positives whose exact measure falls *outside* the widened
        interval — must be empty for a correct implementation.
    """

    truth: set = field(default_factory=set)
    reported: set = field(default_factory=set)
    slack_violations: list = field(default_factory=list)

    @property
    def missed(self) -> set:
        """False negatives — must be empty (the recall guarantee)."""
        return self.truth - self.reported

    @property
    def recall(self) -> float:
        """``|truth ∩ reported| / |truth|`` (1.0 when truth is empty)."""
        if not self.truth:
            return 1.0
        return len(self.truth & self.reported) / len(self.truth)

    @property
    def precision(self) -> float:
        """``|truth ∩ reported| / |reported|`` (1.0 when nothing reported)."""
        if not self.reported:
            return 1.0
        return len(self.truth & self.reported) / len(self.reported)

    @property
    def guarantees_hold(self) -> bool:
        """Recall is perfect and every false positive is inside the slack."""
        return not self.missed and not self.slack_violations


def audit_interval_query(
    exact_values: Sequence[float],
    reported: set,
    theta: Interval,
    slack_of: Callable[[int], float],
) -> GuaranteeReport:
    """Audit a range/threshold query over per-dataset exact measure values.

    Parameters
    ----------
    exact_values:
        ``exact_values[i]`` is the exact measure ``M(P_i)``.
    reported:
        The index set the structure returned.
    theta:
        The queried interval.
    slack_of:
        Per-dataset additive slack (e.g. ``lambda j: 2*eps_eff + 2*delta_j``).

    Examples
    --------
    >>> rep = audit_interval_query([0.5, 0.1], {0, 1}, Interval(0.4, 1.0),
    ...                            slack_of=lambda j: 0.2)
    >>> rep.recall, rep.precision, rep.slack_violations
    (1.0, 0.5, [(1, 0.1, 0.2)])
    """
    truth = {i for i, v in enumerate(exact_values) if v in theta}
    violations = []
    for j in reported:
        slack = slack_of(j)
        widened = theta.expand(slack)
        if exact_values[j] not in widened:
            violations.append((j, float(exact_values[j]), slack))
    return GuaranteeReport(
        truth=truth, reported=set(reported), slack_violations=violations
    )


def exact_ptile_masses(datasets: Sequence[np.ndarray], rect) -> list[float]:
    """Exact ``M_R(P_i)`` for every raw dataset."""
    return [rect.count_inside(np.asarray(d)) / len(d) for d in datasets]


def exact_pref_scores(
    datasets: Sequence[np.ndarray], vector: np.ndarray, k: int
) -> list[float]:
    """Exact ``omega_k(P_i, v)`` for every raw dataset (``-inf`` if small)."""
    v = np.asarray(vector, dtype=float)
    v = v / np.linalg.norm(v)
    out = []
    for d in datasets:
        pts = np.asarray(d, dtype=float)
        if k > pts.shape[0]:
            out.append(float("-inf"))
        else:
            proj = pts @ v
            out.append(float(np.partition(proj, pts.shape[0] - k)[pts.shape[0] - k]))
    return out


def audit_ptile_query(
    datasets: Sequence[np.ndarray],
    index,
    rect,
    theta: Interval,
    key_map: Optional[dict] = None,
) -> GuaranteeReport:
    """End-to-end audit of a PtileRangeIndex / PtileThresholdIndex query.

    ``key_map`` translates index keys to dataset positions when the two
    differ (after dynamic churn); identity by default.
    """
    masses = exact_ptile_masses(datasets, rect)
    if hasattr(index, "query") and theta.is_threshold and not hasattr(index, "bounding_box"):
        result = index.query(rect, theta.lo)
    else:
        result = index.query(rect, theta)
    keys = result.index_set
    if key_map:
        keys = {key_map[k] for k in keys}
    return audit_interval_query(
        masses,
        keys,
        theta.clamp(0.0, 1.0),
        slack_of=lambda j: 2 * index.eps_effective + 2 * index.delta_of(j),
    )
