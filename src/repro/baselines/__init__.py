"""Baselines the paper compares against (Section 4.1).

- :class:`~repro.baselines.linear_scan.LinearScanPtile` — the "naive"
  baseline: one range-counting structure per dataset; exact, but Ω(N) per
  query.
- :class:`~repro.baselines.fainder.FainderStyleIndex` — a reimplementation
  of the histogram-based federated percentile index of Behme et al. [8]
  (one-sided predicates over single attributes; query time super-linear in
  N in the worst case).
- :class:`~repro.baselines.pref_scan.LinearScanPref` — the Ω(N) exact
  baseline for preference queries.
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.baselines.linear_scan": "LinearScanPtile",
    "repro.baselines.fainder": "FainderStyleIndex",
    "repro.baselines.pref_scan": "LinearScanPref",
})
