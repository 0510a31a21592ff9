"""A Fainder-style histogram index for percentile predicates (ref. [8]).

Behme et al., "Fainder: A fast and accurate index for distribution-aware
dataset search" (PVLDB 2024) — the prior system that first defined the
Ptile problem.  Its design, per the paper's Related Work:

- each dataset is represented by per-attribute histograms (a federated
  setting with histogram synopses);
- queries are *one-sided* percentile predicates over a *single attribute*
  ("fraction of values of attribute A below/above t is at least p");
- answering collects candidate datasets by scanning percentile-sorted
  structures, with query time super-linear in N in the worst case
  (Section 4.1: "the query time is Ω(N) in the worst case");
- it cannot handle multi-attribute rectangles or two-sided intervals.

This reimplementation captures those behaviours: per-attribute cumulative
histograms, *under-* and *over-estimate* answer modes (Fainder's
approximate modes bracketing the exact answer), and an exactness gap that
the T-BASE benchmark compares against our index's guarantees.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError


class FainderStyleIndex:
    """Per-attribute histogram percentile index in the style of Fainder [8].

    Parameters
    ----------
    datasets:
        Raw ``(n_i, d)`` arrays (histograms are built from them, then the
        raw data is discarded — federated storage model).
    bins:
        Histogram resolution per attribute.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> idx = FainderStyleIndex([rng.uniform(0, 1, (500, 2)) for _ in range(3)])
    >>> res = idx.query(attribute=0, op="below", threshold=0.5, fraction=0.4)
    >>> sorted(res.indexes)
    [0, 1, 2]
    """

    def __init__(self, datasets: Iterable[np.ndarray], bins: int = 32) -> None:
        data = [np.asarray(d, dtype=float) for d in datasets]
        if not data:
            raise ConstructionError("need at least one dataset")
        dims = {d.shape[1] for d in data}
        if len(dims) != 1:
            raise ConstructionError("all datasets must share a dimension")
        self.dim = dims.pop()
        if bins < 2:
            raise ConstructionError("bins must be >= 2")
        self.n_datasets = len(data)
        # Per dataset, per attribute: bin edges + cumulative mass.
        self._edges: list[list[np.ndarray]] = []
        self._cum: list[list[np.ndarray]] = []
        for d in data:
            edges_i, cum_i = [], []
            for h in range(self.dim):
                col = d[:, h]
                lo, hi = col.min(), col.max()
                if hi <= lo:
                    hi = lo + 1.0
                edges = np.linspace(lo, hi + 1e-9 * (hi - lo), bins + 1)
                counts, _ = np.histogram(col, bins=edges)
                edges_i.append(edges)
                cum_i.append(np.concatenate([[0.0], np.cumsum(counts)]) / col.size)
            self._edges.append(edges_i)
            self._cum.append(cum_i)

    # ------------------------------------------------------------------
    def _fraction_below(self, i: int, attribute: int, threshold: float, mode: str) -> float:
        """Estimated mass of attribute values ``<= threshold``.

        ``mode`` selects Fainder's bracketing estimates: ``"under"`` counts
        only fully covered bins, ``"over"`` also counts the cut bin fully,
        ``"interp"`` interpolates inside the cut bin.
        """
        edges = self._edges[i][attribute]
        cum = self._cum[i][attribute]
        if threshold < edges[0]:
            return 0.0
        if threshold >= edges[-1]:
            return 1.0
        pos = int(np.searchsorted(edges, threshold, side="right")) - 1
        pos = min(pos, len(edges) - 2)
        under = cum[pos]
        over = cum[pos + 1]
        if mode == "under":
            return float(under)
        if mode == "over":
            return float(over)
        frac = (threshold - edges[pos]) / (edges[pos + 1] - edges[pos])
        return float(under + frac * (over - under))

    def query(
        self,
        attribute: int,
        op: str,
        threshold: float,
        fraction: float,
        mode: str = "interp",
        record_times: bool = False,
    ) -> QueryResult:
        """One-sided percentile predicate over a single attribute.

        Report datasets where the fraction of values of ``attribute``
        ``below`` (``<=``) or ``above`` (``>``) ``threshold`` is at least
        ``fraction``.  ``mode ∈ {"under", "over", "interp"}`` selects the
        estimate; ``"over"`` guarantees no false negatives (full recall),
        ``"under"`` no false positives — Fainder's bracketing behaviour.

        The scan is Ω(N): every dataset's histogram is inspected.
        """
        if not 0 <= attribute < self.dim:
            raise QueryError(f"attribute {attribute} out of range")
        if op not in ("below", "above"):
            raise QueryError("op must be 'below' or 'above'")
        if mode not in ("under", "over", "interp"):
            raise QueryError("mode must be 'under', 'over' or 'interp'")
        # For "above" queries the bracketing modes swap roles.
        below_mode = mode
        if op == "above" and mode in ("under", "over"):
            below_mode = "over" if mode == "under" else "under"

        def value(i: int) -> float:
            below = self._fraction_below(i, attribute, threshold, below_mode)
            return below if op == "below" else 1.0 - below

        hits = (i for i in range(self.n_datasets) if value(i) >= fraction)
        return _emit(QueryResult(), hits, record_times)

    def supports_rectangles(self) -> bool:
        """Fainder cannot answer multi-attribute rectangle predicates."""
        return False

    def supports_two_sided(self) -> bool:
        """Fainder supports only one-sided percentile predicates."""
        return False
