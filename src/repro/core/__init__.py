"""The paper's primary contribution: distribution-aware indexing.

This subpackage implements the theoretical framework of Section 1.1 and all
data structures of Sections 4-5 and Appendices C-D:

- :mod:`~repro.core.framework` — datasets, repositories, schemas.
- :mod:`~repro.core.measures` — percentile (``F_□``) and top-k preference
  (``F_k``) measure functions.
- :mod:`~repro.core.predicates` — range/threshold predicates and logical
  expressions (conjunction/disjunction ASTs).
- :mod:`~repro.core.ptile_threshold` — Algorithms 1-2 (Theorem 4.4).
- :mod:`~repro.core.ptile_range` — Algorithms 3-4 (Theorem 4.11).
- :mod:`~repro.core.ptile_logical` — Appendix C.4 (Theorem C.8).
- :mod:`~repro.core.ptile_exact_1d` — Appendix C.1 (Theorem C.5).
- :mod:`~repro.core.pref_index` — Algorithms 5-6 (Theorem 5.4).
- :mod:`~repro.core.pref_logical` — Appendix D.1 (Theorem D.4).
- :mod:`~repro.core.engine` — a unified search engine routing arbitrary
  logical expressions to the appropriate index.
- :mod:`~repro.core.bitset` — packed ``uint64`` bitsets, the warm-path
  answer representation shared by the engine and the service layer.
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.core.bitset": "DatasetBitmap bitmap_from_wire",
    "repro.core.framework": "Dataset Repository",
    "repro.core.measures": "MeasureFunction PercentileMeasure PreferenceMeasure",
    "repro.core.predicates": "Predicate And Or pred",
    "repro.core.results": "QueryResult",
    "repro.core.ptile_threshold": "PtileThresholdIndex",
    "repro.core.ptile_range": "PtileRangeIndex",
    "repro.core.ptile_logical": "PtileLogicalIndex",
    "repro.core.ptile_exact_1d": "ExactPtile1DIndex",
    "repro.core.pref_index": "PrefIndex",
    "repro.core.pref_logical": "PrefLogicalIndex",
    "repro.core.engine": "DatasetSearchEngine",
    "repro.core.nn_index": "NearestNeighborIndex",
    "repro.core.diversity_index": "DiversityIndex",
})
