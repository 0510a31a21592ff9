"""repro — distribution-aware dataset search.

A complete reproduction of *"A Theoretical Framework for Distribution-Aware
Dataset Search"* (Esmailpour, Galhotra, Raychaudhury, Sintos; PODS 2025):
percentile-aware (Ptile) and preference-aware (Pref) indexing over dataset
repositories, in both the centralized and the federated (synopsis-only)
setting, with the paper's recall/precision guarantees.

Quick start::

    import numpy as np
    from repro import (DatasetSearchEngine, Repository, PercentileMeasure,
                       Rectangle, pred)

    rng = np.random.default_rng(0)
    repo = Repository.from_arrays([rng.normal(size=(1000, 2)) for _ in range(50)])
    engine = DatasetSearchEngine(repository=repo, eps=0.1, rng=rng)
    brooklyn = Rectangle([-1.0, -1.0], [0.0, 0.0])
    result = engine.search(pred(PercentileMeasure(brooklyn), 0.10))
    print(result.indexes)   # datasets with >= 10% of points in the region

For heavy query traffic, the :mod:`repro.service` layer wraps the engine in
a :class:`~repro.service.QueryService` — expression canonicalization, an
LRU leaf-result cache, and a sharded batch executor — and ``repro serve``
exposes it over HTTP.  See ``README.md`` for install, quickstart, and
service-layer usage; benchmark scripts under ``benchmarks/`` record the
paper-versus-measured evidence for every reproduced claim.

The package namespaces are lazy (PEP 562, :mod:`repro._lazy`): ``from
repro import QueryService`` imports ``repro.service.service`` and what it
imports, not every module the packages re-export.  A built serving node
holds about 50 ``repro`` modules instead of 64 (no snapshot, supervisor,
demo-lake, bench or lint code before its first request), and the
imports of the benchmark's node launcher take ~115 ms instead of ~140 ms
(median of fresh interpreters compiling from source, 2-vCPU host).
"""

from repro._lazy import namespace

__version__ = "1.1.0"

__getattr__, __all__ = namespace(__name__, {
    "repro.errors": "ReproError CapabilityError ConstructionError QueryError",
    "repro.geometry.interval": "Interval",
    "repro.geometry.rectangle": "Rectangle",
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
    "repro.service.service": "QueryService",
    "repro.service.cache": "LeafResultCache",
    "repro.service.sharding": "ShardedBatchExecutor",
    "repro.synopsis.base": "Synopsis",
    "repro.synopsis.exact": "ExactSynopsis",
    "repro.synopsis.sample": "EpsilonSampleSynopsis",
    "repro.synopsis.histogram": "HistogramSynopsis",
    "repro.synopsis.gmm": "GMMSynopsis",
    "repro.synopsis.kernel": "DirectionQuantileSynopsis",
    "repro.synopsis.cover": "CoverSynopsis",
})
__all__.append("__version__")
