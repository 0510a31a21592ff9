"""Synthetic data-lake workloads.

The paper motivates the problems on open-data repositories of ~100K
datasets (Example 1.1).  Those repositories are proprietary-ish and huge;
we substitute controlled synthetic generators with known ground truth:

- :mod:`~repro.workloads.generators` — parametric dataset families
  (uniform, Gaussian mixtures, skewed, controlled-mass) with realistic
  dataset-size skew;
- :mod:`~repro.workloads.queries` — query workloads (rectangles with
  controlled selectivity, random preference vectors and thresholds);
- :mod:`~repro.workloads.opendata` — the running example: city incident
  records for percentile queries and neighborhood quality-of-life tables
  for preference queries.
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.workloads.generators": (
        "lognormal_sizes synthetic_data_lake dataset_with_mass"
    ),
    "repro.workloads.queries": (
        "ambient_gaussian_dataset batched_query_workload mutation_workload "
        "random_rectangles random_unit_vectors threshold_grid"
    ),
    "repro.workloads.opendata": (
        "city_incident_repository city_quality_repository BROOKLYN_REGION"
    ),
})
