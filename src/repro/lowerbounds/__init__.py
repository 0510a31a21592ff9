"""Lower-bound reductions (Section 3, Appendices B.1-B.2).

These modules make the paper's hardness arguments *executable*:

- :mod:`~repro.lowerbounds.set_intersection` — uniform set-intersection
  instances and the two-line geometric reduction to CPtile in R² (Fig. 4),
  demonstrating that an exact CPtile structure answers set-intersection
  queries (hence cannot be simultaneously small and fast under the strong
  set-intersection conjecture, Theorem 3.4).
- :mod:`~repro.lowerbounds.halfspace` — the reduction from halfspace
  reporting to CPref with singleton datasets (Theorem 3.5).
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.lowerbounds.set_intersection": (
        "UniformSetIntersectionInstance make_uniform_instance "
        "intersection_query_rectangle intersect_via_cptile"
    ),
    "repro.lowerbounds.halfspace": (
        "halfspace_report_brute_force halfspace_report_via_cpref"
    ),
})
