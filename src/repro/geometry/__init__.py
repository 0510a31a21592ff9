"""Geometric primitives used throughout the library.

This subpackage implements the geometric machinery from Section 2 of the
paper:

- :class:`~repro.geometry.interval.Interval` — closed/open/one-sided
  intervals of the real line (query predicates ``theta`` and weight filters
  ``I'``).
- :class:`~repro.geometry.rectangle.Rectangle` — axis-parallel
  hyper-rectangles in ``R^d`` and the orthant mappings into ``R^{2d}`` /
  ``R^{4d}`` used by the Ptile data structures.
- :mod:`~repro.geometry.epsilon_sample` — the ε-sample machinery
  (Lemma 2.1).
- :mod:`~repro.geometry.epsilon_net` — centrally-symmetric ε-nets of unit
  vectors on the sphere (used by the Pref data structures).
- :mod:`~repro.geometry.rect_enum` — enumeration of combinatorially
  different hyper-rectangles over a coreset, and the maximal-pair
  construction of Section 4.3.
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.geometry.interval": "Interval",
    "repro.geometry.rectangle": "Rectangle",
    "repro.geometry.epsilon_net": "build_epsilon_net nearest_net_vector",
    "repro.geometry.epsilon_sample": "epsilon_sample_size draw_epsilon_sample",
    "repro.geometry.rect_enum": (
        "RectangleGrid enumerate_rectangles enumerate_maximal_pairs "
        "enumerate_maximal_pairs_naive generalized_pairs_arrays rectangles_arrays"
    ),
})
