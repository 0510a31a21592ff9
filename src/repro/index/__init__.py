"""Range-searching substrate (Section 2: range trees, dynamic variants).

The paper's data structures reduce every query to *orthogonal range
reporting over weighted points*: find/report points of a mapped point set
inside an axis-parallel box (an orthant crossed with a weight interval).
This subpackage provides that machinery:

- :class:`~repro.index.query_box.QueryBox` — axis-parallel boxes with
  per-side open/closed bounds (needed for the strict inequalities of the
  ``R^{4d}`` orthant of Algorithm 4).
- :class:`~repro.index.fenwick.FenwickTree` — binary indexed tree over 0/1
  activity flags with ``find_first`` support.
- :class:`~repro.index.sorted_list.SortedListIndex` — the 1-dimensional
  range tree: a static sorted array with Fenwick-indexed activation,
  supporting ``report`` / ``report_first`` / ``count`` over active entries.
- :class:`~repro.index.range_tree.RangeTree` — the classic multi-level
  range tree (tree over the first coordinate, associated structures on the
  rest), faithful to the textbook construction [de Berg et al.]; practical
  for low mapped dimension.
- :class:`~repro.index.kd_tree.DynamicKDTree` — the serving engine: a
  median-split kd-tree held as flat arrays (tree-ordered column-major
  rank codes — 1–2 bytes per coordinate — with their per-column level
  tables, a dataset-key column as narrow as the largest key allows
  (``uint8`` up to 256 datasets), a preorder node table with active
  counters) supporting ``report_first`` over *active* points,
  ``deactivate_group`` / ``activate_group`` (the delete/re-insert trick of
  Algorithms 2 and 4), and bulk insertion with amortized rebuilds for the
  dynamic-synopsis remarks.
- :class:`~repro.index.columnar.ColumnarStore` — not an engine: the
  kd-tree's float side buffer (O(1) appends between rebuilds) and the float
  oracle the tests compare the rank-coded tree against.

The engines implement the :class:`~repro.index.backend.RangeSearchBackend`
protocol (the multi-box batch kernels ``report_many / report_groups_many``
— one shared traversal on the kd-tree, each box's keys a sorted unique
integer array, a single box a batch of one — plus ``report_first / count /
deactivate_group / activate_group / insert / remove_group / nbytes``) over
integer dataset keys (see
:mod:`repro.index.backend`); the dynamic kd-tree adds the ``to_arrays`` /
``from_arrays`` pair snapshots restore from.  Every layer above — the
Ptile structures, :class:`~repro.core.engine.DatasetSearchEngine`, the
service shards — is parameterized by a backend name resolved through
:func:`~repro.index.backend.build_backend` or its streaming form,
:func:`~repro.index.backend.build_engine`; the service serves ``"kd"``
alone.
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.index.query_box": "QueryBox",
    "repro.index.fenwick": "FenwickTree",
    "repro.index.sorted_list": "SortedListIndex",
    "repro.index.range_tree": "RangeTree",
    "repro.index.kd_tree": "DynamicKDTree",
    "repro.index.backend": "RangeSearchBackend ENGINES DYNAMIC_ENGINES build_backend",
})
