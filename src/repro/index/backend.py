"""The pluggable range-search backend contract and registry.

Every Ptile query (Theorems 4.11/5.4) bottoms out in mapped-space orthant
reporting, so the engine behind it is a first-class substitution point.
This module formalizes the seam:

- :class:`RangeSearchBackend` — the structural protocol every engine
  implements: ``report`` / ``report_first`` / ``report_groups`` /
  ``count`` over *active* points, the group toggles ``deactivate_group`` /
  ``activate_group``, ``insert`` / ``remove_group`` dynamics (static
  backends advertise ``supports_insert = False`` and raise
  :class:`~repro.errors.CapabilityError`).
- :func:`build_backend` / :func:`build_engine` (the same backend from a
  stream of mapped-point pieces, which the kd-tree codes one block at a
  time, so no shard-wide float matrix exists) / :func:`restore_backend` over the
  :func:`backend_class` registry: ``"kd"`` (dynamic kd-tree, default),
  ``"rangetree"`` (textbook multi-level range tree, static, small scale
  only), ``"columnar"`` (vectorized columnar scan store, dynamic).  The
  ``to_arrays`` / ``from_arrays`` persistence pair belongs to the dynamic
  engines (:data:`DYNAMIC_ENGINES`); ``restore_backend`` refuses the rest.
  Every registered class is built as ``cls(points, ids=ids)`` and restored
  as ``cls.from_arrays(arrays)``: what tunes one engine (the kd-tree's
  leaf size) is a constant of that engine's module, not a registry argument.

**An entry id is its dataset's key, stored as one column.**  Every
mapped point carries the key of the dataset (*group*) it belongs to — a
non-negative int below 2^31, shared by all of that dataset's points.
Backends take ids as a sequence or an ``(n,)`` integer array and keep them
as one column in the smallest unsigned dtype that holds the largest key
(:func:`id_column`; ``uint8`` for a shard of at most 256 datasets, no
per-point Python object), widened when an insert brings a larger key and
narrowed again when a rebuild drops it; ``report`` / ``report_first`` /
``report_many`` hand back the keys of the points they hit, one per point
(``report_many``'s arrays in the column's dtype: reduce them, never add
to them).  The key is the unit Algorithms 2 and 4
work in: ``report_groups(box)`` is the set of keys with an active point in
the box, and "temporarily delete all points of the reported dataset" is
``deactivate_group`` — one mask write, not a loop over points.

**How a backend stores coordinates is its own business.**  The contract
speaks only of float points in and keys out; the kd-tree keeps each column
as 1–2-byte ranks in a sorted level table (:mod:`repro.index.kd_tree` —
10.2 bytes of coordinates and node boxes per mapped point on the 2-D
benchmark lake where float64 columns took 80.7, 16.5 against 48.6 on the
1-D lakes), the columnar store keeps float64 columns because its job is
O(1) appends.  Their ``to_arrays`` / ``from_arrays`` carry whichever it
is, and ``nbytes`` reports what it costs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConstructionError
from repro.index.query_box import QueryBox

_I32 = np.iinfo(np.int32)


def id_column(ids: Optional[Iterable], n: int) -> np.ndarray:
    """The key column of ``n`` entries, in the smallest unsigned dtype that
    holds its largest key (``uint8`` up to 255, ``uint16`` up to 65 535,
    ``uint32`` above); an array already in that dtype is returned as is.

    ``ids`` is None (positions ``0..n-1``, every point its own group), a
    sequence of ints or the equivalent ``(n,)`` integer array; a key may
    repeat.  Anything else — strings, floats, pairs, negative keys or keys
    past int32, a length other than ``n`` — is a ``ValueError``.

    >>> id_column([7, 7, 4], 3)
    array([7, 7, 4], dtype=uint8)
    """
    if ids is None:
        arr = np.arange(n)
    else:
        arr = ids if isinstance(ids, np.ndarray) else np.asarray(list(ids))
        if arr.size == 0:
            arr = np.empty(0, dtype=np.int64)
    if arr.shape[0] != n:
        raise ValueError("points and ids must have equal length")
    if arr.dtype.kind not in "iu" or arr.ndim != 1:
        raise ValueError("ids must be int dataset keys")
    if arr.size and arr.min() < 0:
        raise ValueError("dataset keys must be non-negative")
    top = int(arr.max()) if arr.size else 0
    if top > _I32.max:
        raise ValueError("entry ids must fit int32")
    return arr.astype(np.min_scalar_type(top), copy=False)


@runtime_checkable
class RangeSearchBackend(Protocol):
    """Structural contract of a mapped-space range-search engine.

    All query methods see only *active* points.  ``insert`` /
    ``remove_group`` are the dynamic-synopsis operations (Remark 1); a
    static backend keeps the methods but raises
    :class:`~repro.errors.CapabilityError` and reports
    ``supports_insert = False`` so callers can refuse up front.
    """

    dim: int

    def __len__(self) -> int:
        """Total stored points (active or not)."""
        ...

    @property
    def n_active(self) -> int:
        """Number of points currently visible to queries."""
        ...

    @property
    def supports_insert(self) -> bool:
        """Whether ``insert`` / ``remove_group`` are usable on this backend."""
        ...

    @property
    def nbytes(self) -> int:
        """Bytes the backend holds in arrays — the operator's view of the
        space bound's constant (``/stats`` sums it over built shards).
        Reads sizes only: no lock, no build, no copy."""
        ...

    def report(self, box: QueryBox) -> list:
        """The keys of the active points inside the box, one per point."""
        ...

    def report_first(self, box: QueryBox):
        """The key of one arbitrary active point inside the box, or None."""
        ...

    def report_groups(self, box: QueryBox) -> set:
        """All keys with >= 1 active point in the box — the bulk form of
        the ReportFirst/deactivate loop."""
        ...

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box."""
        ...

    def report_many(self, boxes: Sequence[QueryBox]) -> list:
        """Per-box keys of the active points inside each box of a batch.

        The batch kernel of the cold path: semantically identical to
        ``[self.report(b) for b in boxes]`` (the equivalence suite asserts
        it; the dynamic engines give each box an int array instead of a
        list), but free to share work across boxes — one broadcast
        containment pass on the columnar store, a single multi-box tree
        walk on the kd-tree.
        """
        ...

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[set]:
        """Per-box key sets (``[self.report_groups(b) for b in boxes]``)."""
        ...

    def deactivate_group(self, group: int) -> int:
        """Hide every active point of ``group``; returns how many (0 for a
        group with none) — Algorithm 2 line 6 / Algorithm 4 line 7."""
        ...

    def activate_group(self, group: int) -> int:
        """Re-show every hidden (not removed) point of ``group``; returns
        how many — the restore step after the report loop."""
        ...

    def insert(self, points: np.ndarray, ids: Iterable) -> None:
        """Add new points under their dataset keys (dynamic backends only);
        a key already stored gains the points."""
        ...

    def remove_group(self, group: int) -> int:
        """Permanently remove every point of ``group``, active or not
        (dynamic backends only); returns how many.  An absent group is a
        no-op returning 0; the key is reusable by ``insert`` immediately."""
        ...


#: Registered backend names, in documentation order.
ENGINES = ("kd", "rangetree", "columnar")

#: Backends whose ``insert`` / ``remove_group`` work (live mutation, delta
#: shards) — also the ones with a persisted form (the ``backend-protocol`` lint rule
#: requires it of exactly these): ``to_arrays()``, the flat arrays that
#: reconstruct the backend, removed entries excluded, and a ``from_arrays``
#: classmethod that adopts them (they may be read-only maps of a snapshot
#: file; only activity state is copied) and answers every query identically.
DYNAMIC_ENGINES = ("kd", "columnar")


def backend_class(engine: str) -> type:
    """The class registered under a backend name."""
    # Local imports: the implementations import QueryBox from this package,
    # and the registry must stay importable from any of them.
    if engine == "kd":
        from repro.index.kd_tree import DynamicKDTree

        return DynamicKDTree
    if engine == "rangetree":
        from repro.index.range_tree import RangeTree

        return RangeTree
    if engine == "columnar":
        from repro.index.columnar import ColumnarStore

        return ColumnarStore
    raise ConstructionError(f"unknown engine {engine!r}; choose from {ENGINES}")


def build_backend(
    points: np.ndarray, ids: Optional[Iterable], engine: str = "kd"
) -> RangeSearchBackend:
    """Instantiate a registered backend over ``(n, k)`` mapped points.

    Examples
    --------
    >>> import numpy as np
    >>> pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    >>> for name in ENGINES:
    ...     eng = build_backend(pts, [7, 9], name)
    ...     assert eng.report_groups(QueryBox.closed([-1, 0], [3, 4])) == {7, 9}
    """
    return backend_class(engine)(points, ids=ids)


#: The Ptile builders cut their mapped rows into pieces of at most this
#: many float64 elements (rows x columns, 512 KB; at least one row), and
#: :func:`build_engine` hands the kd-tree those pieces as its blocks, so
#: no float matrix larger than one block exists.  In-process
#: ``QueryService`` + ``warm()`` on the benchmark's lakes (seed 2027, 4
#: shards, 2-vCPU host; build time median of 9 interleaved runs,
#: ``tracemalloc`` peak) at 2^12 / 2^14 / 2^16 / 2^18 / 2^20 / one block:
#: 2-D ``cold_2d`` (83 k elements a dataset, 16 datasets a shard) 0.79 /
#: 0.38 / 0.27 / 0.28 / 0.30 / 0.30 s and 16.2 / 15.5 / 15.4 / 20.9 / 35.7
#: / 36.3 MB against a 9.2 MB index; 1-D ``warm_point`` (546 elements a
#: dataset, 500 a shard) 0.20 / 0.14 / 0.12 / 0.12 / 0.11 / 0.12 s and
#: 8.6 / 8.7 / 9.9 / 14.6 / 14.6 / 14.6 MB against 4.5.  Small blocks cost
#: one enumeration call and one ``np.unique`` per column each (a block per
#: 1-D dataset, 546 elements: 0.74 s against 0.12 in one sitting), and
#: split the 2-D datasets into many ranges; large ones are the matrix this
#: constant exists to avoid.  2^16 is the largest value at the low peak on
#: ``cold_2d``, within 1.3 MB of it on ``warm_point``.
BLOCK_ELEMENTS = 1 << 16


def build_engine(mapped: Iterable[tuple], engine: str) -> RangeSearchBackend:
    """:func:`build_backend` over a stream: the backend over all rows of
    ``mapped``, an iterable of ``(points, ids)`` pieces (``ids`` every
    row's dataset key, an integer array), consumed lazily.

    The kd-tree takes the pieces as its blocks and rank-codes each on
    arrival (:meth:`~repro.index.kd_tree.DynamicKDTree.from_blocks`); the
    Ptile builders cut theirs to at most :data:`BLOCK_ELEMENTS` elements,
    so a shard's mapped points never exist as one float64 matrix.  The
    other engines store floats, or are small scale only: they get the
    stacked matrix.

    >>> import numpy as np
    >>> mapped = [(np.array([[0.0]]), np.array([4])), (np.array([[1.0]]), np.array([9]))]
    >>> [build_engine(iter(mapped), e).report(QueryBox.closed([0.5], [2]))
    ...  for e in ENGINES]
    [[9], [9], [9]]
    """
    if engine == "kd":
        return backend_class(engine).from_blocks(mapped)
    points, ids = map(np.concatenate, zip(*mapped))
    return build_backend(points, ids, engine)


def restore_backend(
    arrays: Mapping[str, np.ndarray], engine: str
) -> RangeSearchBackend:
    """A dynamic backend from its own ``to_arrays()`` (snapshot restore)."""
    return backend_class(check_dynamic_engine(engine)).from_arrays(arrays)


def check_dynamic_engine(engine: str) -> str:
    """Validate the name of an engine that is served, ingested into and
    snapshotted — what the static ``"rangetree"`` is not."""
    if engine not in DYNAMIC_ENGINES:
        raise ConstructionError(
            f"the serving layer and its snapshots need a dynamic engine, one "
            f"of {DYNAMIC_ENGINES}; got {engine!r}"
        )
    return engine


def check_engine(engine: str) -> str:
    """Validate a backend name early (construction-time, not first query)."""
    if engine not in ENGINES:
        raise ConstructionError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    return engine
