"""The pluggable range-search backend contract and registry.

Every Ptile query (Theorems 4.11/5.4) bottoms out in mapped-space orthant
reporting, so the engine behind it is a first-class substitution point.
This module formalizes the seam:

- :class:`RangeSearchBackend` — the structural protocol every engine
  implements: the batch kernels ``report_many`` / ``report_groups_many``
  (a single box is a batch of one), ``report_first`` / ``count`` over
  *active* points, the group toggles ``deactivate_group`` /
  ``activate_group``, ``insert`` / ``remove_group`` dynamics (a static
  backend raises :class:`~repro.errors.CapabilityError`; which engines are
  dynamic is :data:`DYNAMIC_ENGINES`, and nothing else says it).
- :func:`build_backend` / :func:`build_engine` (the same backend from a
  stream of level-coded pieces, which the kd-tree plants on as they are,
  so no mapped point exists as floats) / :func:`restore_backend` over the
  :func:`backend_class` registry: ``"kd"`` (dynamic kd-tree, the one
  serving backend) and ``"rangetree"`` (textbook multi-level range tree,
  static, small scale only: the tests' oracle and the paper's delay and
  Theorem D.4 rows).  The ``to_arrays`` / ``from_arrays`` persistence pair
  belongs to the dynamic engine (:data:`DYNAMIC_ENGINES`);
  ``restore_backend`` refuses any other name.  Every registered class is
  built as ``cls(points, ids=ids)``: what tunes one engine (the kd-tree's
  leaf size) is a constant of that engine's module, not a registry argument.

**An entry id is its dataset's key, stored as one column.**  Every
mapped point carries the key of the dataset (*group*) it belongs to — a
non-negative int below 2^31, shared by all of that dataset's points.
Backends take ids as a sequence or an ``(n,)`` integer array and keep them
as one column in the smallest unsigned dtype that holds the largest key
(:func:`id_column`; ``uint8`` for a shard of at most 256 datasets, no
per-point Python object), widened when an insert brings a larger key and
narrowed again when a rebuild drops it; ``report_first`` / ``report_many``
hand back the keys of the points they hit, one per point (``report_many``'s
arrays in the column's dtype: reduce them, never add to them).  The key is
the unit Algorithms 2 and 4 work in: ``report_groups_many`` gives each
box's keys with an active point in it as one strictly ascending integer
array, the one form of an answer, and "temporarily delete all points of
the reported dataset" is ``deactivate_group`` — one mask write, not a loop
over points.

**How a backend stores coordinates is its own business.**  The contract
speaks of float points (or codes of them) in and keys out; the kd-tree keeps each column
as 1–2-byte ranks in a sorted level table (:mod:`repro.index.kd_tree` —
10.2 bytes of coordinates and node boxes per mapped point on the 2-D
benchmark lake where float64 columns took 80.7, 16.5 against 48.6 on the
1-D lakes), and its ``to_arrays`` / ``from_arrays`` carry those codes;
``nbytes`` reports what it costs.
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

    All query methods see only *active* points (``count`` of
    ``QueryBox.unbounded(dim)`` is how many there are).  ``insert`` /
    ``remove_group`` are the dynamic-synopsis operations (Remark 1); a
    static backend keeps the methods but raises
    :class:`~repro.errors.CapabilityError` — callers refuse up front by
    the engine's name, against :data:`DYNAMIC_ENGINES`.
    """

    dim: int

    def __len__(self) -> int:
        """Total stored points (active or not)."""
        ...

    @property
    def nbytes(self) -> int:
        """Bytes the backend holds in arrays — the operator's view of the
        space bound's constant (``/stats`` sums it over built shards).
        Reads sizes only: no lock, no build, no copy."""
        ...

    def report_first(self, box: QueryBox):
        """The key of one arbitrary active point inside the box, or None."""
        ...

    def count(self, box: QueryBox) -> int:
        """Number of active points inside the box."""
        ...

    def report_many(self, boxes: Sequence[QueryBox]) -> list:
        """Per-box keys of the active points inside each box of a batch,
        one per point (the kd-tree gives each box an int array, the range
        tree a list).

        The one reporting kernel — the service cold path's and, as a
        batch of one, an untimed library query's — free to share work
        across boxes: a single multi-box tree walk on the kd-tree.  The
        equivalence suite checks it against a brute-force scan.
        """
        ...

    def report_groups_many(self, boxes: Sequence[QueryBox]) -> list[np.ndarray]:
        """Per-box keys with >= 1 active point in the box, as integer
        arrays, strictly ascending (one ``np.unique`` each, an empty box
        included) — the bulk form of the ReportFirst/deactivate loop, in
        the form an answer's bitmap is packed from without a set or a
        sort."""
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
ENGINES = ("kd", "rangetree")

#: Backends whose ``insert`` / ``remove_group`` work (live mutation, delta
#: shards) — the ones served, and the ones with a persisted form
#: (``tests/index/test_backend_contract.py`` requires it of exactly these):
#: ``to_arrays()``, the flat arrays that reconstruct the backend, removed
#: entries excluded, and a ``from_arrays`` classmethod that adopts them
#: (they may be read-only maps of a snapshot file; only activity state is
#: copied) and answers every query identically.
DYNAMIC_ENGINES = ("kd",)


def backend_class(engine: str) -> type:
    """The class registered under a backend name; an unknown name is a
    :class:`~repro.errors.ConstructionError` (callers validate a name
    early, at construction rather than at the first query, by calling
    this)."""
    # Local imports: the implementations import QueryBox from this package,
    # and the registry must stay importable from any of them.
    if engine == "kd":
        from repro.index.kd_tree import DynamicKDTree

        return DynamicKDTree
    if engine == "rangetree":
        from repro.index.range_tree import RangeTree

        return RangeTree
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
    ...     box = QueryBox.closed([-1, 0], [3, 4])
    ...     assert eng.report_groups_many([box])[0].tolist() == [7, 9]
    """
    return backend_class(engine)(points, ids=ids)


#: The Ptile builders cut their mapped rows into pieces of at most this
#: many elements (rows x columns; at least one row), which
#: :func:`build_engine` hands the kd-tree as its blocks, so no shard's
#: enumeration exists at once.  In-process ``QueryService`` + ``warm()``
#: (seed 2027, 4 shards, 2-vCPU host; median of 5 builds, ``tracemalloc``
#: peak of a sixth) at 2^12 / 2^14 / 2^16 / 2^18 / 2^20 / one block, with
#: pieces born as level codes: 2-D ``cold_2d`` 0.43 / 0.18 / 0.12 / 0.11
#: / 0.11 / 0.10 s and 11.0 / 10.5 / 10.4 / 11.0 / 23.5 / 25.0 MB against
#: a 6.0 MB index; 1-D ``warm_point`` 0.13 / 0.08 / 0.07 / 0.07 / 0.07 /
#: 0.07 s and 6.9 / 7.0 / 7.5 / 13.9 / 13.9 / 13.9 MB against 3.5.  A
#: block costs an enumeration call (a grid sort of its stack slice) and a
#: level union per column; a large one holds a shard's enumeration at
#: once.  2^16 is the largest value before ``warm_point``'s peak doubles,
#: and the lowest peak on ``cold_2d``.
BLOCK_ELEMENTS = 1 << 16


def build_engine(mapped: Iterable[tuple], engine: str) -> RangeSearchBackend:
    """:func:`build_backend` over a stream of ``(codes, tables, ids)``
    pieces, consumed lazily: a piece's column ``j`` is
    ``tables[j][codes[j]]`` (``k`` integer columns, ``k`` sorted float64
    level tables that may hold unused levels), ``ids`` every row's dataset
    key.  The kd-tree plants on the codes
    (:meth:`~repro.index.kd_tree.DynamicKDTree.from_blocks`), so the mapped
    points never exist as floats; the range tree is small scale only: it
    gets the decoded matrix.

    >>> import numpy as np
    >>> levels = [np.array([0.0, 1.0])]
    >>> mapped = [([np.array([0])], levels, np.array([4])),
    ...           ([np.array([1])], levels, np.array([9]))]
    >>> box = QueryBox.closed([0.5], [2])
    >>> [build_engine(iter(mapped), e).report_groups_many([box])[0].tolist()
    ...  for e in ENGINES]
    [[9], [9]]
    """
    if engine == "kd":
        return backend_class(engine).from_blocks(mapped)
    return build_backend(*_decode(mapped), engine)


def _decode(mapped: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """A stream of :func:`build_engine` pieces as one ``(points, ids)``
    pair of float ``(n, k)`` points and keys."""
    points, ids = [], []
    for codes, tables, keys in mapped:
        points.append(np.column_stack([t[c] for c, t in zip(codes, tables)]))
        ids.append(keys)
    return np.concatenate(points), np.concatenate(ids)


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
