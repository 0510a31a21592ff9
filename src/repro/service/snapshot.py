"""Versioned single-file service snapshots: mmap cold starts.

A :class:`~repro.service.service.QueryService` is persisted into one
container file and restored over ``np.memmap``-backed buffers: its built
state is already flat arrays, so a cold start skips the coreset draws, the
rectangle enumeration and the kd-tree build.  A bare engine is persisted as
``QueryService(n_shards=1)``, which answers identically.

Container format (version 7)
----------------------------
::

    bytes  0-7   magic ``b"REPROSNP"``
    bytes  8-11  container version, uint32 LE
    bytes 12-15  reserved (zero)
    bytes 16-23  JSON header length ``H``, uint64 LE
    bytes 24-31  data-section start offset, uint64 LE (64-byte aligned)
    bytes 32-..  JSON header (utf-8, ``H`` bytes)
    data section: raw little-endian array buffers, each 64-byte aligned

The JSON header carries ``kind`` (always ``"query_service"``),
``generation`` (the counter the supervisor bumps on ingest), ``state``
(nested scalars and segment references) and ``arrays`` (each reference's
``{offset, dtype, shape}`` in the data section).  It holds per-file and
per-unit facts only; whatever is one item per dataset or per cache entry
is a segment, integers in the smallest unsigned dtype that holds them:

- **Dataset points**: one ``(total, d)`` float64 segment and ``n + 1``
  offsets, which the repository and every exact synopsis slice; the names
  are one utf-8 JSON segment.
- **Synopses**: seed and index columns over their bases; a base that is
  not exact over its dataset's rows keeps a per-item record
  (:func:`repro.synopsis.serialize.to_state`).
- **Shard units**: each unit's ids and, once built, its Ptile deltas, its
  coresets as one ``(N, s, d)`` segment and its kd backend's own
  :meth:`~repro.index.kd_tree.DynamicKDTree.to_arrays` less the active
  mask (``save`` refuses a hidden point; a load starts every point
  active).  The tombstones are one column.
- **Leaf cache**: a key-shape table, and columns of key scalars, shape ids,
  watermarks and bitmap words, each bitmap cut to its watermark's bits
  (:func:`_cache_state`).

The serving contract (``eps``, ``eps_effective``, ``phi_eff``, the coreset
size, the engine, the bounding box) and the inputs a rebuild re-resolves
it from are stated once, in the executor record (:data:`_EXECUTOR`):
``save`` refuses a unit whose index differs from it, and a load plants it
into every unit.  No generator state is stored: no service path draws
from a unit's stream.  No key the writer writes is read as a default: a
file that leaves one out is refused (``null`` is read only where the
writer writes one).

``load(path, mmap=True)`` maps the data section read-only, so its pages
are shared across the workers of :mod:`repro.service.supervisor`; mutable
state is private per load.  ``mmap=False`` reads private copies.  A loaded
service answers every query exactly as the saved one did.  Pref
structures are not persisted (they are lazy and deterministic), and a
Ptile index whose key space has holes is refused.

Anything wrong with a file — bad magic, another version (nothing is
migrated: rebuild it with ``repro snapshot build``), a foreign kind or
engine, a truncated segment, a missing or malformed key or column — is a
:class:`~repro.errors.SnapshotError` and nothing else, from whichever of
:func:`load`, :func:`generation_of` and :func:`inspect` meets it: the
supervisor's respawn loop and its workers' pollers catch exactly that.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from typing import Any, Callable, Iterator, Optional, Union

import numpy as np

from repro.core.bitset import DatasetBitmap
from repro.core.engine import DatasetSearchEngine
from repro.core.framework import Dataset, Repository
from repro.core.ptile_range import PtileRangeIndex
from repro.errors import ReproError, SnapshotError
from repro.geometry.rectangle import Rectangle
from repro.index.backend import backend_class, check_dynamic_engine, id_column
from repro.service import faults
from repro.service.cache import CacheEntry, LeafResultCache
from repro.service.observability import MetricsRegistry, ServiceObservability
from repro.service.service import QueryService
from repro.service.sharding import ShardedBatchExecutor, _Unit
from repro.synopsis.serialize import from_state as synopses_from_state
from repro.synopsis.serialize import to_state as synopses_to_state
from repro.wire import SNAPSHOT_HEADER, SNAPSHOT_SEGMENT, decode
from repro.wire import Array, Bool, Int, Nullable, Number, Record, String

MAGIC = b"REPROSNP"
VERSION = 7

#: Segment alignment, in bytes: one cache line, and a divisor of the page
#: size, so mapped array starts never straddle element boundaries.
ALIGN = 64

#: The one container kind: the state of a :class:`QueryService`.
KIND = "query_service"

#: What walking a malformed header tree raises before :func:`_decoding`
#: translates it (``ReproError``: an unknown synopsis kind or engine name;
#: ``RecursionError``: a tree nested past the interpreter's stack).
_MALFORMED = (
    ReproError, LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
    RecursionError,
)

#: Anything ``open()`` accepts as a file path.
PathLike = Union[str, "os.PathLike[str]"]


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class _SnapshotWriter:
    """Collects array segments + state."""

    def __init__(self) -> None:
        self._arrays: list[tuple[str, list[np.ndarray], tuple]] = []

    def add_array(self, hint: str, arr: Union[np.ndarray, list]) -> str:
        """Register one array segment; returns its reference string.  A
        list of arrays (at least one, all of one dtype and row shape) is
        one segment of their rows end to end, written a chunk at a time:
        no concatenated copy is made."""
        chunks = [np.ascontiguousarray(c) for c in (arr if isinstance(arr, list) else [arr])]
        first = chunks[0]
        if first.dtype == object:
            raise SnapshotError(
                f"segment {hint!r} has dtype=object; snapshot segments "
                "must be flat numeric/bool buffers"
            )
        if any(c.dtype != first.dtype or c.shape[1:] != first.shape[1:] for c in chunks):
            raise SnapshotError(f"segment {hint!r}: its chunks differ in dtype or row shape")
        shape = (sum(map(len, chunks)), *first.shape[1:]) if isinstance(arr, list) else first.shape
        ref = f"{hint}#{len(self._arrays)}"
        self._arrays.append((ref, chunks, shape))
        return ref

    def write(self, path: PathLike, state: dict, generation: int) -> dict:
        """Serialize header + segments to ``path`` (atomic replace)."""
        arrays_meta: dict[str, dict] = {}
        rel = 0
        for ref, chunks, shape in self._arrays:
            rel = _align(rel)
            arrays_meta[ref] = {
                "offset": rel,
                "dtype": chunks[0].dtype.str,
                "shape": list(shape),
            }
            rel += sum(c.nbytes for c in chunks)
        header = {"format": VERSION, "kind": KIND, "generation": int(generation),
                  "state": state, "arrays": arrays_meta}
        raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data_start = _align(32 + len(raw))
        path = os.fspath(path)
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, 0))
            f.write(struct.pack("<QQ", len(raw), data_start))
            f.write(raw)
            f.write(b"\x00" * (data_start - 32 - len(raw)))
            pos = 0
            for _ref, chunks, _shape in self._arrays:
                aligned = _align(pos)
                if aligned > pos:
                    f.write(b"\x00" * (aligned - pos))
                pos = aligned
                for chunk in chunks:
                    f.write(chunk.data)
                    pos += chunk.nbytes
        os.replace(tmp, path)
        return {
            "path": path,
            "kind": KIND,
            "generation": int(generation),
            "n_arrays": len(self._arrays),
            "data_bytes": pos,
            "file_bytes": data_start + pos,
        }


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class _ArrayTable:
    """Lazy ``ref -> ndarray`` resolver over one container's data section.

    ``mmap=True`` maps the whole data section **once** and hands out
    read-only ``np.frombuffer`` views into the single map — one ``mmap``
    syscall and one VMA per load instead of one per segment, which is
    what keeps ``load()`` latency flat in the dataset count.  Pages are
    shared across processes exactly as with per-segment ``np.memmap``.
    ``mmap=False`` reads private writable arrays.  Resolved arrays are
    cached so two references to one segment share one view.
    """

    def __init__(self, path: str, meta: dict, data_start: int, mmap: bool) -> None:
        self._path = path
        self._meta = meta
        self._data_start = data_start
        self._mmap = mmap
        self._cache: dict[str, np.ndarray] = {}
        self._map: Optional[np.ndarray] = None

    def __getitem__(self, ref: str) -> np.ndarray:
        got = self._cache.get(ref)
        if got is not None:
            return got
        m = self._meta.get(ref)
        if m is None:
            raise SnapshotError(f"state references unknown segment {ref!r}")
        dtype = np.dtype(m["dtype"])
        shape = tuple(int(s) for s in m["shape"])
        count = math.prod(shape) if shape else 1
        offset = self._data_start + int(m["offset"])
        if count == 0:
            arr: np.ndarray = np.empty(shape, dtype=dtype)
        elif self._mmap:
            if self._map is None:
                self._map = np.memmap(self._path, dtype=np.uint8, mode="r")
            arr = np.frombuffer(
                self._map, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
        else:
            with open(self._path, "rb") as f:
                f.seek(offset)
                flat = np.fromfile(f, dtype=dtype, count=count)
            if flat.size != count:
                raise SnapshotError(f"segment {ref!r} is truncated")
            arr = flat.reshape(shape)
        self._cache[ref] = arr
        return arr

    def ints(self, ref: str, what: str, n: Optional[int], hi: int) -> np.ndarray:
        """Segment ``ref`` as int64, refused unless it is a 1-D integer
        column of ``n`` entries (any number when ``n`` is None), each in
        ``[0, hi]``."""
        col = self[ref]
        if col.dtype.kind not in "iu" or col.ndim != 1 or n not in (None, col.size):
            raise SnapshotError(f"{what} is not a 1-D integer column of {n} entries")
        if col.size and (col.min() < 0 or col.max() > hi):
            raise SnapshotError(f"{what} holds a value outside [0, {hi}]")
        return col.astype(np.int64)


def _open_container(
    path: PathLike, mmap: bool
) -> tuple[dict, _ArrayTable, int]:
    """The container's header, its array table and its header length."""
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            pre = f.read(32)
            if len(pre) < 32:
                raise SnapshotError(f"{path}: too short to be a snapshot")
            if pre[:8] != MAGIC:
                raise SnapshotError(f"{path}: bad magic (not a repro snapshot)")
            version, _reserved = struct.unpack_from("<II", pre, 8)
            if version != VERSION:
                raise SnapshotError(
                    f"{path}: unsupported snapshot version {version} (this build "
                    f"reads version {VERSION} only; rebuild the file with "
                    "`repro snapshot build`)"
                )
            hlen, data_start = struct.unpack_from("<QQ", pre, 16)
            # Bounded by the file first: a length past it is no allocation.
            raw = f.read(min(hlen, size))
        if len(raw) < hlen:
            raise SnapshotError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise SnapshotError(f"{path}: corrupt header ({exc})") from exc
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot ({exc})") from exc
    with _decoding(path):
        if header.get("kind") != KIND:
            raise SnapshotError(
                f"{path}: holds kind {header.get('kind')!r}; this build reads "
                f"{KIND!r} containers only"
            )
        header.update(decode(SNAPSHOT_HEADER, header, "header"))
        for ref, m in header["arrays"].items():
            m.update(decode(SNAPSHOT_SEGMENT, m, f"arrays[{ref!r}]"))
            nbytes = math.prod(m["shape"]) * np.dtype(m["dtype"]).itemsize
            if data_start + m["offset"] + nbytes > size:
                raise SnapshotError(f"{path}: segment {ref!r} is truncated")
    return header, _ArrayTable(path, header["arrays"], int(data_start), mmap), hlen


@contextlib.contextmanager
def _decoding(path: PathLike) -> Iterator[None]:
    """The one decode funnel: malformed state leaves as ``SnapshotError``."""
    try:
        yield
    except SnapshotError:
        raise
    except _MALFORMED as exc:
        raise SnapshotError(
            f"{os.fspath(path)}: malformed state ({type(exc).__name__}: {exc})"
        ) from exc


# ----------------------------------------------------------------------
# Ptile index
# ----------------------------------------------------------------------
#: Segment hint (the kind ``inspect`` groups bytes by) of each backend array.
_BACKEND_HINTS = {
    "codes": "mapped_codes",
    "columns": "mapped_codes",
    "levels": "mapped_levels",
    "level_start": "mapped_levels",
    "group": "mapped_ids",
    "node_span": "node_table",
    "node_box": "node_table",
}


def _ptile_state(
    index: PtileRangeIndex, ex: ShardedBatchExecutor, add_array: Callable
) -> dict:
    # The contract is the executor's record, stated once: a load plants it
    # into every unit, so an index that differs is refused.
    if (
        index.eps, index.eps_effective, index._phi_eff, index.sample_size,
        index.engine_kind, index.dim, index.bounding_box,
    ) != (
        ex.eps, ex.eps_effective, ex.phi_eff, ex.sample_size,
        ex.engine_kind, ex.dim, ex.bounding_box,
    ):
        raise SnapshotError(
            "a Ptile index's contract differs from the executor's; a snapshot "
            "stores the executor's once"
        )
    keys = index.keys
    # The keys are the unit's datasets 0..n-1, so they are not written: a
    # load derives them from the unit's ids.
    if keys != list(range(len(keys))):
        raise SnapshotError(
            "ptile key space has holes (delete_synopsis?); snapshots require "
            "contiguous keys"
        )
    backend = index._tree.to_arrays()
    # No service path hides points (the ReportFirst loop never runs
    # there): every live point is active, so the mask is not written.
    if not backend.pop("active").all():
        raise SnapshotError(
            "a Ptile index has hidden points; a snapshot stores no active mask"
        )
    # Every coreset is (sample_size, dim): one (N, s, d) segment, not N of
    # them at 64 bytes of padding and ~180 of header each.
    try:
        coresets = np.stack([index._coresets[k] for k in keys])
    except ValueError as exc:
        raise SnapshotError(f"coresets are not uniformly shaped ({exc})") from exc
    deltas = np.array([index._deltas[k] for k in keys], dtype=np.float64)
    return {
        "deltas": add_array("ptile_deltas", deltas),
        "coresets": add_array("coreset", coresets),
        # ``codes`` / ``points`` are (k, n) C-contiguous segments:
        # add_array's ascontiguousarray would silently undo an F-order
        # (n, k) matrix.
        "backend": {
            name: add_array(_BACKEND_HINTS[name], arr) for name, arr in backend.items()
        },
    }


def _ptile_from_state(
    state: dict, arrays: _ArrayTable, engine: DatasetSearchEngine,
    ex: ShardedBatchExecutor,
) -> PtileRangeIndex:
    """The unit engine's Ptile index under the executor's contract."""
    if ex.bounding_box is None:
        raise SnapshotError("a built Ptile index, and no executor bounding box")
    n = len(engine.synopses)
    deltas = arrays[state["deltas"]]
    # Each delta_i is a synopsis error in [0, 1) (resolve_deltas).
    if deltas.dtype != np.float64 or deltas.shape != (n,) or not (
        (deltas >= 0.0) & (deltas < 1.0)
    ).all():
        raise SnapshotError(f"ptile deltas are not {n} float64 values in [0, 1)")
    index = PtileRangeIndex.__new__(PtileRangeIndex)
    index.dim, index.eps, index.engine_kind = ex.dim, ex.eps, ex.engine_kind
    index._phi_eff, index._sample_size = ex.phi_eff, ex.sample_size
    index.eps_effective, index.bounding_box = ex.eps_effective, ex.bounding_box
    index._rng = engine._rng  # shared, as engine.ptile_index shares it
    index._next_key = n
    index._synopses = dict(enumerate(engine.synopses))
    index._deltas = dict(enumerate(deltas.tolist()))
    coresets = np.asarray(arrays[state["coresets"]])
    if coresets.ndim != 3 or coresets.shape[::2] != (n, ex.dim):
        raise SnapshotError("ptile coreset segment does not match the key list")
    index._coresets = dict(enumerate(coresets))  # views of the one segment
    # Zero-copy: codes, level tables, key column and node table
    # stay the file-backed buffers.  from_arrays validates what it adopts;
    # the engine is the executor's, checked once when its record was read.
    # Every saved point is active.
    backend = {name: arrays[ref] for name, ref in state["backend"].items()}
    backend["active"] = np.ones(len(backend["group"]), dtype=bool)
    index._tree = backend_class(ex.engine_kind).from_arrays(backend)
    return index


# ----------------------------------------------------------------------
# Dataset points and the repository
# ----------------------------------------------------------------------
def _points_from_state(
    state: Optional[dict], arrays: _ArrayTable
) -> Optional[list[np.ndarray]]:
    """Each dataset's rows: views of the one points segment, refused
    unless every value is finite (as :class:`Dataset` refuses any other;
    one pass over the segment, before anything serves from it)."""
    if state is None:
        return None
    rows = arrays[state["rows"]]
    if rows.dtype != np.float64 or rows.ndim != 2 or not rows.shape[1]:
        raise SnapshotError("dataset points are not one (total, d) float64 segment")
    if not np.isfinite(rows).all():
        raise SnapshotError("dataset points are not all finite")
    offsets = arrays.ints(state["offsets"], "dataset offsets", None, len(rows))
    if offsets.size < 2 or offsets[0] != 0 or offsets[-1] != len(rows):
        raise SnapshotError("dataset offsets do not span the points segment")
    if not (offsets[1:] > offsets[:-1]).all():
        raise SnapshotError("dataset offsets are not strictly ascending")
    bounds = offsets.tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def _repository_state(
    repo: Optional[Repository], add_array: Callable
) -> Optional[dict]:
    if repo is None:
        return None
    # The datasets' names as one utf-8 JSON segment.
    names = json.dumps([ds.name for ds in repo.datasets]).encode("utf-8")
    return {
        "schema": list(repo.schema),
        "names": add_array("dataset_names", np.frombuffer(names, dtype=np.uint8)),
    }


def _repository_from_state(
    state: Optional[dict], points: Optional[list], arrays: _ArrayTable
) -> Optional[Repository]:
    if state is None:
        return None
    raw = arrays[state["names"]]
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise SnapshotError("dataset names are not one utf-8 segment")
    names = json.loads(raw.tobytes().decode("utf-8"))
    if points is None:
        raise SnapshotError("a repository without dataset points")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise SnapshotError("dataset names are not a list of strings")
    schema = tuple(state["schema"])
    datasets = []
    for name, rows in zip(names, points, strict=True):
        # Bypass Dataset.__init__: _points_from_state has checked the rows
        # (float64, 2-D, finite), and the constructor would copy and scan
        # them again, a dataset at a time.
        ds = Dataset.__new__(Dataset)
        ds.points = rows
        ds.name = name
        ds.schema = schema
        datasets.append(ds)
    repo = Repository.__new__(Repository)
    repo.datasets = datasets
    return repo


# ----------------------------------------------------------------------
# Shard units (a base shard or the delta shard: one ``_Unit``)
# ----------------------------------------------------------------------
def _unit_state(unit: _Unit, ex: ShardedBatchExecutor, add_array: Callable) -> dict:
    """A unit's ids and what its engine holds, read under the unit's
    lock: no first-use build, delta insert or side-buffer rebuild
    (``to_arrays`` runs one) races the export."""
    with unit.lock:
        index = unit.engine._ptile
        return {
            "ids": add_array("unit_ids", id_column(unit.ids, len(unit.ids))),
            "ptile": None if index is None else _ptile_state(index, ex, add_array),
        }


def _unit_ids(
    units: list, arrays: _ArrayTable, n: int, removed: frozenset
) -> list[list[int]]:
    """Each unit's ids, refused unless the units restore whole — else a
    file loads and then answers wrongly or fails its first query: each
    unit's ids ascend strictly, and the units are disjoint and, with the
    tombstones, hold every dataset below ``n``."""
    ids = [arrays.ints(unit["ids"], "unit ids", None, n - 1).tolist() for unit in units]
    if not all(u and all(a < b for a, b in zip(u, u[1:])) for u in ids):
        raise SnapshotError("a unit's ids are empty or not strictly ascending")
    held = [i for u in ids for i in u]
    if len(set(held)) < len(held):
        raise SnapshotError("a dataset is in two units")
    if set(held) | removed != set(range(n)):
        raise SnapshotError(f"units and tombstones are not datasets 0..{n - 1}")
    return ids


# ----------------------------------------------------------------------
# ShardedBatchExecutor
# ----------------------------------------------------------------------
def _executor_state(ex: ShardedBatchExecutor, add_array: Callable) -> dict:
    """The executor's state, read under the service's mutation lock (no
    dataset arrives or leaves), each unit under its own.  The stored
    dataset rows are the repository's, which the exact synopses slice."""
    # The units first: their segments lead the data section.
    engines = [_unit_state(unit, ex, add_array) for unit in ex.units]
    delta = None if ex.delta is None else _unit_state(ex.delta, ex, add_array)
    repo, box = ex.repository, ex.bounding_box
    rows = None if repo is None else [ds.points for ds in repo.datasets]
    return {
        # The record _EXECUTOR reads: the contract, and the rebuild inputs.
        "eps": float(ex.eps),
        "seed": int(ex.seed),
        "delta": ex._delta_param,
        "engine": ex.engine_kind,
        "capacity": ex.capacity,
        "phi": ex._phi_param,
        "requested_sample_size": ex._sample_size_param,
        "box_pinned": ex._box_pinned,
        "phi_eff": float(ex.phi_eff),
        "sample_size": int(ex.sample_size),
        "eps_effective": float(ex.eps_effective),
        "bounding_box": None if box is None else {
            "lo": box.lo.tolist(), "hi": box.hi.tolist(),
        },
        "removed": add_array("removed", id_column(sorted(ex.removed), len(ex.removed))),
        # Every dataset's rows end to end, and where each starts.
        "points": None if rows is None else {
            "rows": add_array("dataset_points", rows),
            "offsets": add_array("dataset_offsets", id_column(
                np.cumsum([0, *map(len, rows)]), len(rows) + 1
            )),
        },
        "repository": _repository_state(repo, add_array),
        "synopses": synopses_to_state(ex.synopses, rows, add_array),
        "engines": engines,
        "delta_engine": delta,
    }


#: The executor record: the resolved contract and the requested inputs a
#: rebuild re-resolves it from (``ShardedBatchExecutor._rebuild_kwargs``;
#: a pinned box is the executor's, so a flag), checked when the file
#: loads, not at the first ingest or rebuild.  Every field is required: a
#: left-out input would otherwise rebuild to another contract.  A key not
#: named here (the retired ``deterministic``) is ignored.
_EXECUTOR = Record({
    "eps": Number("(0, 1)"), "seed": Int(lo=0), "engine": String(),
    "delta": Nullable(Number("[0, 1)")), "capacity": Nullable(Int(lo=0)),
    "phi": Nullable(Number("(0, 1)")),
    "requested_sample_size": Nullable(Int(lo=2)),
    "box_pinned": Bool(), "phi_eff": Number("(0, 1)"), "sample_size": Int(lo=2),
    "eps_effective": Number("(0, inf)"),
    "bounding_box": Nullable(Record({"lo": Array(("d",)), "hi": Array(("d",))})),
}, error=ValueError)


def _executor_from_state(
    state: dict, arrays: _ArrayTable, registry: MetricsRegistry
) -> ShardedBatchExecutor:
    ex = ShardedBatchExecutor.__new__(ShardedBatchExecutor)
    ex.registry = registry
    s = decode(_EXECUTOR, state, "executor")
    ex.eps, ex.seed, ex.capacity = s["eps"], s["seed"], s["capacity"]
    ex.engine_kind = check_dynamic_engine(s["engine"])
    ex._delta_param, ex._phi_param = s["delta"], s["phi"]
    ex._sample_size_param, ex._box_pinned = s["requested_sample_size"], s["box_pinned"]
    ex.phi_eff, ex.sample_size = s["phi_eff"], s["sample_size"]
    ex.eps_effective, box = s["eps_effective"], s["bounding_box"]
    ex.bounding_box = None if box is None else Rectangle(box["lo"], box["hi"])
    if ex._box_pinned and box is None:
        raise SnapshotError("executor.box_pinned names no bounding box")
    points = _points_from_state(state["points"], arrays)
    ex.synopses = synopses_from_state(state["synopses"], points, arrays)
    n = len(ex.synopses)
    if not n:
        raise SnapshotError("executor state has no synopses")
    ex.dim = ex.synopses[0].dim
    if ex.bounding_box is not None and ex.bounding_box.dim != ex.dim:
        raise SnapshotError(f"the executor's bounding box is not {ex.dim}-D")
    ex.repository = _repository_from_state(state["repository"], points, arrays)
    if ex.repository is not None and len(ex.repository.datasets) != n:
        raise SnapshotError("the repository does not hold one dataset per synopsis")
    ex.removed = frozenset(arrays.ints(state["removed"], "removed", None, n - 1).tolist())
    delta = state["delta_engine"]
    subs = state["engines"] + ([] if delta is None else [delta])
    # Each unit is made as the constructor makes it (nothing is built until
    # first use; its rng stream is the saved unit's, never drawn from), then
    # planted with what the file holds.
    units: list[_Unit] = []
    ids = _unit_ids(subs, arrays, n, ex.removed)
    for stream, (unit_ids, sub) in enumerate(zip(ids, subs)):
        unit = ex._new_unit(unit_ids, stream)
        if sub["ptile"] is not None:
            engine = unit.engine
            engine._ptile = _ptile_from_state(sub["ptile"], arrays, engine, ex)
        units.append(unit)
    base = len(state["engines"])
    ex.units, ex.delta = units[:base], (None if delta is None else units[base])
    return ex


# ----------------------------------------------------------------------
# Leaf-result cache
# ----------------------------------------------------------------------
def _key_shape(obj: Any, scalars: list) -> Any:
    """The shape of a canonical leaf key (nested tuples of JSON scalars):
    a tuple is a list, a bool, float or float-exact int is its slot tag
    (``"b"`` / ``"f"`` / ``"i"``) and its value goes to ``scalars``, and a
    string, None or larger int is a literal ``{"v": x}``."""
    if isinstance(obj, tuple):
        return [_key_shape(x, scalars) for x in obj]
    if isinstance(obj, bool):
        tag = "b"
    elif isinstance(obj, int):
        tag = "i" if abs(obj) <= 2**53 else None
    elif isinstance(obj, float):
        tag = "f"
    elif obj is None or isinstance(obj, str):
        tag = None
    else:
        raise SnapshotError(
            f"cache key element of type {type(obj).__name__} is not "
            "snapshot-serializable"
        )
    if tag is None:
        return {"v": obj}
    scalars.append(obj)
    return tag


def _slot_count(shape: Any) -> int:
    """How many scalars a key of this shape reads; refused unless every
    node is a list, a slot tag or a literal string, None or int."""
    if isinstance(shape, list):
        return sum(_slot_count(x) for x in shape)
    if shape in ("b", "f", "i"):
        return 1
    if (
        isinstance(shape, dict) and list(shape) == ["v"]
        and (shape["v"] is None or type(shape["v"]) in (str, int))
    ):
        return 0
    raise SnapshotError(f"cache key shape node {shape!r} is not a list, slot or literal")


def _keys_of_shape(shape: Any, rows: np.ndarray) -> list:
    """The keys of the entries of one shape, whose slots are the columns
    of ``rows`` (one row an entry), built a node at a time for all of
    them: a list node zips its children's columns."""
    slots = iter(rows.T)

    def column(node: Any) -> list:
        if isinstance(node, list):
            return list(zip(*map(column, node))) if node else [()] * len(rows)
        if isinstance(node, dict):
            return [node["v"]] * len(rows)
        values = next(slots)
        if node == "b":
            bad = values[(values != 0.0) & (values != 1.0)]
        elif node == "i":
            bad = values[(values != np.round(values)) | (np.abs(values) > 2**53)]
        else:
            return values.tolist()
        if bad.size:
            raise SnapshotError(f"cache key slot {node!r} holds {float(bad[0])!r}")
        return (values == 1.0).tolist() if node == "b" else values.astype(np.int64).tolist()

    return column(shape)


def _cache_state(cache: LeafResultCache, add_array: Callable) -> dict:
    """The leaf cache's state, its entries in LRU order.  Each bitmap is
    stored as exactly its watermark's bits.  A bitmap may hold more: a batch
    racing an ingest reads the old dataset count as its watermark but is
    answered by a delta that already holds the new datasets
    (``add_synopses`` publishes them first).  The bits past the watermark
    are dropped, which is exact: the entry is stale, and its first hit ORs
    the delta's answer back in.  A bitmap that holds fewer bits than its
    watermark is refused."""
    shapes: dict[str, int] = {}
    shape_ids, scalars, watermarks = [], [], []
    words = [np.zeros(0, dtype=np.uint64)]
    for key, entry in cache.export_entries():
        watermark, bitmap = entry.watermark, entry.indexes
        if not 0 <= watermark <= bitmap.nbits:
            raise SnapshotError("a cache entry's bitmap does not span its watermark")
        shape = json.dumps(_key_shape(key, scalars), separators=(",", ":"))
        shape_ids.append(shapes.setdefault(shape, len(shapes)))
        watermarks.append(watermark)
        span = bitmap.words[: (watermark + 63) // 64]
        tail = watermark % 64
        if tail and span[-1] >> np.uint64(tail):
            span = span.copy()
            span[-1] &= np.uint64((1 << tail) - 1)
        words.append(span)
    return {
        "capacity": int(cache.capacity),
        "generation": int(cache.generation),
        "key_shapes": [json.loads(shape) for shape in shapes],
        "key_scalars": add_array("cache_keys", np.array(scalars, dtype=np.float64)),
        "key_shape_ids": add_array("cache_keys", id_column(shape_ids, len(shape_ids))),
        "watermarks": add_array(
            "cache_watermarks", id_column(watermarks, len(watermarks))
        ),
        "words": add_array("cache_words", words),
    }


def _cache_keys(state: dict, arrays: _ArrayTable) -> tuple[list, np.ndarray]:
    """The keys, in LRU order, and their watermarks."""
    shapes = state["key_shapes"]
    slots = np.array([_slot_count(shape) for shape in shapes], dtype=np.int64)
    ids = arrays.ints(state["key_shape_ids"], "cache shape ids", None, len(shapes) - 1)
    watermarks = arrays.ints(
        state["watermarks"], "cache watermarks", len(ids), 2**31 - 1
    )
    scalars = arrays[state["key_scalars"]]
    widths = slots[ids]
    if scalars.dtype != np.float64 or scalars.shape != (int(widths.sum()),):
        raise SnapshotError(
            "cache key scalars are not one float64 value per slot of the shapes"
        )
    starts = np.cumsum(widths) - widths
    keys: list = [None] * len(ids)
    for s, shape in enumerate(shapes):
        (at,) = np.nonzero(ids == s)
        rows = scalars[starts[at, None] + np.arange(slots[s])]
        for i, key in zip(at.tolist(), _keys_of_shape(shape, rows)):
            keys[i] = key
    return keys, watermarks


def _cache_from_state(
    state: dict, arrays: _ArrayTable, n: int
) -> tuple[int, list[tuple[Any, CacheEntry]], int]:
    """The leaf cache's ``(capacity, entries, generation)``, refused unless
    each bitmap is exactly its watermark's bits for some ``0 <= watermark
    <= n`` with nothing set past them: a shorter bitmap answers too little,
    and a watermark past ``n`` is fresh forever, never upgraded."""
    words = arrays[state["words"]]
    if words.dtype != np.uint64 or words.ndim != 1:
        raise SnapshotError("cache words are not one uint64 segment")
    keys, watermarks = _cache_keys(state, arrays)
    n_words = (watermarks + 63) // 64
    starts = np.cumsum(n_words) - n_words
    if int(n_words.sum()) != words.size:
        raise SnapshotError("cache words are not the watermarks' words end to end")
    if watermarks.size and (watermarks.min() < 0 or watermarks.max() > n):
        raise SnapshotError(f"a cache watermark is outside [0, {n}]")
    tail = watermarks % 64
    last = starts[tail > 0] + n_words[tail > 0] - 1
    if (words[last] >> tail[tail > 0].astype(np.uint64)).any():
        raise SnapshotError("a cache entry sets bits past its watermark")
    # Contiguous slices of the mapped words — zero-copy; bitmaps are
    # immutable by convention so a read-only buffer is fine.
    items = [
        (key, CacheEntry(DatasetBitmap(words[a : a + nw], w), w))
        for key, a, nw, w in zip(
            keys, starts.tolist(), n_words.tolist(), watermarks.tolist()
        )
    ]
    return int(state["capacity"]), items, int(state["generation"])


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def save(service: QueryService, path: PathLike, generation: int = 0) -> dict:
    """Persist a built service into one container file.

    Returns a summary dict (``path``, ``kind``, ``generation``, segment
    count and byte sizes).  The write is atomic (temp file + rename), so
    a reader never maps a half-written snapshot — the property the
    multi-process supervisor's generation handoff relies on.
    """
    writer = _SnapshotWriter()
    with service._mutation_lock:
        state = {
            "tracing": bool(service.observability.tracing),
            "slow_query_threshold_ms": service.observability.slow_log.threshold_ms,
            "cache": _cache_state(service.cache, writer.add_array),
            "executor": _executor_state(service.executor, writer.add_array),
        }
    return writer.write(path, state, generation)


def load(path: PathLike, mmap: bool = True) -> QueryService:
    """Reconstruct the service :func:`save` persisted at ``path``.

    With ``mmap=True`` (default) bulk buffers are read-only
    ``np.memmap`` views — loading is O(metadata), the point data pages in
    on demand and is shared across processes.  ``mmap=False`` reads
    private writable copies.
    """
    return _read(path, mmap)[1](None)


def _read(
    path: PathLike, mmap: bool = True
) -> tuple[int, Callable[[Optional[ServiceObservability]], QueryService]]:
    """One read of the container at ``path``: its generation, and the call
    that restores its service from that same read.  A caller that wants
    only a newer file (the supervisor's start, respawn and followers)
    neither opens a file twice nor decodes one it will not serve.  A process
    restores into its current service's observability, so no count falls;
    ``None`` (a new process, :func:`load`) builds one as the file says."""
    header, arrays, _hlen = _open_container(path, mmap)

    def restore(obs: Optional[ServiceObservability]) -> QueryService:
        if faults.ARMED is not None:
            faults.hit("snapshot_load")
        with _decoding(path):
            state = header["state"]
            if obs is None:
                obs = ServiceObservability(
                    bool(state["tracing"]), state["slow_query_threshold_ms"]
                )
            svc = QueryService.__new__(QueryService)
            svc.executor = _executor_from_state(state["executor"], arrays, obs.registry)
            n = svc.executor.n_datasets
            svc._assemble(obs, *_cache_from_state(state["cache"], arrays, n))
            return svc

    return header["generation"], restore


def generation_of(path: PathLike) -> int:
    """The generation counter stamped into a snapshot header."""
    return _read(path)[0]


def inspect(path: PathLike) -> dict:
    """Human/CLI-facing summary of a container (no arrays are loaded)."""
    path = os.fspath(path)
    header, _arrays, hlen = _open_container(path, mmap=True)
    by_kind: dict[str, int] = {}
    for ref, m in header["arrays"].items():
        nbytes = math.prod(m["shape"]) * np.dtype(m["dtype"]).itemsize
        kind = ref.split("#")[0]
        by_kind[kind] = by_kind.get(kind, 0) + nbytes
    out = {
        "path": path,
        "format": VERSION,
        "kind": header["kind"],
        "generation": header["generation"],
        "n_arrays": len(header["arrays"]),
        "header_bytes": hlen,
        "data_bytes": sum(by_kind.values()),
        "file_bytes": os.path.getsize(path),
        # Where the bytes go: segment kind (the add_array hint) -> bytes,
        # largest first.
        "bytes_by_kind": dict(sorted(by_kind.items(), key=lambda kv: -kv[1])),
    }
    with _decoding(path):
        state = header["state"]
        executor, cache = state["executor"], state["cache"]

        def length(ref: str) -> int:
            """A segment's entry count, read from the segment table."""
            return header["arrays"][ref]["shape"][0]

        delta = executor["delta_engine"]
        counts = {
            "n_shards": len(executor["engines"]),
            "n_datasets": length(executor["synopses"]["index"]),
            "n_removed": length(executor["removed"]),
            "delta_size": 0 if delta is None else length(delta["ids"]),
        }
        out["cache_entries"] = length(cache["watermarks"])
        out["executor"] = {"engine": executor["engine"], **counts}
        n_datasets = counts["n_datasets"]
        sized = [("file", out["file_bytes"]), *out["bytes_by_kind"].items()]
        out["bytes_per_dataset"] = {
            kind: nbytes // n_datasets for kind, nbytes in sized
        }
        # The constant of the paper's space bound, as stored: the whole file
        # and the backend segments alone (codes, level tables, keys,
        # node table), per mapped point — one key each, so the mapped points
        # are the lengths of the units' key segments.
        units = [*executor["engines"], delta]
        n_points = sum(
            length(unit["ptile"]["backend"]["group"])
            for unit in units
            if unit is not None and unit["ptile"] is not None
        )
    index_bytes = sum(by_kind.get(kind, 0) for kind in set(_BACKEND_HINTS.values()))
    out["n_mapped_points"] = n_points
    out["bytes_per_mapped_point"] = (
        {
            "file": round(out["file_bytes"] / n_points, 2),
            "index": round(index_bytes / n_points, 2),
        }
        if n_points
        else None
    )
    return out
