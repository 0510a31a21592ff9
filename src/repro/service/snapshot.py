"""Versioned single-file service snapshots: mmap cold starts.

Every piece of built serving state is already a flat array — the kd
backends' rank-coded mapped points (``R^{4d+2}``, one or two bytes per
coordinate, the two weights of an exact lake stored as one code column)
with their level tables, key columns and node tables,
coreset samples, packed ``DatasetBitmap`` words, raw repository datasets —
so a cold start does not have to *rebuild* any of it: this module persists
a whole :class:`~repro.service.service.QueryService` into one container
file and reconstructs it with ``np.memmap``-backed buffers, skipping the
coreset draws, the maximal-pair rectangle enumeration and the kd-tree
build entirely.  A bare engine is persisted as ``QueryService(n_shards=1)``,
which answers identically over the same seeded coresets.

Container format (version 5)
----------------------------
::

    bytes  0-7   magic ``b"REPROSNP"``
    bytes  8-11  container version, uint32 LE
    bytes 12-15  reserved (zero)
    bytes 16-23  JSON header length ``H``, uint64 LE
    bytes 24-31  data-section start offset, uint64 LE (64-byte aligned)
    bytes 32-..  JSON header (utf-8, ``H`` bytes)
    data section: raw little-endian array buffers, each 64-byte aligned

The JSON header carries ``kind`` (always ``"query_service"``: the
bare-engine and bare-executor containers older builds wrote are refused
by the kind they name), ``generation`` (the serving generation counter the
multi-process supervisor bumps on ingest), ``state`` (nested scalars and
segment references), and ``arrays`` — the segment table mapping each
reference to ``{offset, dtype, shape}`` relative to the data section.
Equal array *objects* are written once (deduplicated by identity), so a
repository dataset shared with its ``ExactSynopsis`` costs one segment.
Each Ptile backend is stored as its own ``to_arrays()`` — the kd-tree's,
the one dynamic engine (:data:`~repro.index.backend.DYNAMIC_ENGINES`); a
header naming any other engine, in a shard's Ptile state or as the
executor's (the static ``rangetree``, or the ``columnar`` store older
builds served), is refused by name.  A kd backend is ``(k_stored, n)``
unsigned rank codes in tree order and the map from each of the ``k``
columns to the code row holding it (``mapped_codes``: a column whose table
and codes repeat an earlier one's is not stored again), the per-column
float64 level tables they index (``mapped_levels``, all ``k``), every
point's dataset key in the smallest unsigned dtype that holds the shard's
largest key (``mapped_ids``: one byte a point up to 256 datasets a shard)
and the node table with its boxes in code space — version 4 stored the
same points as ``(k, n)`` float64 (``mapped_points``), 8 bytes per
coordinate against 1–2.  No active mask is written: no service path runs
the ReportFirst loop that hides points, so every point is active
(``save`` refuses an index with a hidden one), and a load starts every
point active.  A Ptile index's coresets are one ``(N, s, d)`` segment, not
``N``.  Older files are refused, not migrated.  Version-5
files from builds where the kd leaf size, the plan-cache capacity and the
slow-log size were still constructor keywords carry them in ``state``
(the leaf size once per shard unit and once per Ptile index); they are
module constants now, so those keys are neither written nor read and such
a file serves with the constants.  Those from builds where a point's id
was a ``(key, local)`` pair carry a ``local`` segment per backend, which
``from_arrays`` ignores; those from builds before narrow keys carry an
``int32`` key column, which ``from_arrays`` narrows on load, and an
``active`` segment per backend, which is not read; those from builds
before shared code columns hold one code row per column and no
``columns`` segment, which ``from_arrays`` reads as the identity map.

``load(path, mmap=True)`` maps segments as read-only ``np.memmap`` views:
page-cache pages are shared across every process that maps the same file,
which is what makes the pre-forked multi-worker server
(:mod:`repro.service.supervisor`) memory-flat in the worker count.  The
query path never writes these buffers — mutable state (activation masks,
side buffers, caches past their words) is private per load.  With
``mmap=False`` every segment is read into a private writable array.

**Exact-equality round-trip is the contract**: a loaded service answers
every query identically to the service that was saved (pinned by
``tests/service/test_snapshot.py`` on both serving backends).  Pref
structures are *not* persisted — they are lazy per-rank-``k`` and
deterministic to rebuild — and a Ptile index whose key space has holes
(datasets deleted via ``delete_synopsis``) is refused rather than
resynthesized wrong.

All errors reading a snapshot back — bad magic, unsupported version, a
foreign kind, truncated segments, malformed state — raise
:class:`~repro.errors.SnapshotError` and nothing else (the supervisor's
respawn loop and its workers' snapshot pollers catch exactly that).
"Malformed state" is anything wrong with the header tree — a missing key,
a value of the wrong type or range, a list of the wrong length, an index
past what it indexes, an unknown synopsis kind or engine name, shard units
that do not restore whole (see :func:`_unit_ids`) — whichever of
:func:`load`, :func:`generation_of` and :func:`inspect` meets it.
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
from repro.core.framework import Dataset, Repository
from repro.core.ptile_range import PtileRangeIndex
from repro.errors import ReproError, SnapshotError
from repro.geometry.rectangle import Rectangle
from repro.index.backend import check_dynamic_engine, restore_backend
from repro.service import faults
from repro.service.cache import CacheEntry, LeafResultCache
from repro.service.observability import MetricsRegistry, ServiceObservability
from repro.service.service import QueryService
from repro.service.sharding import ShardedBatchExecutor, _Unit
from repro.synopsis.serialize import from_state as synopsis_from_state
from repro.synopsis.serialize import to_state as synopsis_to_state
from repro.wire import SNAPSHOT_HEADER, SNAPSHOT_SEGMENT, decode

MAGIC = b"REPROSNP"
VERSION = 5

#: Segment alignment, in bytes: one cache line, and a divisor of the page
#: size, so mapped array starts never straddle element boundaries.
ALIGN = 64

#: The one container kind: the state of a :class:`QueryService`.
KIND = "query_service"

#: What walking a malformed header tree raises before :func:`_decoding`
#: translates it (``ReproError``: an unknown synopsis kind or engine name).
_MALFORMED = (
    ReproError, LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
)

#: Anything ``open()`` accepts as a file path.
PathLike = Union[str, "os.PathLike[str]"]


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class _SnapshotWriter:
    """Collects array segments (deduplicated by object identity) + state."""

    def __init__(self) -> None:
        self._arrays: list[tuple[str, np.ndarray]] = []
        self._ref_of_id: dict[int, str] = {}

    def add_array(self, hint: str, arr: np.ndarray) -> str:
        """Register one array segment; returns its reference string.

        The same array *object* registered twice gets one segment (the
        repository's raw points are also every exact synopsis' state).
        """
        ref = self._ref_of_id.get(id(arr))
        if ref is not None:
            return ref
        out = np.ascontiguousarray(arr)
        if out.dtype == object:
            raise SnapshotError(
                f"segment {hint!r} has dtype=object; snapshot segments "
                "must be flat numeric/bool buffers"
            )
        ref = f"{hint}#{len(self._arrays)}"
        self._arrays.append((ref, out))
        self._ref_of_id[id(arr)] = ref
        # Keep the contiguous copy's identity mapped too, so it stays
        # alive (id() keys must not be recycled) and re-adds dedup.
        self._ref_of_id[id(out)] = ref
        return ref

    def write(self, path: PathLike, state: dict, generation: int) -> dict:
        """Serialize header + segments to ``path`` (atomic replace)."""
        arrays_meta: dict[str, dict] = {}
        rel = 0
        for ref, arr in self._arrays:
            rel = _align(rel)
            arrays_meta[ref] = {
                "offset": rel,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
            }
            rel += arr.nbytes
        header = {
            "format": VERSION,
            "kind": KIND,
            "generation": int(generation),
            "state": state,
            "arrays": arrays_meta,
        }
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
            for _ref, arr in self._arrays:
                aligned = _align(pos)
                if aligned > pos:
                    f.write(b"\x00" * (aligned - pos))
                pos = aligned
                f.write(arr.data)
                pos += arr.nbytes
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

    def _buffer(self) -> np.ndarray:
        if self._map is None:
            self._map = np.memmap(self._path, dtype=np.uint8, mode="r")
        return self._map

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
            arr = np.frombuffer(
                self._buffer(), dtype=dtype, count=count, offset=offset
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


def _open_container(path: PathLike, mmap: bool) -> tuple[dict, _ArrayTable]:
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
                    f"{path}: unsupported snapshot version {version} "
                    f"(this build reads version {VERSION})"
                )
            hlen, data_start = struct.unpack_from("<QQ", pre, 16)
            raw = f.read(hlen)
        if len(raw) < hlen:
            raise SnapshotError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    return header, _ArrayTable(path, header["arrays"], int(data_start), mmap)


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
# Shared state helpers
# ----------------------------------------------------------------------
def _box_state(box: Optional[Rectangle]) -> Optional[dict]:
    if box is None:
        return None
    return {"lo": [float(x) for x in box.lo], "hi": [float(x) for x in box.hi]}


def _box_from(state: Optional[dict]) -> Optional[Rectangle]:
    if state is None:
        return None
    return Rectangle(state["lo"], state["hi"])


def _restore_rng(state: dict) -> np.random.Generator:
    gen = np.random.Generator(getattr(np.random, state["bit_generator"])())
    gen.bit_generator.state = state
    return gen


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


def _ptile_state(index: PtileRangeIndex, add_array: Callable) -> dict:
    keys = index.keys
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
    return {
        "eps": float(index.eps),
        "eps_effective": float(index.eps_effective),
        "phi_eff": float(index._phi_eff),
        "sample_size": int(index._sample_size),
        "engine": index.engine_kind,
        "dim": int(index.dim),
        "next_key": int(index._next_key),
        "keys": [int(k) for k in keys],
        "deltas": [float(index._deltas[k]) for k in keys],
        "coresets": add_array("coreset", coresets),
        "bounding_box": _box_state(index.bounding_box),
        "rng": index._rng.bit_generator.state,
        # ``codes`` / ``points`` are (k, n) C-contiguous segments:
        # add_array's ascontiguousarray would silently undo an F-order
        # (n, k) matrix.
        "backend": {
            name: add_array(_BACKEND_HINTS[name], arr) for name, arr in backend.items()
        },
    }


def _ptile_from_state(
    state: dict, arrays: _ArrayTable, synopses: list
) -> PtileRangeIndex:
    keys = [int(k) for k in state["keys"]]
    if keys != list(range(len(synopses))):
        raise SnapshotError(
            "ptile key space does not match the synopsis list (holes from "
            "delete_synopsis?); snapshots require contiguous keys"
        )
    index = PtileRangeIndex.__new__(PtileRangeIndex)
    index.dim = int(state["dim"])
    index.eps = float(state["eps"])
    index.engine_kind = state["engine"]
    index._rng = _restore_rng(state["rng"])
    index._next_key = int(state["next_key"])
    index._phi_eff = float(state["phi_eff"])
    index._sample_size = int(state["sample_size"])
    index.eps_effective = float(state["eps_effective"])
    index.bounding_box = _box_from(state["bounding_box"])
    index._synopses = {k: synopses[k] for k in keys}
    index._deltas = {
        k: float(d) for k, d in zip(keys, state["deltas"], strict=True)
    }
    coresets = np.asarray(arrays[state["coresets"]])
    if coresets.ndim != 3 or coresets.shape[0] != len(keys):
        raise SnapshotError("ptile coreset segment does not match the key list")
    index._coresets = dict(zip(keys, coresets))  # views of the one segment
    # Zero-copy: codes, level tables, key column and node table
    # stay the file-backed buffers.  from_arrays validates what it adopts;
    # an engine without a persisted form is refused by name.  Every saved
    # point is active; the mask older files carry is not read.
    backend = {
        name: arrays[ref] for name, ref in state["backend"].items() if name != "active"
    }
    backend["active"] = np.ones(len(backend["group"]), dtype=bool)
    index._tree = restore_backend(backend, index.engine_kind)
    return index


# ----------------------------------------------------------------------
# Repository
# ----------------------------------------------------------------------
def _repository_state(
    repo: Optional[Repository], add_array: Callable
) -> Optional[dict]:
    if repo is None:
        return None
    return {
        "schema": list(repo.schema),
        "names": [ds.name for ds in repo.datasets],
        "points": [add_array("dataset", ds.points) for ds in repo.datasets],
    }


def _repository_from_state(
    state: Optional[dict], arrays: _ArrayTable
) -> Optional[Repository]:
    if state is None:
        return None
    schema = tuple(state["schema"])
    datasets = []
    for name, ref in zip(state["names"], state["points"], strict=True):
        # Bypass Dataset.__init__: the finiteness scan over every stored
        # point is exactly the O(total points) pass a mapped cold start
        # must not pay (and would fault every page in).
        ds = Dataset.__new__(Dataset)
        ds.points = np.asarray(arrays[ref])
        ds.name = name
        ds.schema = schema
        datasets.append(ds)
    repo = Repository.__new__(Repository)
    repo.datasets = datasets
    return repo


# ----------------------------------------------------------------------
# Shard units (a base shard or the delta shard: one ``_Unit``)
# ----------------------------------------------------------------------
def _unit_state(unit: _Unit, add_array: Callable) -> dict:
    """What a unit's engine holds that its executor does not (the ids are
    ``shards`` / ``delta_ids``), read under the unit's lock: no first-use
    build, delta insert or side-buffer rebuild (``to_arrays`` runs one)
    races the export."""
    with unit.lock:
        engine = unit.engine
        return {
            "rng": engine._rng.bit_generator.state,
            "ptile": (
                None
                if engine._ptile is None
                else _ptile_state(engine._ptile, add_array)
            ),
        }


def _unit_ids(
    state: dict, n: int, removed: frozenset
) -> tuple[list[list[int]], list[int]]:
    """The base shards' and the delta's ids, refused unless the units
    restore whole — else a file loads and then answers wrongly or fails
    its first query: the delta has ids exactly when it has an engine, each
    unit's ids ascend strictly, and the units are disjoint and, with the
    tombstones, hold every dataset below ``n``."""
    shards = [[int(i) for i in ids] for ids in state["shards"]]
    delta_ids = [int(i) for i in state["delta_ids"]]
    if bool(delta_ids) != (state["delta_engine"] is not None):
        raise SnapshotError("executor state has delta ids or a delta engine alone")
    units = [*shards, delta_ids] if delta_ids else shards
    if not all(ids and all(a < b for a, b in zip(ids, ids[1:])) for ids in units):
        raise SnapshotError("a unit's ids are empty or not strictly ascending")
    held = [i for ids in units for i in ids]
    if len(set(held)) < len(held):
        raise SnapshotError("a dataset is in two units")
    if set(held) | removed != set(range(n)):
        raise SnapshotError(f"units and tombstones are not datasets 0..{n - 1}")
    return shards, delta_ids


def _unit_from_state(
    ex: ShardedBatchExecutor, ids: list[int], stream: int, sub: dict,
    arrays: _ArrayTable,
) -> _Unit:
    """The unit over ``ex.synopses[ids]``: made by the executor being
    restored, exactly as its constructor makes one (which is cheap —
    nothing is built until first use), then planted with what the file
    holds."""
    unit = ex._new_unit(ids, stream)
    engine = unit.engine
    engine._rng = _restore_rng(sub["rng"])
    if sub["ptile"] is not None:
        engine._ptile = _ptile_from_state(sub["ptile"], arrays, engine.synopses)
    return unit


# ----------------------------------------------------------------------
# ShardedBatchExecutor
# ----------------------------------------------------------------------
def _executor_state(ex: ShardedBatchExecutor, add_array: Callable) -> dict:
    """The executor's state, read under the service's mutation lock (no
    dataset arrives or leaves), each unit under its own."""
    delta = ex.delta
    engines = [_unit_state(unit, add_array) for unit in ex.units]
    delta_engine = None if delta is None else _unit_state(delta, add_array)
    return {
        "eps": float(ex.eps),
        "seed": int(ex.seed),
        "delta": ex._delta_param,
        "engine": ex.engine_kind,
        "capacity": ex.capacity,
        "phi_eff": float(ex.phi_eff),
        "sample_size": int(ex.sample_size),
        "eps_effective": float(ex.eps_effective),
        "bounding_box": _box_state(ex.bounding_box),
        "shards": [[int(i) for i in unit.ids] for unit in ex.units],
        "removed": sorted(int(i) for i in ex.removed),
        "synopses": [synopsis_to_state(s, add_array) for s in ex.synopses],
        "repository": _repository_state(ex.repository, add_array),
        "engines": engines,
        "delta_ids": [] if delta is None else [int(i) for i in delta.ids],
        "delta_engine": delta_engine,
    }


def _executor_from_state(
    state: dict, arrays: _ArrayTable, registry: MetricsRegistry
) -> ShardedBatchExecutor:
    ex = ShardedBatchExecutor.__new__(ShardedBatchExecutor)
    ex.registry = registry
    ex.eps = float(state["eps"])
    ex.seed = int(state["seed"])
    ex._delta_param = state["delta"]
    ex.engine_kind = check_dynamic_engine(state["engine"])
    ex.capacity = state["capacity"]
    ex.phi_eff = float(state["phi_eff"])
    ex.sample_size = int(state["sample_size"])
    ex.eps_effective = float(state["eps_effective"])
    ex.bounding_box = _box_from(state["bounding_box"])
    ex.synopses = [synopsis_from_state(p, arrays) for p in state["synopses"]]
    if not ex.synopses:
        raise SnapshotError("executor state has no synopses")
    ex.dim = ex.synopses[0].dim
    ex.repository = _repository_from_state(state["repository"], arrays)
    ex.removed = frozenset(int(i) for i in state["removed"])
    shards, delta_ids = _unit_ids(state, len(ex.synopses), ex.removed)
    ex.units = [
        _unit_from_state(ex, ids, s, sub, arrays)
        for s, (ids, sub) in enumerate(zip(shards, state["engines"], strict=True))
    ]
    ex.delta = (
        _unit_from_state(ex, delta_ids, len(shards), state["delta_engine"], arrays)
        if delta_ids
        else None
    )
    return ex


# ----------------------------------------------------------------------
# Leaf-result cache
# ----------------------------------------------------------------------
def _encode_key(obj: Any) -> Any:
    """Canonical leaf keys are nested tuples of JSON scalars; tag tuples."""
    if isinstance(obj, tuple):
        return {"t": [_encode_key(x) for x in obj]}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise SnapshotError(
        f"cache key element of type {type(obj).__name__} is not "
        "snapshot-serializable"
    )


def _decode_key(obj: Any) -> Any:
    if isinstance(obj, dict):
        return tuple(_decode_key(x) for x in obj["t"])
    return obj


def _cache_state(cache: LeafResultCache, add_array: Callable) -> dict:
    entries = []
    word_chunks: list[np.ndarray] = []
    off = 0
    for key, entry in cache.export_entries():
        e: dict = {"key": _encode_key(key), "watermark": int(entry.watermark)}
        value = entry.indexes
        word_chunks.append(value.words)
        e["nbits"] = int(value.nbits)
        e["off"] = off
        e["nw"] = int(value.words.size)
        off += int(value.words.size)
        entries.append(e)
    words = (
        np.concatenate(word_chunks)
        if word_chunks
        else np.zeros(0, dtype=np.uint64)
    )
    return {
        "capacity": int(cache.capacity),
        "generation": int(cache.generation),
        "entries": entries,
        "words": add_array("cache_words", words),
    }


def _cache_from_state(
    state: dict, arrays: _ArrayTable
) -> tuple[int, list[tuple[Any, CacheEntry]], int]:
    """The leaf cache's ``(capacity, entries, generation)``."""
    words = arrays[state["words"]]
    items = []
    for e in state["entries"]:
        key = _decode_key(e["key"])
        off, nw = int(e["off"]), int(e["nw"])
        if off + nw > words.size:
            raise SnapshotError("cache entry words out of segment bounds")
        # Contiguous slice of the mapped words — zero-copy; bitmaps are
        # immutable by convention so a read-only buffer is fine.
        value = DatasetBitmap(words[off : off + nw], int(e["nbits"]))
        items.append((key, CacheEntry(value, int(e["watermark"]))))
    return int(state["capacity"]), items, int(state["generation"])


# ----------------------------------------------------------------------
# QueryService
# ----------------------------------------------------------------------
def _service_state(svc: QueryService, add_array: Callable) -> dict:
    kw = svc._executor_kwargs
    return {
        # The keys QueryService.__init__ keeps for rebuilds, in its order.
        "executor_kwargs": {**kw, "bounding_box": _box_state(kw["bounding_box"])},
        "tracing": bool(svc.observability.tracing),
        "slow_query_threshold_ms": svc.observability.slow_log.threshold_ms,
        "cache": _cache_state(svc.cache, add_array),
        "executor": _executor_state(svc.executor, add_array),
    }


def _service_from_state(
    state: dict, arrays: _ArrayTable, obs: Optional[ServiceObservability]
) -> QueryService:
    svc = QueryService.__new__(QueryService)
    kw = dict(state["executor_kwargs"])
    # Files written before seeding became unconditional carry the retired
    # flag; it must not reach ``ShardedBatchExecutor(**kw)`` on a rebuild.
    kw.pop("deterministic", None)
    kw["bounding_box"] = _box_from(kw["bounding_box"])
    svc._executor_kwargs = kw
    if obs is None:
        obs = ServiceObservability(
            bool(state["tracing"]), state["slow_query_threshold_ms"]
        )
    svc.executor = _executor_from_state(state["executor"], arrays, obs.registry)
    svc._assemble(obs, *_cache_from_state(state["cache"], arrays))
    return svc


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
        state = _service_state(service, writer.add_array)
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
    header, arrays = _open_container(path, mmap)

    def restore(observability: Optional[ServiceObservability]) -> QueryService:
        if faults.ARMED is not None:
            faults.hit("snapshot_load")
        with _decoding(path):
            return _service_from_state(header["state"], arrays, observability)

    return header["generation"], restore


def generation_of(path: PathLike) -> int:
    """The generation counter stamped into a snapshot header."""
    return _read(path)[0]


def inspect(path: PathLike) -> dict:
    """Human/CLI-facing summary of a container (no arrays are loaded)."""
    path = os.fspath(path)
    header, _arrays = _open_container(path, mmap=True)
    by_kind: dict[str, int] = {}
    for ref, m in header["arrays"].items():
        nbytes = math.prod(m["shape"]) * np.dtype(m["dtype"]).itemsize
        kind = ref.split("#")[0]
        by_kind[kind] = by_kind.get(kind, 0) + nbytes
    out = {
        "path": path,
        "format": header.get("format"),
        "kind": header["kind"],
        "generation": header["generation"],
        "n_arrays": len(header["arrays"]),
        "data_bytes": sum(by_kind.values()),
        "file_bytes": os.path.getsize(path),
        # Where the bytes go: segment kind (the add_array hint) -> bytes,
        # largest first.
        "bytes_by_kind": dict(sorted(by_kind.items(), key=lambda kv: -kv[1])),
    }
    with _decoding(path):
        executor = header["state"]["executor"]
        out["executor"] = {
            "engine": executor["engine"],
            "n_shards": len(executor["shards"]),
            "n_datasets": len(executor["synopses"]),
            "n_removed": len(executor["removed"]),
            "delta_size": len(executor["delta_ids"]),
        }
        out["cache_entries"] = len(header["state"]["cache"]["entries"])
        n_datasets = out["executor"]["n_datasets"]
        sized = [("file", out["file_bytes"]), *out["bytes_by_kind"].items()]
        out["bytes_per_dataset"] = {
            kind: nbytes // n_datasets for kind, nbytes in sized
        }
        # The constant of the paper's space bound, as stored: the whole file
        # and the backend segments alone (codes, level tables, keys,
        # node table), per mapped point — one key each, so the mapped points
        # are the lengths of the units' key segments.
        units = [*executor["engines"], executor["delta_engine"]]
        n_points = sum(
            header["arrays"][unit["ptile"]["backend"]["group"]]["shape"][0]
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
