"""JSON-safe serialization for synopses.

A synopsis is built to travel: a data owner can build it locally and
hand it to whoever indexes the lake, without the raw data.  No route of
the repo's servers takes one (a coordinator registers its nodes by URL
only), so this is a library format: a versioned, dependency-free ``dict``
of JSON types for every synopsis kind whose state is pure data:

- :class:`~repro.synopsis.sample.EpsilonSampleSynopsis`
- :class:`~repro.synopsis.cover.CoverSynopsis`
- :class:`~repro.synopsis.quantile.QuantileHistogramSynopsis`
- :class:`~repro.synopsis.gmm.GMMSynopsis` (fitted mixture parameters plus
  the measured delta bounds — EM is *not* re-run on load)
- :class:`~repro.synopsis.histogram.HistogramSynopsis` (grid edges + bin
  probabilities)
- :class:`~repro.synopsis.kernel.DirectionQuantileSynopsis` (direction net
  + per-direction quantile sketches)

Only :class:`~repro.synopsis.exact.ExactSynopsis` has no wire format: its
state *is* the raw dataset, which a synopsis exists to avoid shipping.

Round-trip is exact: ``loads(dumps(s))`` answers every query identically
(tested in ``tests/synopsis/test_serialize.py``) — Python's ``json``
emits shortest-round-trip ``repr`` floats, so binary64 values survive the
wire bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Optional, Union

import numpy as np

from repro.errors import ConstructionError
from repro.synopsis.cover import CoverSynopsis
from repro.synopsis.gmm import GMMSynopsis
from repro.synopsis.histogram import HistogramSynopsis
from repro.synopsis.kernel import DirectionQuantileSynopsis
from repro.synopsis.quantile import QuantileHistogramSynopsis
from repro.synopsis.sample import EpsilonSampleSynopsis
from repro.wire import SYNOPSIS, SYNOPSIS_STATE, decode

FORMAT_VERSION = 1

Serializable = Union[
    EpsilonSampleSynopsis,
    CoverSynopsis,
    QuantileHistogramSynopsis,
    GMMSynopsis,
    HistogramSynopsis,
    DirectionQuantileSynopsis,
]


#: kind -> (class, the wire fields its instances keep under another
#: attribute than ``"_" + field``).  Field names, order, types and ranges
#: are :data:`repro.wire.SYNOPSIS`'s; both directions walk that table.
_KINDS = {
    "eps-sample": (EpsilonSampleSynopsis, {}),
    "cover": (CoverSynopsis, {"radius": "radius"}),
    "quantile-histogram": (
        QuantileHistogramSynopsis, {"delta": "_delta_ptile", "knots": "_knots_mat"},
    ),
    "gmm": (GMMSynopsis, {"delta": "_delta_ptile"}),
    "grid-histogram": (HistogramSynopsis, {"delta": "_delta_ptile"}),
    "direction-quantile": (DirectionQuantileSynopsis, {}),
}


def _attributes(kind: str) -> list:
    """``(wire field, attribute)`` pairs of one kind, in wire order."""
    renamed = _KINDS[kind][1]
    fields = SYNOPSIS.variants[kind].fields
    return [(f, renamed.get(f, "_" + f)) for f in fields if f != "format"]


def to_dict(synopsis: Serializable) -> dict:
    """Serialize a supported synopsis to a JSON-safe dict."""
    for kind, (cls, _renamed) in _KINDS.items():
        if isinstance(synopsis, cls):
            out = {"format": FORMAT_VERSION, "kind": kind}
            for field, attribute in _attributes(kind):
                value = getattr(synopsis, attribute)
                if isinstance(value, list):  # grid-histogram edges: one array per axis
                    value = [axis.tolist() for axis in value]
                out[field] = value.tolist() if isinstance(value, np.ndarray) else value
            return out
    raise ConstructionError(
        f"{type(synopsis).__name__} has no wire format; supported kinds: "
        + ", ".join(cls.__name__ for cls, _renamed in _KINDS.values())
    )


def from_dict(payload: dict) -> Serializable:
    """Reconstruct a synopsis from :func:`to_dict` output.

    The payload is outside input (whoever handed it over) and is read
    through :data:`repro.wire.SYNOPSIS`: a missing key, a wrong-rank,
    ragged, mis-sized, non-numeric or out-of-range array or scalar is a
    :class:`~repro.errors.ConstructionError`, never another exception and
    never a synopsis made of NaN.
    """
    return _from_wire(decode(SYNOPSIS, payload, "synopsis"))


def _from_wire(fields: dict) -> Serializable:
    """The synopsis of one decoded record: its attributes, then what the
    table cannot say — agreement between fields of different rank — and the
    derived state, recomputed exactly as each constructor does."""
    cls = _KINDS[fields["kind"]][0]
    syn = cls.__new__(cls)
    for field, attribute in _attributes(fields["kind"]):
        setattr(syn, attribute, fields[field])
    if cls is EpsilonSampleSynopsis:
        if syn._n_points < len(syn._subsample):
            raise ConstructionError("'n_points' is smaller than the subsample")
    elif cls is CoverSynopsis:
        syn._dim = int(syn._cover.shape[1])
    elif cls is QuantileHistogramSynopsis:
        syn._knots = list(syn._knots_mat)
        syn._dim = len(syn._knots)
    elif cls is GMMSynopsis:
        syn._dim = int(syn._means.shape[1])
    elif cls is HistogramSynopsis:
        # A one-edge axis has no bin: no non-empty ``probs`` fits it either.
        if syn._probs.shape != tuple(e.size - 1 for e in syn._edges):
            raise ConstructionError("'probs' needs one bin between every two 'edges'")
        syn._dim = len(syn._edges)
        syn._cell_radius = 0.5 * float(
            np.linalg.norm([e[1] - e[0] for e in syn._edges])
        )
        syn._flat_probs = None
    else:
        syn._dim = int(syn._net.shape[1])
    return syn


def dumps(synopsis: Serializable) -> str:
    """Serialize to a JSON string."""
    return json.dumps(to_dict(synopsis))


def loads(text: str) -> Serializable:
    """Reconstruct from a JSON string."""
    return from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Container-aware serialization (snapshot files)
# ----------------------------------------------------------------------
# Snapshot containers (``repro.service.snapshot``) keep bulk arrays out of
# the JSON header, and extend the wire format to the two kinds the
# federated format deliberately excludes: ``ExactSynopsis`` (its state is
# the raw dataset, which a local snapshot *should* persist) and the service
# layer's deterministic coreset wrapper ``SeededSampleSynopsis``.  An
# executor's synopses are all seeded, so a container stores them as two
# integer columns (``seed``, ``index``) over their bases; an exact base
# over its dataset's rows, which the container already holds, costs
# nothing more.  Any other base keeps a per-item record: the wire dicts
# above, or an exact base over points of its own (``add_array`` stores
# them, the record keeps the reference).


def _narrow(values: list) -> np.ndarray:
    """Non-negative ints below 2**63 in the smallest unsigned dtype that
    holds them."""
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise ConstructionError(f"a synopsis seed or index is past int64 ({exc})") from exc
    if arr.size and arr.min() < 0:
        raise ConstructionError("synopsis seeds and indexes must be non-negative")
    return arr.astype(np.min_scalar_type(int(arr.max(initial=0))))


def _base_state(synopsis, add_array) -> dict:
    """One base synopsis as a record (its bulk arrays as segments)."""
    from repro.service.sharding import SeededSampleSynopsis
    from repro.synopsis.exact import ExactSynopsis

    if isinstance(synopsis, SeededSampleSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "seeded",
            "seed": int(synopsis.seed),
            "index": int(synopsis.index),
            "base": _base_state(synopsis.base, add_array),
        }
    if isinstance(synopsis, ExactSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "exact",
            "points": add_array("exact_points", synopsis._points),
        }
    return to_dict(synopsis)


def to_state(synopses: list, points: Optional[list], add_array) -> dict:
    """An executor's seeded synopses as a container block.

    ``points[i]`` is dataset ``i``'s rows as the container stores them (or
    ``points`` is None: it stores none); ``add_array(name_hint, array)``
    registers a segment and returns its reference.  A base that is exact
    over those very rows (the executor builds it so) is stored as ``None``
    in ``bases``, and ``bases`` is None when every base is.
    """
    from repro.synopsis.exact import ExactSynopsis

    bases = [
        None
        if isinstance(s.base, ExactSynopsis)
        and points is not None
        and s.base._points is points[i]
        else _base_state(s.base, add_array)
        for i, s in enumerate(synopses)
    ]
    return {
        "seed": add_array("synopsis_seeds", _narrow([s.seed for s in synopses])),
        "index": add_array("synopsis_index", _narrow([s.index for s in synopses])),
        "bases": None if all(b is None for b in bases) else bases,
    }


def from_state(payload: dict, points: Optional[list], arrays) -> list:
    """The synopses :func:`to_state` stored, as a list.

    ``arrays`` resolves segment references to ndarrays (possibly read-only
    ``np.memmap`` views — every synopsis only reads its state) and reads
    checked integer columns (``arrays.ints``).  ``points`` are the
    datasets' rows the container holds, or None.
    """
    from repro.service.sharding import SeededSampleSynopsis
    from repro.synopsis.exact import ExactSynopsis

    seeds = arrays.ints(payload["seed"], "synopsis seeds", None, 2**63 - 1)
    n = len(seeds)
    indexes = arrays.ints(payload["index"], "synopsis indexes", n, 2**63 - 1)
    bases = payload["bases"]
    if bases is None:
        bases = [None] * n
    elif not isinstance(bases, list) or len(bases) != n:
        raise ConstructionError("'bases' is not one entry per synopsis")
    if None in bases and (points is None or len(points) != n):
        raise ConstructionError("exact synopses without one dataset of rows each")
    out = []
    for i, (seed, index, base) in enumerate(zip(seeds.tolist(), indexes.tolist(), bases)):
        if base is None:
            base = ExactSynopsis.__new__(ExactSynopsis)
            base._points = points[i]
        else:
            base = _item_from_state(base, arrays)
        out.append(SeededSampleSynopsis(base, seed=seed, index=index))
    return out


def _item_from_state(payload: dict, arrays) -> object:
    """One base synopsis record."""
    state = decode(SYNOPSIS_STATE, payload, "synopsis")
    if state["kind"] == "seeded":
        from repro.service.sharding import SeededSampleSynopsis

        return SeededSampleSynopsis(
            _item_from_state(state["base"], arrays), seed=state["seed"],
            index=state["index"],
        )
    if state["kind"] == "exact":
        from repro.synopsis.exact import ExactSynopsis

        syn = ExactSynopsis.__new__(ExactSynopsis)
        syn._points = np.asarray(arrays[state["points"]])
        if syn._points.ndim != 2:
            raise ConstructionError("exact synopsis points must be an (n, d) array")
        return syn
    return _from_wire(state)
