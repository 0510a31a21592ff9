"""JSON-safe serialization for synopses.

In the federated setting a synopsis is *shipped*: data owners build it
locally and send it to the indexing service.  This module provides a
versioned, dependency-free wire format (plain ``dict`` of JSON types) for
every synopsis kind whose state is pure data:

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
state *is* the raw dataset, which the federated setting exists to avoid
shipping.

Round-trip is exact: ``loads(dumps(s))`` answers every query identically
(tested in ``tests/synopsis/test_serialize.py``) — Python's ``json``
emits shortest-round-trip ``repr`` floats, so binary64 values survive the
wire bit-for-bit.
"""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from repro.errors import ConstructionError
from repro.synopsis.cover import CoverSynopsis
from repro.synopsis.gmm import GMMSynopsis
from repro.synopsis.histogram import HistogramSynopsis
from repro.synopsis.kernel import DirectionQuantileSynopsis
from repro.synopsis.quantile import QuantileHistogramSynopsis
from repro.synopsis.sample import EpsilonSampleSynopsis

FORMAT_VERSION = 1

Serializable = Union[
    EpsilonSampleSynopsis,
    CoverSynopsis,
    QuantileHistogramSynopsis,
    GMMSynopsis,
    HistogramSynopsis,
    DirectionQuantileSynopsis,
]


def to_dict(synopsis: Serializable) -> dict:
    """Serialize a supported synopsis to a JSON-safe dict."""
    if isinstance(synopsis, EpsilonSampleSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "eps-sample",
            "n_points": synopsis.n_points,
            "delta": synopsis.delta_ptile,
            "delta_pref": synopsis.delta_pref,
            "subsample": synopsis.subsample.tolist(),
        }
    if isinstance(synopsis, CoverSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "cover",
            "n_points": synopsis.n_points,
            "radius": synopsis.radius,
            "cover": synopsis.cover_points.tolist(),
        }
    if isinstance(synopsis, QuantileHistogramSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "quantile-histogram",
            "n_points": synopsis.n_points,
            "delta": synopsis.delta_ptile,
            "delta_pref": synopsis.delta_pref,
            "levels": synopsis._levels.tolist(),
            "knots": [k.tolist() for k in synopsis._knots],
        }
    if isinstance(synopsis, GMMSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "gmm",
            "n_points": synopsis.n_points,
            "delta": synopsis.delta_ptile,
            "delta_pref": synopsis.delta_pref,
            "weights": synopsis._weights.tolist(),
            "means": synopsis._means.tolist(),
            "stds": synopsis._stds.tolist(),
        }
    if isinstance(synopsis, HistogramSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "grid-histogram",
            "n_points": synopsis.n_points,
            "delta": synopsis.delta_ptile,
            "edges": [e.tolist() for e in synopsis._edges],
            "probs": synopsis._probs.tolist(),
        }
    if isinstance(synopsis, DirectionQuantileSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "direction-quantile",
            "n_points": synopsis.n_points,
            "delta_pref": synopsis.delta_pref,
            "radius": synopsis._radius,
            "eps_dir": synopsis._eps_dir,
            "net": synopsis._net.tolist(),
            "levels": synopsis._levels.tolist(),
            "quantiles": synopsis._quantiles.tolist(),
        }
    raise ConstructionError(
        f"{type(synopsis).__name__} has no wire format; supported kinds: "
        "EpsilonSampleSynopsis, CoverSynopsis, QuantileHistogramSynopsis, "
        "GMMSynopsis, HistogramSynopsis, DirectionQuantileSynopsis"
    )


def _kind_of(payload: object) -> object:
    """The ``kind`` of a payload that carries this module's header."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ConstructionError("payload is not a serialized synopsis")
    if payload.get("format") != FORMAT_VERSION:
        raise ConstructionError(
            f"unsupported format version {payload.get('format')!r}"
        )
    return payload["kind"]


def _number(payload: dict, key: str) -> float:
    """A finite JSON number field (``true`` is not one; a string or a
    list is ``math.isfinite``'s ``TypeError``)."""
    value = payload[key]
    if isinstance(value, bool) or not math.isfinite(value):
        raise ConstructionError(f"{key!r} must be a finite number, got {value!r}")
    return float(value)


def _array(value: object, name: str, shape: tuple) -> np.ndarray:
    """A finite, non-empty float array from nested JSON lists; ``shape``
    gives its rank and, where an entry is not None, that axis's length."""
    arr = np.asarray(value, dtype=float)  # ragged / non-numeric: ValueError
    fits = arr.ndim == len(shape) and all(
        want in (None, got) for want, got in zip(shape, arr.shape)
    )
    if not (fits and arr.size and np.isfinite(arr).all()):
        raise ConstructionError(
            f"{name!r} must be a non-empty finite array of shape {shape} "
            f"(None = any length), got shape {arr.shape}"
        )
    return arr


def from_dict(payload: dict) -> Serializable:
    """Reconstruct a synopsis from :func:`to_dict` output.

    The payload is outside input (``POST /nodes`` ships it): a missing
    key, a wrong-rank, ragged, mis-sized or non-finite array or a
    non-numeric scalar is a :class:`~repro.errors.ConstructionError`,
    never another exception and never a synopsis made of NaN.
    """
    kind = _kind_of(payload)
    try:
        return _from_wire(kind, payload)
    except (LookupError, TypeError, ValueError) as exc:
        raise ConstructionError(
            f"malformed {kind!r} synopsis ({type(exc).__name__}: {exc})"
        ) from exc


def _from_wire(kind: object, payload: dict) -> Serializable:
    if kind == "eps-sample":
        return EpsilonSampleSynopsis(
            _array(payload["subsample"], "subsample", (None, None)),
            n_points=int(_number(payload, "n_points")),
            delta=_number(payload, "delta"),
            delta_pref=_number(payload, "delta_pref"),
        )
    if kind == "cover":
        cov = CoverSynopsis.__new__(CoverSynopsis)
        cov._cover = _array(payload["cover"], "cover", (None, None))
        cov._dim = int(cov._cover.shape[1])
        cov._n_points = int(_number(payload, "n_points"))
        cov.radius = _number(payload, "radius")
        return cov
    if kind == "quantile-histogram":
        syn = QuantileHistogramSynopsis.__new__(QuantileHistogramSynopsis)
        syn._levels = _array(payload["levels"], "levels", (None,))
        # Derived state, recomputed exactly as the constructor does.
        syn._knots_mat = _array(payload["knots"], "knots", (None, syn._levels.size))
        syn._knots = list(syn._knots_mat)
        syn._dim = len(syn._knots)
        syn._n_points = int(_number(payload, "n_points"))
        syn._delta_ptile = _number(payload, "delta")
        syn._delta_pref = _number(payload, "delta_pref")
        return syn
    if kind == "gmm":
        gmm = GMMSynopsis.__new__(GMMSynopsis)
        gmm._means = _array(payload["means"], "means", (None, None))
        gmm._weights = _array(payload["weights"], "weights", gmm._means.shape[:1])
        gmm._stds = _array(payload["stds"], "stds", gmm._means.shape)
        gmm._dim = int(gmm._means.shape[1])
        gmm._n_points = int(_number(payload, "n_points"))
        gmm._delta_ptile = _number(payload, "delta")
        gmm._delta_pref = _number(payload, "delta_pref")
        return gmm
    if kind == "grid-histogram":
        hist = HistogramSynopsis.__new__(HistogramSynopsis)
        hist._edges = [_array(e, "edges", (None,)) for e in payload["edges"]]
        if any(e.size < 2 for e in hist._edges):
            raise ConstructionError("every 'edges' axis needs two or more edges")
        hist._dim = len(hist._edges)
        hist._n_points = int(_number(payload, "n_points"))
        hist._probs = _array(
            payload["probs"], "probs", tuple(e.size - 1 for e in hist._edges)
        )
        hist._delta_ptile = _number(payload, "delta")
        # Derived state, recomputed exactly as the constructor does.
        hist._cell_radius = 0.5 * float(
            np.linalg.norm([e[1] - e[0] for e in hist._edges])
        )
        hist._flat_probs = None
        return hist
    if kind == "direction-quantile":
        ker = DirectionQuantileSynopsis.__new__(DirectionQuantileSynopsis)
        ker._net = _array(payload["net"], "net", (None, None))
        ker._dim = int(ker._net.shape[1])
        ker._n_points = int(_number(payload, "n_points"))
        ker._radius = _number(payload, "radius")
        ker._eps_dir = _number(payload, "eps_dir")
        ker._levels = _array(payload["levels"], "levels", (None,))
        ker._quantiles = _array(
            payload["quantiles"], "quantiles",
            (ker._net.shape[0], ker._levels.size),
        )
        ker._delta_pref = _number(payload, "delta_pref")
        return ker
    raise ConstructionError(f"unknown synopsis kind {kind!r}")


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
# the JSON header: ``to_state`` hands each large array to ``add_array`` and
# stores only the returned segment reference, extending the wire format to
# the two kinds the federated format deliberately excludes —
# ``ExactSynopsis`` (its state is the raw dataset, which a local snapshot
# *should* persist) and the service layer's deterministic coreset wrapper
# ``SeededSampleSynopsis``.  All other kinds delegate to the wire dicts
# above, so one format version covers both paths.


def to_state(synopsis, add_array) -> dict:
    """Serialize any snapshot-supported synopsis to a JSON-safe dict.

    ``add_array(name_hint, array)`` must register a raw array segment and
    return its reference string; everything else lands in the dict.
    """
    from repro.service.sharding import SeededSampleSynopsis
    from repro.synopsis.exact import ExactSynopsis

    if isinstance(synopsis, SeededSampleSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "seeded",
            "seed": int(synopsis.seed),
            "index": int(synopsis.index),
            "base": to_state(synopsis.base, add_array),
        }
    if isinstance(synopsis, ExactSynopsis):
        return {
            "format": FORMAT_VERSION,
            "kind": "exact",
            "points": add_array("exact_points", synopsis._points),
        }
    return to_dict(synopsis)


def from_state(payload: dict, arrays) -> object:
    """Reconstruct a synopsis from :func:`to_state` output.

    ``arrays`` maps segment references back to ndarrays (possibly
    read-only ``np.memmap`` views — every synopsis only reads its state).
    """
    kind = _kind_of(payload)
    if kind == "seeded":
        from repro.service.sharding import SeededSampleSynopsis

        return SeededSampleSynopsis(
            from_state(payload["base"], arrays),
            seed=int(payload["seed"]),
            index=int(payload["index"]),
        )
    if kind == "exact":
        from repro.synopsis.exact import ExactSynopsis

        syn = ExactSynopsis.__new__(ExactSynopsis)
        syn._points = np.asarray(arrays[payload["points"]])
        if syn._points.ndim != 2:
            raise ConstructionError("exact synopsis points must be an (n, d) array")
        return syn
    return from_dict(payload)
