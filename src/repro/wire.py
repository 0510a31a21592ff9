"""The wire schema: one typed field table per inbound JSON body and payload.

Everything that enters the system as JSON — an HTTP body, an ``EXPR``
object, a shipped synopsis, a node's reply, a ``u64le+b64`` bitset, a
supervisor worker's ready report, a snapshot header — is read by
:func:`decode` through one of the tables at the bottom of this module and
by nothing else.  A table maps a field name to a *reader* (the field is
required), a :class:`Nullable` reader (required, may be ``null``) or
``(reader, default)`` (absent or ``null`` keeps the default); unknown keys
are ignored.  A refusal names the field path and what was expected, and
leaves as the table's ``error`` class — :class:`~repro.errors.QueryError`
(a ``400`` at the HTTP edge) unless the table says otherwise.  The hostile-input sweeps in ``tests/`` are generated
from these tables, and the ``wire-schema`` lint keeps route handlers from
reading ``body[...]`` around them.

The readers agree on what a JSON number is: an ``int`` or a ``float``,
never ``true`` / ``false`` and never a string; an integer may arrive as
``5.0``; a number lies in its ``span`` — interval notation, so the default
``"(-inf, inf)"`` means finite and NaN fits no span.  An :class:`Array` is
numeric when numpy decodes the nested lists to an integer or float dtype
*before* any cast: a string, a boolean, a ``null``, a ragged or an object
array is refused.  That dtype check is the contract — a lone ``true``
hidden among numbers (``[1, true]``) is folded to ``1`` by numpy first and
is not looked for element by element.

This is a leaf module: it imports :mod:`repro.errors`, numpy and the
standard library only, so every layer can use it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Any, Dict, Mapping, NoReturn, Optional, Tuple

import numpy as np

from repro.errors import ConstructionError, QueryError

_SPAN = re.compile(r"([\[(])(\S+), (\S+)([\])])")


class _Refusal(Exception):
    """A reader's refusal; :func:`decode` re-raises it as the table's error."""


def _refuse(where: str, reader: object, value: object) -> NoReturn:
    """Every reader is a dataclass: its repr says what it expected."""
    got = repr(value)
    raise _Refusal(
        f"{where} must be {reader}, got {got if len(got) <= 60 else got[:57] + '...'}"
    )


@functools.lru_cache(maxsize=None)
def _span(text: str) -> Tuple[float, float, bool, bool]:
    """``(lo, hi, lo_open, hi_open)`` of an interval like ``"[0, inf)"``."""
    match = _SPAN.fullmatch(text)
    assert match is not None, text
    return float(match[2]), float(match[3]), match[1] == "(", match[4] == ")"


def _within(span: str, x: Any) -> Any:
    """Whether ``x`` (a float or a float array) lies in ``span``; NaN never."""
    lo, hi, lo_open, hi_open = _span(span)
    return ((x > lo) if lo_open else (x >= lo)) & ((x < hi) if hi_open else (x <= hi))


@dataclass(frozen=True)
class Bool:
    """``true`` / ``false`` — ``bool("false")`` would turn a flag *on*."""

    def read(self, value: Any, where: str) -> bool:
        if isinstance(value, bool):
            return value
        _refuse(where, self, value)


@dataclass(frozen=True)
class Int:
    """An integer in ``[lo, hi]`` (``5`` or ``5.0``) — ``int()`` would pass
    ``true`` and ``1.7`` as 1: the wrong dataset tombstoned, the wrong ``k``."""

    lo: float = -math.inf
    hi: float = math.inf

    def read(self, value: Any, where: str) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if (
            isinstance(value, int)
            and not isinstance(value, bool)
            and self.lo <= value <= self.hi
        ):
            return value
        _refuse(where, self, value)


@dataclass(frozen=True)
class Number:
    """A number inside ``span``, as a float — ``float()`` would pass ``"5"``
    and ``true`` (a 1 ms deadline)."""

    span: str = "(-inf, inf)"

    def read(self, value: Any, where: str) -> float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer past the float range
                number = math.nan
            if _within(self.span, number):
                return number
        _refuse(where, self, value)


@dataclass(frozen=True)
class String:
    """A string that is all of ``pattern`` (a regular expression)."""

    pattern: str = ".+"

    def read(self, value: Any, where: str) -> str:
        if isinstance(value, str) and re.fullmatch(self.pattern, value):
            return value
        _refuse(where, self, value)


@dataclass(frozen=True)
class Array:
    """A non-empty numeric array (see the module docstring) of the stated
    rank with every entry inside ``span``, as float64.

    ``shape`` has one entry per axis — ``None`` for any length, a name for
    a length every same-named axis of the enclosing :class:`Record` must
    share — or is ``None`` for any rank.
    """

    shape: Optional[Tuple[Optional[str], ...]]
    span: str = "(-inf, inf)"

    def read(self, value: Any, where: str) -> np.ndarray:
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged
            arr = np.empty(0)
        if (
            arr.dtype.kind in "iuf"
            and arr.size
            and (self.shape is None or arr.ndim == len(self.shape))
            and _within(self.span, arr).all()
        ):
            return arr.astype(float)
        _refuse(where, self, value)


@dataclass(frozen=True)
class List:
    """A list of ``lo`` to ``hi`` items, each read by ``item``."""

    item: Any
    lo: int = 0
    hi: float = math.inf

    def read(self, value: Any, where: str) -> list:
        if isinstance(value, (list, tuple)) and self.lo <= len(value) <= self.hi:
            return [self.item.read(v, f"{where}[{i}]") for i, v in enumerate(value)]
        _refuse(where, self, value)


@dataclass(frozen=True)
class Nullable:
    """``null`` as None, anything else through ``reader``."""

    reader: Any

    def read(self, value: Any, where: str) -> Any:
        return None if value is None else self.reader.read(value, where)


@dataclass(frozen=True)
class Deferred:
    """Handed on as found: a later :func:`decode` call reads it through
    ``reader`` (named here so the generated sweeps can descend into it)."""

    reader: Any

    def read(self, value: Any, where: str) -> Any:
        return value


@dataclass(frozen=True, repr=False)
class Record:
    """A JSON object read field by field; unknown keys are ignored.
    ``fields`` maps a name to one of three kinds:

    - a reader: required, and never ``null``;
    - a :class:`Nullable` reader: required, and ``null`` reads as None — a
      field left out is refused, so a writer that always writes it cannot
      lose it unseen (no HTTP body has one: only snapshot records do);
    - ``(reader, default)``: optional, left out or ``null`` is ``default``.

    ``error`` is what :func:`decode` raises for a refusal anywhere below."""

    fields: Mapping[str, Any]
    error: type = QueryError

    def __repr__(self) -> str:
        return "a JSON object"

    def read(self, value: Any, where: str) -> Dict[str, Any]:
        if not isinstance(value, dict):
            _refuse(where, self, value)
        out: Dict[str, Any] = {}
        axes: Dict[str, int] = {}
        for name, spec in self.fields.items():
            required = not isinstance(spec, tuple)
            reader = spec if required else spec[0]
            path = f"{where}.{name}" if where else name
            got = value.get(name)
            if got is None and not (
                required and isinstance(reader, Nullable) and name in value
            ):
                if required:
                    raise _Refusal(f"{path} is required: {reader}")
                out[name] = spec[1]
                continue
            out[name] = item = reader.read(got, path)
            if not isinstance(reader, Array):
                continue
            for axis, n in zip(reader.shape or (), item.shape):
                if axis is not None and axes.setdefault(axis, n) != n:
                    raise _Refusal(
                        f"{path} must have {axes[axis]} entries along {axis!r} "
                        f"like the fields before it, got {n}"
                    )
        return out


@dataclass(frozen=True, repr=False, eq=False)  # EXPRESSION contains itself
class Tagged:
    """A JSON object whose ``tag`` field names which of ``variants`` reads
    it; the decoded record keeps the tag."""

    tag: str
    variants: Dict[str, Record]
    error: type = QueryError

    def __repr__(self) -> str:
        return f"an object whose {self.tag!r} is one of {', '.join(self.variants)}"

    def read(self, value: Any, where: str) -> Dict[str, Any]:
        kind = value.get(self.tag) if isinstance(value, dict) else None
        if isinstance(kind, str) and kind in self.variants:
            return {self.tag: kind, **self.variants[kind].read(value, where)}
        _refuse(where, self, value)


def decode(table: Any, value: Any, where: str) -> Any:
    """``value`` read through ``table`` — a :class:`Record`, or any reader —
    or the table's ``error`` (``QueryError`` for a bare reader) naming the
    offending field under ``where``.

    Examples
    --------
    >>> decode(REMOVE_DATASETS, {"indexes": [3, 5.0], "extra": 1}, "")
    {'indexes': [3, 5]}
    >>> decode(REMOVE_DATASETS, {"indexes": [True]}, "")
    Traceback (most recent call last):
        ...
    repro.errors.QueryError: indexes[0] must be Int(lo=0, hi=inf), got True
    """
    error = getattr(table, "error", QueryError)
    try:
        return table.read(value, where)
    except _Refusal as exc:
        raise error(str(exc)) from None
    except RecursionError:
        raise error(f"{where or 'value'} is nested too deeply") from None


# ----------------------------------------------------------------------
# The tables
# ----------------------------------------------------------------------
#: ``deadline_ms`` wherever it appears; also :meth:`Deadline.from_ms`.
DEADLINE_MS = Number("(0, inf)")

_COORDINATE = "[-inf, inf]"  # an open side of a ptile rectangle is ±Infinity
#: ``EXPR``.  ``theta`` is ``[a]``, ``[a, b]`` or ``[a, null]`` (= ``[a, ∞)``).
EXPRESSION = Tagged("op", {})
_CONNECTIVE = Record({"children": List(EXPRESSION, lo=1)})
EXPRESSION.variants.update({
    "and": _CONNECTIVE,
    "or": _CONNECTIVE,
    "ptile": Record({
        "lo": Array(("d",), _COORDINATE),
        "hi": Array(("d",), _COORDINATE),
        "theta": List(Nullable(Number(_COORDINATE)), lo=1, hi=2),
    }),
    "pref": Record({"vector": Array((None,)), "k": Int(lo=1), "tau": Number()}),
})

_SEARCH_OPTIONS = {
    "record_times": (Bool(), False),
    "trace": (Bool(), None),  # None: the service's own tracing default
    "degrade": (Bool(), False),
    "deadline_ms": (DEADLINE_MS, None),
}
#: ``POST /search`` and ``POST /search/batch``, node and coordinator alike
#: (the coordinator acts on ``deadline_ms`` and ``format`` only).
SEARCH = Record({"expression": Deferred(EXPRESSION), **_SEARCH_OPTIONS})
SEARCH_BATCH = Record({
    "expressions": List(Deferred(EXPRESSION), lo=1),
    "format": (String("indexes|bitset"), "indexes"),
    **_SEARCH_OPTIONS,
})
#: ``POST /datasets`` and ``DELETE /datasets``.
ADD_DATASETS = Record({"datasets": List(Array((None, None)), lo=1)})
REMOVE_DATASETS = Record({"indexes": List(Int(lo=0), lo=1)})

_BOUND = Number("[0, inf)")  # delta, delta_pref, radius, eps_dir: an error bound
_HEADER = {"format": Int(1, 1), "n_points": Int(1, 2**53)}
#: Every :mod:`repro.synopsis.serialize` wire kind, fields in ``to_dict``
#: order.  Same-named axes must agree (``weights`` with ``means``, ...).
SYNOPSIS = Tagged("kind", {
    "eps-sample": Record({
        **_HEADER, "delta": _BOUND, "delta_pref": _BOUND,
        "subsample": Array((None, None)),
    }),
    "cover": Record({**_HEADER, "radius": _BOUND, "cover": Array((None, None))}),
    "quantile-histogram": Record({
        **_HEADER, "delta": _BOUND, "delta_pref": _BOUND,
        "levels": Array(("m",), "[0, 1]"), "knots": Array((None, "m")),
    }),
    "gmm": Record({
        **_HEADER, "delta": _BOUND, "delta_pref": _BOUND,
        "weights": Array(("k",), "[0, inf)"), "means": Array(("k", "d")),
        "stds": Array(("k", "d"), "[0, inf)"),
    }),
    # ``probs`` has one axis per ``edges`` entry: checked after the decode.
    "grid-histogram": Record({
        **_HEADER, "delta": _BOUND,
        "edges": List(Array((None,)), lo=1), "probs": Array(None, "[0, inf)"),
    }),
    "direction-quantile": Record({
        **_HEADER, "delta_pref": _BOUND, "radius": _BOUND, "eps_dir": _BOUND,
        "net": Array(("n", None)), "levels": Array(("m",), "[0, 1]"),
        "quantiles": Array(("n", "m")),
    }),
}, error=ConstructionError)
#: The snapshot container's superset: the two kinds that are never shipped.
SYNOPSIS_STATE = Tagged("kind", dict(SYNOPSIS.variants), error=ConstructionError)
SYNOPSIS_STATE.variants.update({
    "seeded": Record({
        "format": Int(1, 1), "seed": Int(), "index": Int(lo=0),
        "base": Deferred(SYNOPSIS_STATE),
    }),
    "exact": Record({"format": Int(1, 1), "points": String()}),
})

#: A node's dataset count, posted or probed.  A backend keeps every mapped
#: point's dataset key in one unsigned column, as narrow as the largest key
#: allows, for keys below 2^31 (``index.backend.id_column``): no node, and
#: no federated universe, holds more than ``N_DATASETS.hi``.
N_DATASETS = Int(1, 2**31 - 1)
#: The coordinator's ``POST /nodes`` and ``DELETE /nodes``.  Only the shape
#: of ``url`` is checked — nothing is dialled, a node that is down registers.
ADD_NODE = Record({
    "url": String(r"https?://[^\s/]+(/\S*)?"),
    "n_datasets": (N_DATASETS, None),  # None: probe /healthz
})
REMOVE_NODE = Record({"node_id": Int(lo=0)})

#: :meth:`DatasetBitmap.to_wire` output, and a node's ``/search/batch``
#: reply as the coordinator reads it.  A refusal here is the *node's*
#: fault, so it must not be the ``QueryError`` that blames the query.
BITSET = Record({
    "encoding": String(r"u64le\+b64"),
    "n_bits": Int(lo=0),
    "words": String("[A-Za-z0-9+/]*={0,2}"),
}, error=ConstructionError)
NODE_REPLY = Record({
    "results": List(Record({
        "bitset": Deferred(BITSET),
        "degraded": (Bool(), False),
        "maybe_bitset": (Deferred(BITSET), None),
    }), lo=1),
}, error=ConstructionError)

#: A worker's ready report on the supervisor's pipe, a snapshot file's
#: header and segments; their readers already funnel ``ValueError``.
READY_REPORT = Record({"admin_port": Int(1, 65535)}, error=ValueError)
SNAPSHOT_HEADER = Record({"generation": Int(lo=0)}, error=ValueError)
SNAPSHOT_SEGMENT = Record({
    "dtype": String(), "offset": Int(lo=0), "shape": List(Int(lo=0)),
}, error=ValueError)
