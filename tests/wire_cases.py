"""Hostile inputs generated from a :mod:`repro.wire` table.

``hostile(table, valid)`` walks a reader beside one value it accepts and
yields ``(label, bad)`` for every single-field malformation a sender can
make of it: each required key dropped, each field retyped to each of
``null`` / ``true`` / ``"x"`` / ``1.5`` / ``[]`` / ``{}`` that its reader
refuses, each bounded number pushed just past each bound, each list emptied
and grown past its length bounds, and each array given a string, booleans, a
NaN, an infinity, a ragged row, one rank more, one rank less and one entry
more along a named axis.  ``tests/service/test_http_edge.py`` sends them
over sockets; ``tests/synopsis/test_serialize.py`` hands them to ``from_dict``.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Iterator, Tuple

import numpy as np

from repro import wire
from repro.errors import ReproError

DROP = object()
RETYPES = (None, True, "x", 1.5, [], {})


def _accepts(reader: Any, value: Any) -> bool:
    try:
        wire.decode(reader, value, "")
    except (ReproError, ValueError):
        return False
    return True


def _edited(valid: Any, path: tuple, value: Any) -> Any:
    """A deep copy of ``valid`` with the node at ``path`` replaced (or,
    for ``DROP``, its key deleted)."""
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(valid)
    node = out
    for step in path[:-1]:
        node = node[step]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return out


def _past(span: str) -> Iterator[Tuple[str, float]]:
    """Numbers just outside an interval: past a closed end, at an open one."""
    lo, hi, lo_open, hi_open = wire._span(span)
    for name, bound, is_open, away in (
        ("below", lo, lo_open, -math.inf), ("above", hi, hi_open, math.inf)
    ):
        if is_open or math.isfinite(bound):
            yield name, bound if is_open else float(np.nextafter(bound, away))


def _leaf_set(array: list, value: Any) -> list:
    """``array`` with its first leaf replaced."""
    out = copy.deepcopy(array)
    node = out
    while isinstance(node[0], list):
        node = node[0]
    node[0] = value
    return out


def _array_edits(reader: wire.Array, valid: list) -> Iterator[Tuple[str, Any]]:
    as_bool = np.asarray(valid, dtype=float).astype(bool).tolist()
    yield "a string inside", _leaf_set(valid, "1.5")
    yield "all booleans", as_bool
    yield "a NaN inside", _leaf_set(valid, math.nan)
    yield "a null inside", _leaf_set(valid, None)
    for name, number in _past(reader.span):
        yield f"an entry {name} {reader.span}", _leaf_set(valid, number)
    if reader.shape is not None:
        yield "one rank more", [valid]
        yield "one rank less", valid[0]
        if len(reader.shape) > 1:
            yield "a ragged row", [*valid[:-1], valid[-1] + valid[-1][:1]]
        for axis, name in enumerate(reader.shape):
            if name is not None:  # one entry more than the fields it must match
                grown = np.asarray(valid, dtype=float)
                grown = np.concatenate([grown, grown.take([0], axis)], axis)
                yield f"longer along {name!r}", grown.tolist()


def hostile(
    reader: Any, valid: Any, path: tuple = (), null_ok: bool = False
) -> Iterator[Tuple[str, tuple, Any]]:
    """``(label, path, replacement)`` triples for :func:`_edited`;
    ``null_ok`` where ``null`` is read as None or as a field's default."""
    where = ".".join(map(str, path)) or "value"
    if isinstance(reader, (wire.Deferred, wire.Nullable)):
        null_ok = null_ok or isinstance(reader, wire.Nullable)
        yield from hostile(reader.reader, valid, path, null_ok)
        return
    for value in RETYPES:
        if not (_accepts(reader, value) or (value is None and null_ok)):
            yield f"{where} retyped to {value!r}", path, value
    if isinstance(reader, wire.Int):
        for name, bound in (("below", reader.lo - 1), ("above", reader.hi + 1)):
            if math.isfinite(bound):
                yield f"{where} {name} [{reader.lo}, {reader.hi}]", path, int(bound)
    elif isinstance(reader, wire.Number):
        yield f"{where} NaN", path, math.nan
        for name, number in _past(reader.span):
            yield f"{where} {name} {reader.span}", path, number
    elif isinstance(reader, wire.Array):
        for label, bad in _array_edits(reader, valid):
            yield f"{where} {label}", path, bad
    elif isinstance(reader, wire.List):
        if reader.lo > 0:
            yield f"{where} cut to {reader.lo - 1} items", path, valid[: reader.lo - 1]
        if math.isfinite(reader.hi):
            over = valid + [valid[-1]] * (int(reader.hi) + 1 - len(valid))
            yield f"{where} grown to {len(over)} items", path, over
        for i, item in enumerate(valid):
            yield from hostile(reader.item, item, path + (i,))
    elif isinstance(reader, wire.Tagged):
        yield f"{where} without {reader.tag!r}", path + (reader.tag,), DROP
        yield f"{where} of an unknown {reader.tag!r}", path + (reader.tag,), "x"
        yield from hostile(reader.variants[valid[reader.tag]], valid, path)
    elif isinstance(reader, wire.Record):
        for name, spec in reader.fields.items():
            required = not isinstance(spec, tuple)
            if required:
                yield f"{where} without {name!r}", path + (name,), DROP
            if name in valid:
                field = spec if required else spec[0]
                yield from hostile(field, valid[name], path + (name,), not required)


def cases(reader: Any, valid: Any) -> Iterator[Tuple[str, Any]]:
    """``(label, hostile value)`` for every generated malformation."""
    assert _accepts(reader, valid), "the template must itself be valid"
    for label, path, value in hostile(reader, valid):
        yield label, _edited(valid, path, value)
