"""The three field kinds of :class:`repro.wire.Record`, read directly."""

from __future__ import annotations

import pytest
import wire_cases

from repro import wire
from repro.errors import QueryError

#: One field of each kind: required, required but nullable, optional.
TABLE = wire.Record({
    "k": wire.Int(lo=0),
    "n": wire.Nullable(wire.Int(lo=0)),
    "m": (wire.Int(lo=0), 3),
})
VALID = {"k": 1, "n": 2, "m": 4}


def test_a_required_nullable_field_must_be_present_and_may_be_null():
    with pytest.raises(QueryError, match=r"^n is required: Nullable"):
        wire.decode(TABLE, {"k": 1}, "")
    assert wire.decode(TABLE, {"k": 1, "n": None}, "") == {"k": 1, "n": None, "m": 3}
    assert wire.decode(TABLE, {"k": 1, "n": 5.0}, "")["n"] == 5  # through Int
    with pytest.raises(QueryError, match=r"^n must be Int"):
        wire.decode(TABLE, {"k": 1, "n": -1}, "")


def test_null_is_refused_for_a_plain_field_and_defaulted_for_an_optional_one():
    with pytest.raises(QueryError, match=r"^k is required"):
        wire.decode(TABLE, {"k": None, "n": 2}, "")
    assert wire.decode(TABLE, {"k": 1, "n": 2, "m": None}, "")["m"] == 3
    assert wire.decode(TABLE, {"k": 1, "n": 2}, "")["m"] == 3


def test_the_generated_cases_drop_a_nullable_field_and_never_null_it():
    edits = [(path, value) for _label, path, value in wire_cases.hostile(TABLE, VALID)]
    on_n = [value for path, value in edits if path == ("n",)]
    assert any(value is wire_cases.DROP for value in on_n)
    assert all(value is not None for value in on_n)
    assert any(path == ("k",) and value is None for path, value in edits)
    assert not any(path == ("m",) and value is wire_cases.DROP for path, value in edits)
    for label, bad in wire_cases.cases(TABLE, VALID):
        with pytest.raises(QueryError):
            wire.decode(TABLE, bad, "")
