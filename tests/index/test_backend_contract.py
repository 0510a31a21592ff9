"""Every registered engine implements the whole ``RangeSearchBackend``.

The equivalence suite drives the engines through the behaviours it
exercises; this one checks the contract itself, member by member, on the
classes :func:`~repro.index.backend.backend_class` returns: each protocol
member exists on the class, a property stays a property, a method keeps
the protocol's leading parameter names (an extra parameter needs a
default), and every engine in ``DYNAMIC_ENGINES`` carries the persistence
pair ``restore_backend`` relies on.
"""

import inspect

import pytest

from repro.index import ENGINES
from repro.index.backend import DYNAMIC_ENGINES, RangeSearchBackend, backend_class

#: The methods and properties the protocol declares (not the ones the
#: typing machinery adds to it).
MEMBERS = {
    name: value
    for name, value in vars(RangeSearchBackend).items()
    if (inspect.isfunction(value) or isinstance(value, property))
    and getattr(value, "fget", value).__qualname__.startswith("RangeSearchBackend.")
}


def _params(fn) -> list:
    """``fn``'s parameters after ``self``."""
    return list(inspect.signature(fn).parameters.values())[1:]


@pytest.mark.parametrize("member", sorted(MEMBERS))
@pytest.mark.parametrize("engine", ENGINES)
def test_engine_implements_the_protocol_member(engine, member):
    declared = MEMBERS[member]
    impl = inspect.getattr_static(backend_class(engine), member)
    if isinstance(declared, property):
        assert isinstance(impl, property), f"{engine}: {member} is not a property"
        return
    assert inspect.isfunction(impl), f"{engine}: {member} is not a plain method"
    want = [p.name for p in _params(declared)]
    have = _params(impl)
    assert [p.name for p in have[: len(want)]] == want, (
        f"{engine}: {member}{inspect.signature(impl)} does not take the "
        f"protocol's {member}{inspect.signature(declared)}"
    )
    extra = [p.name for p in have[len(want):] if p.default is p.empty]
    assert not extra, f"{engine}: {member} adds required parameters {extra}"


@pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
def test_dynamic_engine_has_the_persistence_pair(engine):
    cls = backend_class(engine)
    assert inspect.isfunction(inspect.getattr_static(cls, "to_arrays"))
    assert isinstance(inspect.getattr_static(cls, "from_arrays"), classmethod)
