"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything the library raises with a single handler while still
distinguishing configuration problems from runtime ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class CapabilityError(ReproError):
    """A synopsis was asked for an operation it does not support.

    E.g. requesting ``score`` (the Pref primitive) from a synopsis built only
    for the percentile class ``F_□``.
    """


class ConstructionError(ReproError):
    """An index or synopsis could not be built from the given inputs."""


class QueryError(ReproError):
    """A query was malformed for the data structure it was issued against."""


class SnapshotError(ReproError):
    """A persisted snapshot file could not be read back.

    Raised for bad magic bytes, an unsupported container version, a
    truncated or out-of-bounds array segment, or header state that does not
    describe a loadable engine.
    """
