"""`repro lint` — AST-based invariant checks for this repository.

It checks, with stdlib ``ast`` only, the serving layer's conventions that
no test or other CI step catches when they are broken: lock discipline
(``guarded-by``), warm-path purity (``hot-path``), disarmed failpoints that
cost one pointer check (``failpoint-discipline``), and the two schema
boundaries other processes read, the wire (``wire-schema``) and the
snapshot file (``snapshot-schema``).  :data:`~repro.analysis.runner.RULES`
is the rule table.

Usage::

    repro lint [paths...]
    python -m repro.analysis [paths...]

Programmatic::

    from repro.analysis import lint_paths, lint_source
    findings = lint_paths(["src/repro"])

Annotations understood in checked source:

``# guarded-by: <lock>``
    On a ``self.attr = ...`` line: the attribute may only be accessed
    inside ``with self.<lock>:`` in that class (``__init__`` and
    ``*_locked`` methods are exempt).  Add ``[writes]`` to guard writes
    only (for publish-then-read-lock-free attributes).
``# lint: hot-path``
    On a ``def`` line: the function is warm-path critical; no container
    allocation or lock acquisition inside loops, no logging, no per-item
    numpy scalar extraction in loops.
``# lint: ignore[rule]``
    Suppress findings for ``rule`` on this line (``# lint: ignore``
    suppresses every rule).
"""

from repro._lazy import namespace

__getattr__, __all__ = namespace(__name__, {
    "repro.analysis.findings": "Finding",
    "repro.analysis.runner": "RULES lint_paths lint_source main render_text",
})
