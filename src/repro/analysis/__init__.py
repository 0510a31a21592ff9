"""`repro lint` — AST-based invariant checks for this repository.

Three classes of bugs have shipped here and been fixed by hand: unguarded
reads of the lock-protected serving totals (PR 2), allocation on the warm
path inside ``Histogram.observe`` (PR 6), and backend drift from the
``RangeSearchBackend`` protocol (PR 3 catches it only at runtime).  This
package checks those invariants mechanically, with stdlib ``ast`` only.

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
    "repro.analysis.registry": "all_rules rule",
    "repro.analysis.runner": "lint_paths lint_source main render_json render_text",
})
