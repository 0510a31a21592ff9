"""failpoint-discipline: fault-injection touchpoints must be zero-cost.

The fault-injection convention (:mod:`repro.service.faults`) is
zero-cost when disabled: every compiled-in failpoint reads the module
attribute once and compares a pointer before doing anything else ::

    if faults.ARMED is not None:
        faults.hit("shard_eval")

This rule enforces two invariants:

- every ``faults.hit(...)`` call is dominated by a positive
  ``faults.ARMED is not None`` guard (the early-return shape
  ``if faults.ARMED is None: return`` also counts: the shapes are those of
  ``context.unguarded_touches``), so the disarmed path never pays a
  function call or a dict lookup;
- no failpoint touchpoint (any ``faults.*`` access) appears inside a
  function marked ``# lint: hot-path`` — the per-leaf loops must not
  grow even the pointer check; failpoints belong at coarse boundaries
  (per-shard, per-request, per-snapshot-load).

:mod:`repro.service.faults` itself is exempt — it *is* the machinery.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleInfo, unguarded_touches
from repro.analysis.findings import Finding

_MOD = "faults"
_EXEMPT_SUFFIX = ("service/faults.py", "service\\faults.py")


def _is_faults_attr(node: ast.AST, attr: str) -> bool:
    """``faults.<attr>`` as an attribute access on the bare module name."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == _MOD
    )


def _is_armed(node: ast.AST) -> bool:
    return _is_faults_attr(node, "ARMED")


def _is_hit_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _is_faults_attr(node.func, "hit")


def check(mod: ModuleInfo) -> Iterator[Finding]:
    if mod.path.endswith(_EXEMPT_SUFFIX):
        return
    hot_names = {fn.name for fn in mod.hot_functions()}
    for fn in mod.functions():
        if fn.name in hot_names:
            # Hot path: ANY faults touchpoint is too much, guarded or not.
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == _MOD
                ):
                    yield mod.finding(
                        "failpoint-discipline",
                        node.lineno,
                        f"{fn.name}() is a hot-path function but touches "
                        f"faults.{node.attr} — failpoints belong at coarse "
                        "boundaries, not per-leaf loops",
                    )
            continue
        for node in unguarded_touches(fn.body, _is_armed, _is_hit_call):
            yield mod.finding(
                "failpoint-discipline",
                node.lineno,
                f"{fn.name}() calls faults.hit() without a "
                "`faults.ARMED is not None` guard — the disarmed path must "
                "cost one pointer check",
            )
