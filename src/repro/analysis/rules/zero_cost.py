"""zero-cost-when-disabled: tracer touchpoints need a None pointer check.

The observability convention (PR 6) is that every traced function takes
``tracer=None`` and the disabled path must cost one pointer comparison —
no span objects, no attribute chases.  This rule finds attribute access on
a ``tracer`` parameter (``tracer.span(...)``, ``tracer.emit(...)``) that
is not dominated by a ``tracer is not None`` check.

The guard shapes recognised — ``with tracer.span(...) if tracer is not
None else NO_SPAN [as span]:``, the one spelling of a traced stage in
``service/`` (:data:`repro.service.observability.NO_SPAN`), ``if tracer is
not None:``, an early return ``if tracer is None: return ...``,
``tracer is not None and ...``, at any nesting inside
``for`` / ``with`` / ``try`` bodies — are those of
:func:`repro.analysis.context.unguarded_touches`, the walker shared with
``failpoint-discipline``.

Passing the bare name through (``f(tracer=tracer)``) is free and allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleInfo, unguarded_touches
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

_PARAM = "tracer"


def _tracer_params(fn: ast.FunctionDef) -> bool:
    """True when *fn* takes a ``tracer`` argument defaulting to None."""
    args = fn.args
    all_args = list(args.posonlyargs) + list(args.args)
    defaults = list(args.defaults)
    # align defaults to the tail of positional args
    offset = len(all_args) - len(defaults)
    for i, a in enumerate(all_args):
        if a.arg == _PARAM:
            if i >= offset:
                d = defaults[i - offset]
                return isinstance(d, ast.Constant) and d.value is None
            return False
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if a.arg == _PARAM:
            return isinstance(d, ast.Constant) and d.value is None
    return False


def _is_tracer(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == _PARAM


def _touches_tracer(node: ast.AST) -> bool:
    """``tracer.<attr>``: an attribute chase on the parameter."""
    return isinstance(node, ast.Attribute) and _is_tracer(node.value)


@rule("zero-cost")
def check(mod: ModuleInfo) -> Iterator[Finding]:
    for fn in mod.functions():
        if not _tracer_params(fn):
            continue
        for node in unguarded_touches(fn.body, _is_tracer, _touches_tracer):
            yield mod.finding(
                "zero-cost",
                node.lineno,
                f"{fn.name}() touches {ast.unparse(node)} without a "
                "`tracer is not None` guard — the disabled path must cost one "
                "pointer check",
            )
