"""hot-path: warm-path functions must stay allocation- and syscall-lean.

Functions marked ``# lint: hot-path`` on their ``def`` line are the ones
profiling has shown dominate serving latency (``Histogram.observe``, the
``DatasetBitmap`` word ops, ``eval_leaf_batch_bits``, the kd-tree's
multi-box walk ``DynamicKDTree._walk_many``, the result-cache and
plan-cache hit paths).  This rule flags the regressions that have actually
cost QPS here before (PR 6 rewrote ``Histogram.observe`` off numpy for
exactly these reasons):

- building a list/set/dict (display or comprehension) inside a loop;
- acquiring a lock inside a loop (one acquisition per call is fine);
- any logging call;
- per-item numpy scalar extraction in a loop (``float(x[i])``,
  ``arr[i].item()``) — vectorise instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleInfo
from repro.analysis.findings import Finding

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_DISPLAYS = (ast.List, ast.Set, ast.Dict)
_LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical", "log"}


def _is_lockish(expr: ast.expr) -> bool:
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    return name is not None and "lock" in name.lower()


def _is_log_call(call: ast.Call) -> bool:
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr in _LOG_METHODS):
        return False
    owner = fn.value
    owner_name = None
    if isinstance(owner, ast.Name):
        owner_name = owner.id
    elif isinstance(owner, ast.Attribute):
        owner_name = owner.attr
    return owner_name is not None and "log" in owner_name.lower()


def _has_subscript(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Subscript) for n in ast.walk(node))


def check(mod: ModuleInfo) -> Iterator[Finding]:
    for fn in mod.hot_functions():
        yield from _scan(mod, fn.name, fn.body, in_loop=False)


def _scan(mod: ModuleInfo, fn_name: str, body, in_loop: bool) -> Iterator[Finding]:
    for stmt in body:
        yield from _scan_node(mod, fn_name, stmt, in_loop)


def _scan_node(
    mod: ModuleInfo, fn_name: str, node: ast.AST, in_loop: bool
) -> Iterator[Finding]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return  # nested defs are their own (cold) call sites
    if isinstance(node, _LOOPS):
        for child in ast.iter_child_nodes(node):
            yield from _scan_node(mod, fn_name, child, in_loop=True)
        return
    if in_loop and isinstance(node, _DISPLAYS + _COMPS):
        kind = type(node).__name__.lower().replace("comp", " comprehension")
        yield mod.finding(
            "hot-path",
            node.lineno,
            f"{fn_name}() allocates a {kind} inside a loop on the hot path",
        )
        # still recurse: a comprehension may hide more violations
    if isinstance(node, (ast.With, ast.AsyncWith)) and in_loop:
        if any(_is_lockish(item.context_expr) for item in node.items):
            yield mod.finding(
                "hot-path",
                node.lineno,
                f"{fn_name}() acquires a lock inside a loop on the hot path "
                "(hoist the acquisition out of the loop)",
            )
    if isinstance(node, ast.Call):
        if _is_log_call(node):
            yield mod.finding(
                "hot-path",
                node.lineno,
                f"{fn_name}() logs on the hot path",
            )
        if in_loop:
            fn = node.func
            if (
                isinstance(fn, ast.Name)
                and fn.id in ("float", "int")
                and node.args
                and _has_subscript(node.args[0])
            ):
                yield mod.finding(
                    "hot-path",
                    node.lineno,
                    f"{fn_name}() extracts a scalar per item "
                    f"({fn.id}(...[...])) inside a loop — vectorise instead",
                )
            if isinstance(fn, ast.Attribute) and fn.attr == "item":
                yield mod.finding(
                    "hot-path",
                    node.lineno,
                    f"{fn_name}() calls .item() inside a loop — vectorise instead",
                )
    comp_loop = in_loop or isinstance(node, _COMPS)
    for child in ast.iter_child_nodes(node):
        yield from _scan_node(mod, fn_name, child, in_loop=comp_loop)
