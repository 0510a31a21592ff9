"""pool-capture: closures handed to executor pools must not race.

A callable passed to ``pool.submit(...)`` runs on another thread — in
this tree the federation coordinator's scatter pool, which submits
``FederatedCoordinator._call_node_safe`` once per node (shard units are
evaluated on the calling thread and submit nothing).  Two hazards have to
be checked at the submission boundary:

- **Shared-state mutation without a lock.**  A nested function or lambda
  that mutates a variable captured from the enclosing scope (``x.append``,
  ``d[k] = v``), or a method mutating ``self`` state, races against the
  submitting thread unless the mutation happens inside ``with <lock>``.
- **Spans off the request thread.**  A ``Tracer`` is one plain stack
  owned by the thread that runs the traced batch — no lock, no
  thread-local — so a pool-submitted callable opens no span.  The
  coordinator opens its ``scatter`` span on the submitting thread, around
  the fan-out, and none inside the RPC task.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from repro.analysis.context import ModuleInfo
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "update",
    "extend",
    "insert",
    "pop",
    "popleft",
    "setdefault",
    "clear",
    "remove",
    "discard",
}

_Callable = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _is_lockish(expr: ast.expr) -> bool:
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    return name is not None and "lock" in name.lower()


def _local_names(fn: _Callable) -> Set[str]:
    """Names bound inside *fn*: parameters plus anything stored to."""
    args = fn.args
    names = {
        a.arg
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
    }
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


def _submitted(call: ast.Call) -> Optional[ast.expr]:
    """The callable of ``<pool>.submit(callable, ...)``, if this is one."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr == "submit" and call.args:
        return call.args[0]
    return None


@rule("pool-capture")
def check(mod: ModuleInfo) -> Iterator[Finding]:
    for scope in mod.functions():
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            target = _submitted(node)
            if target is None:
                continue
            resolved = _resolve(mod, scope, target)
            if resolved is None:
                continue
            name, fn = resolved
            yield from _check_callable(mod, name, fn)


def _resolve(mod: ModuleInfo, scope: ast.FunctionDef, target: ast.expr):
    if isinstance(target, ast.Lambda):
        return "<lambda>", target
    if isinstance(target, ast.Name):
        for node in ast.walk(scope):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == target.id
            ):
                return node.name, node
        for fn in mod.functions():
            if fn.name == target.id:
                return fn.name, fn
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        for cls in mod.classes():
            methods = {
                s.name: s
                for s in cls.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if scope.name in methods and target.attr in methods:
                return target.attr, methods[target.attr]
    return None


def _check_callable(mod: ModuleInfo, name: str, fn: _Callable) -> Iterator[Finding]:
    locals_ = _local_names(fn)
    body: List[ast.stmt]
    if isinstance(fn, ast.Lambda):
        body = [ast.Expr(value=fn.body)]
    else:
        body = fn.body
    yield from _scan(mod, name, body, locals_, locked=False)


def _scan(
    mod: ModuleInfo, name: str, body: List[ast.stmt], locals_: Set[str], locked: bool
) -> Iterator[Finding]:
    for stmt in body:
        yield from _scan_node(mod, name, stmt, locals_, locked)


def _scan_node(
    mod: ModuleInfo, name: str, node: ast.AST, locals_: Set[str], locked: bool
) -> Iterator[Finding]:
    if isinstance(node, (ast.With, ast.AsyncWith)):
        inner = locked or any(_is_lockish(item.context_expr) for item in node.items)
        for item in node.items:
            yield from _scan_node(mod, name, item.context_expr, locals_, locked)
        yield from _scan(mod, name, node.body, locals_, inner)
        return
    if not locked:
        yield from _mutation_findings(mod, name, node, locals_)
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr == "span":
            yield mod.finding(
                "pool-capture",
                node.lineno,
                f"{name}() runs on a pool thread but opens a span (a tracer's "
                "span stack belongs to the request thread alone)",
            )
    for child in ast.iter_child_nodes(node):
        yield from _scan_node(mod, name, child, locals_, locked)


def _shared_base(node: ast.expr, locals_: Set[str]) -> Optional[str]:
    """Shared-state label when *node* is captured or ``self`` state."""
    if isinstance(node, ast.Name) and node.id not in locals_ and node.id != "self":
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _mutation_findings(
    mod: ModuleInfo, name: str, node: ast.AST, locals_: Set[str]
) -> Iterator[Finding]:
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
    elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
        targets = [node.target]
    for target in targets:
        shared = _shared_base(target.value, locals_)
        if shared is not None:
            yield mod.finding(
                "pool-capture",
                node.lineno,
                f"{name}() runs on a pool thread and writes {shared}[...] "
                "without holding a lock",
            )
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in _MUTATORS:
            shared = _shared_base(fn.value, locals_)
            if shared is not None:
                yield mod.finding(
                    "pool-capture",
                    node.lineno,
                    f"{name}() runs on a pool thread and mutates {shared} "
                    f"via .{fn.attr}() without holding a lock",
                )
