"""guarded-by: lock-protected attributes touched outside their lock.

An attribute whose initialising assignment carries ``# guarded-by: <lock>``
may only be read or written inside ``with self.<lock>:`` in that class.
This is the PR-2 bug class (the serving totals behind ``/stats`` read
without their lock, tearing ratios like qps) made mechanically checkable.

Exemptions, matching the repo's conventions:

- ``__init__`` (object not yet published to other threads);
- methods whose name ends in ``_locked`` (caller holds the lock — e.g.
  ``QueryService._rebuild_locked``);
- for declarations qualified ``[writes]``, plain reads are allowed (the
  publish-then-read-lock-free pattern: ``QueryService.executor``).

Accesses inside a function nested in a method are checked with no locks
held: the nested function may run on another thread (pool submission),
so the enclosing ``with`` cannot be assumed.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List

from repro.analysis.context import GuardDecl, ModuleInfo, with_locks
from repro.analysis.findings import Finding

_NO_LOCKS: FrozenSet[str] = frozenset()


def _exempt(name: str) -> bool:
    return name == "__init__" or name.endswith("_locked")


def check(mod: ModuleInfo) -> Iterator[Finding]:
    for cls in mod.classes():
        guarded = mod.guarded_attrs(cls)
        if not guarded:
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _exempt(stmt.name):
                    continue
                yield from _scan(mod, cls.name, stmt.name, stmt.body, guarded, _NO_LOCKS)


def _scan(
    mod: ModuleInfo,
    cls_name: str,
    fn_name: str,
    body: List[ast.stmt],
    guarded: dict,
    held: FrozenSet[str],
) -> Iterator[Finding]:
    for stmt in body:
        yield from _scan_stmt(mod, cls_name, fn_name, stmt, guarded, held)


def _scan_stmt(
    mod: ModuleInfo,
    cls_name: str,
    fn_name: str,
    stmt: ast.stmt,
    guarded: dict,
    held: FrozenSet[str],
) -> Iterator[Finding]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # Nested function: may execute on another thread, so locks held at
        # the definition site do not protect its body.
        if _exempt(stmt.name):
            return
        yield from _scan(mod, cls_name, stmt.name, stmt.body, guarded, _NO_LOCKS)
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        acquired = with_locks(stmt)
        for item in stmt.items:
            yield from _scan_expr(mod, cls_name, fn_name, item.context_expr, guarded, held)
            if item.optional_vars is not None:
                yield from _scan_expr(
                    mod, cls_name, fn_name, item.optional_vars, guarded, held
                )
        inner = held | frozenset(acquired)
        yield from _scan(mod, cls_name, fn_name, stmt.body, guarded, inner)
        return
    for field_name, value in ast.iter_fields(stmt):
        del field_name
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.stmt):
                    yield from _scan_stmt(mod, cls_name, fn_name, item, guarded, held)
                elif isinstance(item, ast.AST):
                    yield from _scan_expr(mod, cls_name, fn_name, item, guarded, held)
        elif isinstance(value, ast.AST):
            if isinstance(value, ast.stmt):
                yield from _scan_stmt(mod, cls_name, fn_name, value, guarded, held)
            else:
                yield from _scan_expr(mod, cls_name, fn_name, value, guarded, held)


def _scan_expr(
    mod: ModuleInfo,
    cls_name: str,
    fn_name: str,
    node: ast.AST,
    guarded: dict,
    held: FrozenSet[str],
) -> Iterator[Finding]:
    if isinstance(node, ast.Lambda):
        # Like nested defs: a lambda may run on another thread.
        yield from _scan_expr(mod, cls_name, fn_name, node.body, guarded, _NO_LOCKS)
        return
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in guarded
    ):
        decl: GuardDecl = guarded[node.attr]
        is_read = isinstance(node.ctx, ast.Load)
        ok = decl.lock in held or (decl.writes_only and is_read)
        if not ok:
            action = "read" if is_read else "written"
            yield mod.finding(
                "guarded-by",
                node.lineno,
                f"{cls_name}.{node.attr} is {action} in {fn_name}() outside "
                f"`with self.{decl.lock}`",
            )
    for child in ast.iter_child_nodes(node):
        yield from _scan_expr(mod, cls_name, fn_name, child, guarded, held)
