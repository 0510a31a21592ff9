"""wire-schema: HTTP handlers read bodies through the field tables and ship
timing only as start-relative seconds.

PR 6 fixed the serving wire format: ``perf_counter`` stamps are
process-local, so handlers must never emit them raw.  Timing goes on the
wire as offsets from the query/batch start (``emit_times``) or as spans
(``duration_s``) — both computed by subtracting the start stamp on the
same clock.

This rule runs on HTTP-server modules — any module defining a subclass
of ``BaseHTTPRequestHandler`` or of the repo's one envelope over it,
``JsonRequestHandler`` (:mod:`repro.service.server`) — and flags:

- a wire key named ``start_time``/``end_time`` at all — absolute stamps
  have no meaning off-process;
- a timing key (``emit_times``, ``duration_s``, ``*_s`` holding a
  ``.emit_times``/``.end_time``/``.start_time`` attribute) whose value
  contains no subtraction — i.e. raw stamps about to be serialised;
- a route function — a value of a ``routes`` / ``*_routes`` dict — that
  subscripts or ``.get()``s its body parameter: every inbound field is
  read by ``repro.wire.decode`` through a table (PR 21), so a field read
  around it has no type, no range and no generated hostile case.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.context import ModuleInfo
from repro.analysis.findings import Finding

_ABSOLUTE_KEYS = {"start_time", "end_time"}
_TIMING_KEYS = {"emit_times", "duration_s"}
_STAMP_ATTRS = {"emit_times", "start_time", "end_time"}
_HANDLER_BASES = {"BaseHTTPRequestHandler", "JsonRequestHandler"}


def _is_handler_module(mod: ModuleInfo) -> bool:
    for cls in mod.classes():
        for base in cls.bases:
            base_name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if base_name in _HANDLER_BASES:
                return True
    return False


def _contains_sub(expr: ast.expr) -> bool:
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
        for n in ast.walk(expr)
    )


def _raw_stamp(expr: ast.expr) -> Optional[str]:
    """The first raw stamp attribute in *expr*, when nothing subtracts."""
    if _contains_sub(expr):
        return None
    for n in ast.walk(expr):
        if isinstance(n, ast.Attribute) and n.attr in _STAMP_ATTRS:
            return n.attr
    return None


def _wire_items(tree: ast.AST) -> Iterator[Tuple[str, ast.expr, int]]:
    """(key, value, line) for dict-literal entries and ``d[key] = value``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value, value, value.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    yield target.slice.value, node.value, node.lineno


def _body_reads(tree: ast.AST) -> Iterator[Tuple[str, str, int]]:
    """(route function, body parameter, line) per direct read of a route's
    body: ``body[...]`` or ``body.get(...)``."""
    routed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and any(
            isinstance(t, ast.Name) and t.id.endswith("routes") for t in node.targets
        ):
            routed |= {v.id for v in node.value.values if isinstance(v, ast.Name)}
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in routed):
            continue
        if len(fn.args.args) < 2:  # a GET route: (handler) only
            continue
        body = fn.args.args[1].arg
        for node in ast.walk(fn):
            read = isinstance(node, ast.Subscript) or (
                isinstance(node, ast.Attribute) and node.attr == "get"
            )
            if read and isinstance(node.value, ast.Name) and node.value.id == body:
                yield fn.name, body, node.lineno


def check(mod: ModuleInfo) -> Iterator[Finding]:
    if not _is_handler_module(mod):
        return
    for route, body, line in _body_reads(mod.tree):
        yield mod.finding(
            "wire-schema",
            line,
            f"route {route}() reads {body!r} directly — read through "
            "wire.decode and a field table, so the field has a type, a range "
            "and a generated hostile case",
        )
    for key, value, line in _wire_items(mod.tree):
        if key in _ABSOLUTE_KEYS:
            yield mod.finding(
                "wire-schema",
                line,
                f"wire field {key!r} is an absolute clock stamp — the schema "
                "allows only start-relative seconds (emit_times, duration_s)",
            )
            continue
        if key in _TIMING_KEYS or key.endswith("_s"):
            raw = _raw_stamp(value)
            if raw is not None:
                yield mod.finding(
                    "wire-schema",
                    line,
                    f"wire field {key!r} carries raw .{raw} stamps — subtract "
                    "the batch/query start so the wire sees relative seconds",
                )
