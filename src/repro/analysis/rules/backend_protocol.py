"""backend-protocol: registered backends must implement the full contract.

PR 3's equivalence suite catches protocol drift only at runtime and only
for the behaviours it exercises.  This rule checks statically, from the
registry module itself (the module defining ``RangeSearchBackend`` and the
``backend_class`` name-to-class chain that ``build_backend`` and
``restore_backend`` share — or, fixture style, a ``build_backend`` that
holds the chain itself), that every registered engine class:

- defines every protocol method — queries, group toggles, dynamics —
  with a signature the protocol's callers can use
  (same leading parameter names; extra parameters need defaults);
- exposes ``nbytes`` (whatever the protocol declares as one) as a
  property;
- if listed in ``DYNAMIC_ENGINES`` — the engines the serving layer runs
  and snapshots — carries the persistence pair: a ``to_arrays`` method and
  a ``from_arrays`` classmethod.  The pair is not in the protocol (a
  static engine has no persisted form), and ``restore_backend`` calls the
  class half by name — on whatever arrays the backend chose to persist
  (the kd-tree's rank codes and level tables) — so a missing half is
  found at the first snapshot save or restore otherwise.

Which engines are dynamic is said by ``DYNAMIC_ENGINES`` alone (no
backend member repeats it), so the rule reads that tuple and nothing
else for it.

Engine classes are resolved first in the registry module itself (fixture
style), then from the sibling file named by the registry's local
``from repro.index.<mod> import <Class>`` imports.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.context import ModuleInfo
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

_PROTOCOL = "RangeSearchBackend"
#: Functions that may hold the ``if engine == "name"`` chain, in lookup order.
_REGISTRY_FNS = ("backend_class", "build_backend")


def _finding(path: str, line: int, message: str) -> Finding:
    """A finding in ``path`` — the registry module or an engine's sibling
    file (``ModuleInfo.finding`` only reports against the module itself)."""
    return Finding(
        file=path, line=line, rule="backend-protocol", severity="error",
        message=message,
    )


def _arg_names(fn: ast.FunctionDef) -> Tuple[List[str], int]:
    """(names after self, number of trailing names that have defaults)."""
    names = [a.arg for a in list(fn.args.posonlyargs) + list(fn.args.args)]
    if names and names[0] == "self":
        names = names[1:]
    return names, len(fn.args.defaults)


def _has_decorator(fn: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


def _is_property(fn: ast.FunctionDef) -> bool:
    return _has_decorator(fn, "property")


def _class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _registered_engines(fn: ast.FunctionDef) -> Dict[str, Tuple[str, Optional[str]]]:
    """engine name -> (class name, source module) from the registry chain
    (each arm returns the class or a call of it)."""
    out: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "engine"
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.comparators[0], ast.Constant)
        ):
            continue
        engine = test.comparators[0].value
        module = None
        cls_name = None
        for stmt in node.body:
            if isinstance(stmt, ast.ImportFrom):
                module = stmt.module
            if isinstance(stmt, ast.Return):
                value = stmt.value
                callee = value.func if isinstance(value, ast.Call) else value
                if isinstance(callee, ast.Name):
                    cls_name = callee.id
        if isinstance(engine, str) and cls_name:
            out[engine] = (cls_name, module)
    return out


def _dynamic_engines(mod: ModuleInfo) -> set:
    for node in mod.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "DYNAMIC_ENGINES":
                    if isinstance(node.value, (ast.Tuple, ast.List)):
                        return {
                            el.value
                            for el in node.value.elts
                            if isinstance(el, ast.Constant)
                        }
    return set()


def _resolve_class(
    mod: ModuleInfo, cls_name: str, module: Optional[str]
) -> Tuple[Optional[ast.ClassDef], str]:
    """Find the engine ClassDef: same module first, then sibling file."""
    for cls in mod.classes():
        if cls.name == cls_name:
            return cls, mod.path
    if module:
        sibling = os.path.join(
            os.path.dirname(os.path.abspath(mod.path)), module.rsplit(".", 1)[-1] + ".py"
        )
        try:
            with open(sibling, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=sibling)
        except (OSError, SyntaxError):
            return None, sibling
        rel = os.path.join(os.path.dirname(mod.path), os.path.basename(sibling))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == cls_name:
                return node, rel
    return None, mod.path


@rule("backend-protocol")
def check(mod: ModuleInfo) -> Iterator[Finding]:
    protocol = None
    registry = None
    for cls in mod.classes():
        if cls.name == _PROTOCOL:
            protocol = cls
    functions = {fn.name: fn for fn in mod.functions()}
    for name in reversed(_REGISTRY_FNS):
        registry = functions.get(name, registry)
    if protocol is None or registry is None:
        return

    proto_methods = _class_methods(protocol)
    proto_props = {n for n, f in proto_methods.items() if _is_property(f)}
    dynamic = _dynamic_engines(mod)

    for engine, (cls_name, module) in sorted(_registered_engines(registry).items()):
        cls, path = _resolve_class(mod, cls_name, module)
        if cls is None:
            yield mod.finding(
                "backend-protocol",
                registry.lineno,
                f"engine {engine!r}: cannot resolve class {cls_name} "
                f"(looked in this module and {path})",
            )
            continue
        impl = _class_methods(cls)
        for name, proto_fn in sorted(proto_methods.items()):
            if name not in impl:
                yield _finding(
                    path,
                    cls.lineno,
                    f"{cls_name} (engine {engine!r}) is missing "
                    f"RangeSearchBackend.{name}",
                )
                continue
            impl_fn = impl[name]
            if name in proto_props:
                if not _is_property(impl_fn):
                    yield _finding(
                        path,
                        impl_fn.lineno,
                        f"{cls_name}.{name} must be a @property "
                        "(the protocol declares it as one)",
                    )
                continue
            proto_args, _ = _arg_names(proto_fn)
            impl_args, n_defaults = _arg_names(impl_fn)
            required = impl_args[: len(impl_args) - n_defaults]
            compatible = (
                impl_args[: len(proto_args)] == proto_args
                and len(required) <= len(proto_args)
            )
            if not compatible:
                yield _finding(
                    path,
                    impl_fn.lineno,
                    f"{cls_name}.{name}({', '.join(impl_args)}) is not "
                    f"call-compatible with RangeSearchBackend.{name}"
                    f"({', '.join(proto_args)})",
                )
        restore = impl.get("from_arrays")
        if engine in dynamic and "to_arrays" not in impl:
            yield _finding(
                path,
                cls.lineno,
                f"{cls_name} (engine {engine!r}) is listed in "
                "DYNAMIC_ENGINES but defines no to_arrays — a serving "
                "engine must have a persisted form",
            )
        elif engine in dynamic and (
            restore is None or not _has_decorator(restore, "classmethod")
        ):
            yield _finding(
                path,
                impl["to_arrays"].lineno,
                f"{cls_name} (engine {engine!r}) defines to_arrays but no "
                "from_arrays classmethod — restore_backend cannot adopt "
                "what it persists",
            )
