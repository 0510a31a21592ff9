"""snapshot-schema: engine persistence only via the versioned container.

PR 8 made the on-disk snapshot a compatibility surface: one magic-tagged,
versioned container (:mod:`repro.service.snapshot`) whose reader validates
magic, version, header shape and segment bounds before touching a byte.
Any state that bypasses the container — a bare ``pickle`` blob, an
``np.save``\\ d array next to the file — silently escapes that
versioning: the next format bump would load it wrong instead of refusing
loudly, and ``pickle.load`` on a served file is an arbitrary-code-execution
surface besides.

This rule runs on snapshot-layer modules (path ending
``service/snapshot.py``, or any module under ``service/`` importing it)
and flags inside them:

- importing an unversioned serializer: ``pickle``, ``cPickle``, ``dill``,
  ``shelve``, ``marshal``;
- calling ``np.save``/``np.savez``/``np.savez_compressed``/``np.load``
  or ``<arr>.dump``/``tofile`` — raw array files have neither magic nor
  version and bypass the container's segment table;
- registering a segment (``add_array(hint, arr)``) under a hint that is
  not a plain name: the hint is the segment's *kind* — ``inspect`` groups
  bytes by it and derives ``bytes_per_mapped_point`` from the
  ``mapped_*`` / ``node_table`` kinds, and a reference is ``hint#serial``
  — so it must be a string literal, or a lookup in a module-level table
  of string literals (the backend-array table), without ``#`` in it.

Mirrors ``wire-schema``: the wire format and the disk format are the two
schema boundaries other processes (and future versions) depend on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleInfo
from repro.analysis.findings import Finding

_BANNED_MODULES = {"pickle", "cPickle", "dill", "shelve", "marshal"}
_BANNED_NP_CALLS = {"save", "savez", "savez_compressed", "load", "fromregex"}
_BANNED_METHODS = {"dump", "dumps", "tofile"}


def _is_snapshot_module(mod: ModuleInfo) -> bool:
    path = mod.path.replace("\\", "/")
    if path.endswith("service/snapshot.py"):
        return True
    if "/service/" not in path:
        return False
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.endswith("service.snapshot"):
                return True
            if node.module and node.module.endswith("repro.service"):
                if any(alias.name == "snapshot" for alias in node.names):
                    return True
        elif isinstance(node, ast.Import):
            if any(a.name.endswith("service.snapshot") for a in node.names):
                return True
    return False


def _literal_tables(tree: ast.Module) -> dict[str, list[ast.expr]]:
    """Module-level ``NAME = {...}`` dict literals: name -> value nodes."""
    return {
        target.id: node.value.values
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _is_plain_hint(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "#" not in node.value
    )


def _bad_hint(call: ast.Call, tables: dict[str, list[ast.expr]]) -> bool:
    """Whether an ``add_array`` call registers its segment under something
    other than a plain literal kind."""
    fn = call.func
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
    if name != "add_array" or not call.args:
        return False
    hint = call.args[0]
    if isinstance(hint, ast.Subscript) and isinstance(hint.value, ast.Name):
        values = tables.get(hint.value.id)
        return values is None or not all(_is_plain_hint(v) for v in values)
    return not _is_plain_hint(hint)


def _numpy_aliases(tree: ast.AST) -> set[str]:
    names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    names.add(alias.asname or "numpy")
    return names


def check(mod: ModuleInfo) -> Iterator[Finding]:
    if not _is_snapshot_module(mod):
        return
    np_names = _numpy_aliases(mod.tree)
    tables = _literal_tables(mod.tree)
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call) and _bad_hint(node, tables):
            yield mod.finding(
                "snapshot-schema",
                node.lineno,
                "segment hint must be a string literal (or a lookup in a "
                "module-level table of them) without '#' — it is the kind "
                "`inspect` accounts bytes under",
            )
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BANNED_MODULES:
                    yield mod.finding(
                        "snapshot-schema",
                        node.lineno,
                        f"snapshot layer imports {root!r} — persist only "
                        "through the versioned container "
                        "(repro.service.snapshot save/load)",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _BANNED_MODULES:
                yield mod.finding(
                    "snapshot-schema",
                    node.lineno,
                    f"snapshot layer imports from {root!r} — persist only "
                    "through the versioned container "
                    "(repro.service.snapshot save/load)",
                )
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute):
                owner = fn.value
                if (
                    isinstance(owner, ast.Name)
                    and owner.id in np_names
                    and fn.attr in _BANNED_NP_CALLS
                ):
                    yield mod.finding(
                        "snapshot-schema",
                        node.lineno,
                        f"np.{fn.attr} writes/reads a raw unversioned array "
                        "file — snapshot arrays go through the container's "
                        "segment table",
                    )
                elif fn.attr in _BANNED_METHODS and isinstance(
                    owner, ast.Name
                ) and owner.id in _BANNED_MODULES:
                    yield mod.finding(
                        "snapshot-schema",
                        node.lineno,
                        f"{owner.id}.{fn.attr} bypasses the versioned "
                        "container — use repro.service.snapshot save/load",
                    )
