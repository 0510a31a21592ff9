"""Surface counts of a source tree: lines, public names, options.

The simplicity PRs quote three numbers per directory; this is the script
that produces them (stdlib ``ast`` only, nothing imported from the tree):

- **lines** — ``cat $(find DIR -name '*.py') | wc -l``;
- **public names** — module-level public ``def`` / ``class`` / assignment
  targets, plus the public methods (properties included) of module-level
  classes;
- **options** — parameters with a default value on public functions,
  public methods and ``__init__``.

Public means no leading underscore.  Run from the repo root:
``python scripts/surface_count.py src/repro/service src/repro``; an
argument that is a file counts that file, for per-module numbers.
Informational: prints one line per argument and exits 0, or exits 2
naming a path that does not exist, so a mistyped directory never counts
as an empty one.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _options(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def count(target: Path) -> tuple[int, int, int]:
    """``(lines, public names, options)`` of one file, or over every
    ``*.py`` below a directory.  A path that does not exist raises
    :class:`FileNotFoundError`."""
    if not target.exists():
        raise FileNotFoundError(f"no such file or directory: {target}")
    lines = names = options = 0
    for path in [target] if target.is_file() else sorted(target.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines += source.count("\n")
        for node in ast.parse(source).body:
            if isinstance(node, _DEFS) and _public(node.name):
                names += 1
                options += _options(node)
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                names += 1
                for item in node.body:
                    if isinstance(item, _DEFS) and (
                        _public(item.name) or item.name == "__init__"
                    ):
                        names += _public(item.name)
                        options += _options(item)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += sum(
                    isinstance(t, ast.Name) and _public(t.id) for t in targets
                )
    return lines, names, options


def main(argv: list[str]) -> int:
    for directory in argv or ["src/repro"]:
        try:
            lines, names, options = count(Path(directory))
        except FileNotFoundError as exc:
            print(f"surface_count: {exc}", file=sys.stderr)
            return 2
        print(f"{directory}: {lines} lines, {names} public names, {options} options")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
