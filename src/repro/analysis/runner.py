"""Lint driver: the rule table, file discovery, rule execution, reporting.

Entry points:

- :func:`lint_paths` / :func:`lint_source` — programmatic API;
- :func:`main` — the ``repro lint`` / ``python -m repro.analysis`` CLI.

Exit codes: 0 clean, 1 findings.  A file that fails to parse produces a
``parse-error`` finding instead of crashing the run, so one broken file
cannot mask findings elsewhere.
"""

from __future__ import annotations

import argparse
import os
from typing import Callable, Iterable, List, Optional, Sequence

from repro.analysis.context import ModuleInfo
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    failpoint_discipline,
    guarded_by,
    hot_path,
    snapshot_schema,
    wire_schema,
)

#: Every rule, by the name its findings and ``# lint: ignore[...]`` carry.
RULES: dict[str, Callable[[ModuleInfo], Iterable[Finding]]] = {
    "failpoint-discipline": failpoint_discipline.check,
    "guarded-by": guarded_by.check,
    "hot-path": hot_path.check,
    "snapshot-schema": snapshot_schema.check,
    "wire-schema": wire_schema.check,
}


def _discover(paths: Sequence[str]) -> List[str]:
    """Python files under *paths* (files kept as-is, dirs walked)."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return out


def lint_source(
    source: str, path: str = "<string>", rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint one in-memory module (the fixture-test entry point); ``rules``
    names a subset of :data:`RULES` (an unknown name is a ``KeyError``)."""
    active = RULES if rules is None else {name: RULES[name] for name in rules}
    try:
        mod = ModuleInfo.parse(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                file=path,
                line=exc.lineno or 1,
                rule="parse-error",
                severity="error",
                message=f"cannot parse: {exc.msg}",
            )
        ]
    findings: List[Finding] = []
    for fn in active.values():
        for finding in fn(mod):
            if not mod.suppressed(finding):
                findings.append(finding)
    return sorted(set(findings))


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under *paths*."""
    findings: List[Finding] = []
    for file in _discover(paths):
        try:
            with open(file, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            findings.append(
                Finding(
                    file=file,
                    line=1,
                    rule="parse-error",
                    severity="error",
                    message=f"cannot read: {exc}",
                )
            )
            continue
        findings.extend(lint_source(source, path=file))
    return sorted(set(findings))


def render_text(findings: Sequence[Finding]) -> str:
    lines = [f.render() for f in findings]
    n = len(findings)
    lines.append(f"{n} finding{'s' if n != 1 else ''}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checks (lock discipline, hot-path "
        "purity, failpoint guards, wire and snapshot schemas)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    findings = lint_paths(parser.parse_args(argv).paths)
    print(render_text(findings))
    return 1 if findings else 0
