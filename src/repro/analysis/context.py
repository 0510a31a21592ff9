"""Parsed-module context shared by every rule.

A :class:`ModuleInfo` bundles the AST with the comment-borne annotations
that the AST itself cannot see (``ast`` drops comments): suppressions,
``# guarded-by`` declarations, and ``# lint: hot-path`` markers.  Comments
are recovered with :mod:`tokenize` so they are attached to exact lines.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([^\]]*)\])?")
_GUARD_RE = re.compile(
    r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)(\s*\[\s*writes\s*\])?"
)
_HOT_RE = re.compile(r"#\s*lint:\s*hot-path")


@dataclass(frozen=True)
class GuardDecl:
    """One ``# guarded-by: <lock>`` comment."""

    lock: str
    writes_only: bool


@dataclass
class ModuleInfo:
    """One source file, parsed once and handed to every rule."""

    path: str
    source: str
    tree: ast.Module
    # line -> rules suppressed on that line ("*" suppresses all)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    # line -> guard declaration found in a trailing comment on that line
    guard_decls: Dict[int, GuardDecl] = field(default_factory=dict)
    # lines bearing "# lint: hot-path"
    hot_lines: Set[int] = field(default_factory=set)

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=path)
        info = cls(path=path, source=source, tree=tree)
        info._scan_comments()
        return info

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                line = tok.start[0]
                text = tok.string
                m = _IGNORE_RE.search(text)
                if m:
                    rules = m.group(1)
                    names = (
                        {r.strip() for r in rules.split(",") if r.strip()}
                        if rules
                        else {"*"}
                    )
                    self.suppressions.setdefault(line, set()).update(names)
                m = _GUARD_RE.search(text)
                if m:
                    self.guard_decls[line] = GuardDecl(
                        lock=m.group(1), writes_only=bool(m.group(2))
                    )
                if _HOT_RE.search(text):
                    self.hot_lines.add(line)
        except tokenize.TokenError:
            # A file that tokenizes badly still parsed above; run rules
            # without comment annotations rather than crashing the linter.
            pass

    def finding(
        self, rule: str, line: int, message: str, severity: str = "error"
    ) -> Finding:
        return Finding(
            file=self.path, line=line, rule=rule, severity=severity, message=message
        )

    def suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "*" in rules or finding.rule in rules

    # -- AST helpers shared by rules ------------------------------------

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def functions(self) -> Iterator[ast.FunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def hot_functions(self) -> Iterator[ast.FunctionDef]:
        """Functions marked ``# lint: hot-path`` on their signature lines."""
        for fn in self.functions():
            sig_end = max(fn.lineno, fn.body[0].lineno - 1) if fn.body else fn.lineno
            if any(line in self.hot_lines for line in range(fn.lineno, sig_end + 1)):
                yield fn

    def guarded_attrs(self, cls: ast.ClassDef) -> Dict[str, GuardDecl]:
        """``self.X`` attributes declared ``# guarded-by`` inside *cls*.

        The declaration comment must sit on the line of an assignment
        whose target is ``self.X`` (normally in ``__init__``).
        """
        out: Dict[str, GuardDecl] = {}
        for node in ast.walk(cls):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                decl = self._decl_on(node)
                if decl is None:
                    continue
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out[target.attr] = decl
        return out

    def _decl_on(self, node: ast.stmt) -> Optional[GuardDecl]:
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        for line in range(node.lineno, end + 1):
            decl = self.guard_decls.get(line)
            if decl is not None:
                return decl
        return None


def self_attr(node: ast.AST, *, attr: Optional[str] = None) -> Optional[str]:
    """Return ``X`` when *node* is ``self.X`` (optionally requiring X)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        if attr is None or node.attr == attr:
            return node.attr
    return None


def with_locks(stmt: ast.stmt) -> Tuple[str, ...]:
    """Lock attributes acquired by a ``with self.<lock>:`` statement."""
    if not isinstance(stmt, (ast.With, ast.AsyncWith)):
        return ()
    names = []
    for item in stmt.items:
        name = self_attr(item.context_expr)
        if name is not None:
            names.append(name)
    return tuple(names)


def unguarded_touches(
    body: List[ast.stmt],
    is_subject: Callable[[ast.AST], bool],
    is_touch: Callable[[ast.AST], bool],
) -> Iterator[ast.AST]:
    """The nodes of a function *body* that ``is_touch`` accepts and that no
    ``<subject> is not None`` check dominates — the zero-cost-when-disabled
    discipline of the failpoints (``failpoint-discipline``); ``is_subject``
    recognises the expression compared with ``None``.  Guard shapes:

    - ``if <subject> is not None: ...`` (the body is guarded);
    - ``if <subject> is None: return ...`` (everything after is guarded;
      ``raise`` / ``continue`` / ``break`` terminate a body too);
    - ``touch if <subject> is not None else other``;
    - ``<subject> is not None and touch`` short-circuits.

    Statement lists nested in ``for`` / ``while`` / ``with`` / ``try``
    bodies and handlers follow the same rules, so a guard inside them
    dominates what follows it there.  Nested ``def``s are not entered:
    they are functions in their own right.
    """

    def check(test: ast.AST) -> Optional[bool]:
        """True for ``subject is not None``, False for ``subject is None``."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and is_subject(test.left)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return isinstance(test.ops[0], ast.IsNot)
        return None

    def scan_body(stmts: List[ast.stmt], guarded: bool) -> Iterator[ast.AST]:
        for stmt in stmts:
            if isinstance(stmt, ast.If) and (positive := check(stmt.test)) is not None:
                yield from scan_body(stmt.body, guarded or positive)
                yield from scan_body(stmt.orelse, guarded or not positive)
                if not positive and stmt.body and isinstance(
                    stmt.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
                ):
                    guarded = True
            else:
                yield from scan_node(stmt, guarded)

    def scan_node(node: ast.AST, guarded: bool) -> Iterator[ast.AST]:
        """A statement, or a part of one that is not an expression (an
        ``except`` handler, a ``with`` item, a ``match`` case)."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        for _name, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                yield from scan_body(value, guarded)
                continue
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, ast.expr):
                    yield from scan_expr(item, guarded)
                elif isinstance(item, ast.AST):
                    yield from scan_node(item, guarded)

    def scan_expr(node: ast.AST, guarded: bool) -> Iterator[ast.AST]:
        if isinstance(node, ast.IfExp) and (positive := check(node.test)) is not None:
            yield from scan_expr(node.body, guarded or positive)
            yield from scan_expr(node.orelse, guarded or not positive)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            for value in node.values:
                yield from scan_expr(value, guarded)
                guarded = guarded or check(value) is True
            return
        if not guarded and is_touch(node):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from scan_expr(child, guarded)

    return scan_body(body, False)
