"""Finding: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """A single lint result.

    Ordered by (file, line, rule) so reports are deterministic regardless
    of rule execution order.
    """

    file: str
    line: int
    rule: str
    severity: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.severity}[{self.rule}] {self.message}"
