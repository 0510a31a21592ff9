"""README's tables against the program: doc drift is a test failure."""

from __future__ import annotations

import re
from pathlib import Path

from repro.service.server import _ServiceRequestHandler

README = Path(__file__).resolve().parents[1] / "README.md"

#: A backticked ``VERB /path`` entry of a table cell.
_ROUTE = re.compile(r"`(GET|POST|PUT|DELETE|PATCH) (/[^`\s]*)`")


def table_routes(text: str, header: str) -> set[tuple[str, str]]:
    """The ``(verb, path)`` pairs named in the first column of the markdown
    table whose header row is ``header``."""
    lines = text.splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    routes: set[tuple[str, str]] = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first_cell = line.split("|")[1]
        routes.update(_ROUTE.findall(first_cell))
    return routes


def test_node_endpoint_table_matches_the_node_routes():
    """Every route README's node table names is served, and every route
    the node serves is in the table."""
    documented = table_routes(README.read_text(), "| endpoint | what it serves |")
    served = set(_ServiceRequestHandler.routes)
    assert documented - served == set(), "README names routes the node lacks"
    assert served - documented == set(), "the node serves routes README omits"

