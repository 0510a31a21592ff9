"""README's tables against the program: doc drift is a test failure."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

from repro.service.federation import _FederationRequestHandler
from repro.service.server import _ServiceRequestHandler
from repro.service.supervisor import _AdminHandler, _SupervisorAdminHandler

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



def test_coordinator_endpoint_table_matches_the_coordinator_routes():
    documented = table_routes(
        README.read_text(), "| coordinator endpoint | what it serves |"
    )
    served = set(_FederationRequestHandler.routes)
    assert documented - served == set(), "README names routes the coordinator lacks"
    assert served - documented == set(), "the coordinator serves routes README omits"


def test_supervisor_admin_tables_match_the_admin_routes():
    """The parent's admin port, and a worker's private admin port: the
    node's routes (the table's ``every node route`` row) plus what the
    table names."""
    text = README.read_text()
    documented = table_routes(text, "| supervisor admin endpoint | what it serves |")
    served = set(_SupervisorAdminHandler.routes)
    assert documented - served == set(), "README names routes the supervisor lacks"
    assert served - documented == set(), "the supervisor serves routes README omits"
    worker = table_routes(text, "| worker admin endpoint | what it serves |")
    served = set(_AdminHandler.routes) - set(_ServiceRequestHandler.routes)
    assert worker - served == set(), "README names admin routes a worker lacks"
    assert served - worker == set(), "a worker serves admin routes README omits"


def test_constants_table_matches_the_modules():
    """Every constant README's "Constants, not flags" table names exists in
    the module its row names, with the value the row states."""
    lines = README.read_text().splitlines()
    start = lines.index("| constant | value | module | why this value |") + 2
    checked = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names, values, module = (cell.strip() for cell in line.split("|")[1:4])
        names = re.findall(r"`(\w+)`", names)
        values = ast.literal_eval(f"({values},)")
        module = importlib.import_module(module.strip("`"))
        assert len(names) == len(values), line
        for name, value in zip(names, values):
            assert getattr(module, name) == value, f"{module.__name__}.{name}"
            checked.append(name)
    assert len(checked) == len(set(checked)) > 0
