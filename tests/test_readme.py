"""README's tables against the program: doc drift is a test failure."""

from __future__ import annotations

import argparse
import ast
import importlib
import re
from pathlib import Path

from repro.cli import build_parser
from repro.service.federation import FederatedCoordinator, _FederationRequestHandler
from repro.service.observability import ServiceObservability
from repro.service.server import _ServiceRequestHandler
from repro.service.supervisor import _AdminHandler, _SupervisorAdminHandler

README = Path(__file__).resolve().parents[1] / "README.md"

#: README's length ceiling.  A ratchet: lower it, never raise it, in the
#: change that earns it.
README_MAX_LINES = 450

#: A backticked ``VERB /path`` entry of a table cell.
_ROUTE = re.compile(r"`(GET|POST|PUT|DELETE|PATCH) (/[^`\s]*)`")


def table_rows(text: str, header: str) -> list[list[str]]:
    """The cells of each body row of the markdown table whose header row
    is ``header``."""
    lines = text.splitlines()
    start = lines.index(header) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def table_routes(text: str, header: str) -> set[tuple[str, str]]:
    """The ``(verb, path)`` pairs named in the first column of the markdown
    table whose header row is ``header``."""
    routes: set[tuple[str, str]] = set()
    for row in table_rows(text, header):
        routes.update(_ROUTE.findall(row[0]))
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


def parser_flags() -> set[tuple[str, str]]:
    """``(command, flag)`` for every leaf subcommand of ``build_parser()``
    (``"snapshot build"``); a positional argument is its name in capitals."""
    pairs: set[tuple[str, str]] = set()

    def walk(parser: argparse.ArgumentParser, command: str) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, f"{command} {name}".strip())
                return
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            names = action.option_strings or [action.dest.upper()]
            pairs.update((command, name) for name in names)

    walk(build_parser(), "")
    return pairs


def test_cli_flag_table_matches_the_parser():
    """Every flag README's command-line table names is a flag of the
    commands its row names, and every flag of every command is named."""
    documented: set[tuple[str, str]] = set()
    for commands, flags, _what in table_rows(
        README.read_text(), "| command | flags | what they set |"
    ):
        commands = re.findall(r"`([a-z][a-z -]*)`", commands)
        flags = re.findall(r"`(-[-\w]+|[A-Z]+)`", flags)
        assert commands and flags, (commands, flags)
        documented.update((c, f) for c in commands for f in flags)
    parsed = parser_flags()
    assert documented - parsed == set(), "README names flags the CLI lacks"
    assert parsed - documented == set(), "the CLI has flags README omits"


def declared_families() -> dict[str, str]:
    """Family name -> kind, for every family a node's or a coordinator's
    registry declares, whether or not it has rendered a sample yet."""
    families: dict[str, str] = {}
    for registry in (ServiceObservability().registry, FederatedCoordinator().registry):
        families.update((name, kind) for name, (kind, _help) in registry._help.items())
    return families


def test_metric_family_table_matches_the_registries():
    """README's metric table names each declared family once, with its
    kind, and no family the registries do not declare."""
    documented: dict[str, str] = {}
    for names, kind, _what in table_rows(
        README.read_text(), "| metric family | kind | what it measures |"
    ):
        for name in re.findall(r"`(repro_\w+)`", names):
            assert name not in documented, f"{name} is named twice"
            documented[name] = kind
    declared = declared_families()
    assert documented.keys() - declared.keys() == set(), (
        "README names metric families no registry declares"
    )
    assert declared.keys() - documented.keys() == set(), (
        "a registry declares metric families README omits"
    )
    assert documented == declared, "README states the wrong kind"


def test_quickstart_runs_as_written(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("## Quickstart"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    code = code[: code.index("```")]
    monkeypatch.chdir(tmp_path)  # it writes lake.snap
    exec(compile(code, "README.md#quickstart", "exec"), {})


def test_readme_stays_short():
    lines = len(README.read_text().splitlines())
    assert lines <= README_MAX_LINES, (
        f"README.md has {lines} lines, over the ceiling of {README_MAX_LINES}"
    )
