"""Driver-level tests: the rule table, suppressions, reporter, CLI."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, lint_source, render_text
from repro.analysis.runner import main

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = textwrap.dedent(
    """
    import threading

    class Counter:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self) -> None:
            self.count += 1
    """
)


# -- rule table ---------------------------------------------------------


def test_rule_table_is_exactly_the_five_kept_rules():
    assert set(RULES) == {
        "failpoint-discipline",
        "guarded-by",
        "hot-path",
        "snapshot-schema",
        "wire-schema",
    }


def test_unknown_rule_raises():
    with pytest.raises(KeyError, match="no-such-rule"):
        lint_source(VIOLATION, rules=["no-such-rule"])


# -- suppressions -------------------------------------------------------


def test_suppression_by_rule_name():
    src = VIOLATION.replace(
        "self.count += 1", "self.count += 1  # lint: ignore[guarded-by]"
    )
    assert lint_source(src) == []


def test_bare_suppression_silences_all_rules():
    src = VIOLATION.replace("self.count += 1", "self.count += 1  # lint: ignore")
    assert lint_source(src) == []


def test_suppression_for_other_rule_does_not_apply():
    src = VIOLATION.replace(
        "self.count += 1", "self.count += 1  # lint: ignore[hot-path]"
    )
    assert len(lint_source(src)) == 1


# -- reporter -----------------------------------------------------------


def test_render_text_format():
    findings = lint_source(VIOLATION, path="counter.py")
    text = render_text(findings)
    assert "counter.py:10: error[guarded-by]" in text
    assert text.endswith("1 finding")
    assert render_text([]).endswith("0 findings")


def test_parse_error_becomes_finding():
    (finding,) = lint_source("def broken(:\n", path="bad.py")
    assert finding.rule == "parse-error"


# -- CLI ----------------------------------------------------------------


def test_cli_exits_zero_on_current_tree():
    # The acceptance bar: the shipped source tree lints clean.
    assert main([str(REPO_ROOT / "src")]) == 0


def test_cli_exits_nonzero_on_seeded_violation(tmp_path):
    mod = tmp_path / "counter.py"
    mod.write_text(VIOLATION)
    assert main([str(mod)]) == 1


def test_repro_cli_lint_subcommand(tmp_path):
    from repro.cli import main as cli_main

    mod = tmp_path / "counter.py"
    mod.write_text(VIOLATION)
    assert cli_main(["lint", str(mod)]) == 1
    assert cli_main(["lint", str(REPO_ROOT / "src" / "repro" / "analysis")]) == 0


def test_python_dash_m_entry_point(tmp_path):
    mod = tmp_path / "counter.py"
    mod.write_text(VIOLATION)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(mod)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "guarded-by" in proc.stdout


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(VIOLATION)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    findings = lint_paths([str(tmp_path)])
    assert len(findings) == 1
    assert findings[0].file.endswith("a.py")
