"""``scripts/surface_count.py``: the numbers the simplicity PRs quote."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "surface_count.py"

#: directory -> (options, public names + options) it may not exceed.
CEILINGS = {
    "src/repro": (253, 939),
    "src/repro/analysis": (5, 29),
    "src/repro/index": (8, 90),
    "src/repro/service": (106, 293),
}


@pytest.fixture(scope="module")
def surface_count():
    spec = importlib.util.spec_from_file_location("surface_count", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("directory", sorted(CEILINGS))
def test_the_surface_only_shrinks(surface_count, directory):
    """A ratchet: lower — never raise — a ceiling, in the PR that earns it."""
    _lines, names, options = surface_count.count(REPO / directory)
    max_options, max_surface = CEILINGS[directory]
    assert options <= max_options, (
        f"{directory} has {options} options, over the ceiling of "
        f"{max_options}: a defaulted parameter needs a call site outside "
        "tests/ that sets it, else it is a module constant"
    )
    assert names + options <= max_surface, (
        f"{directory}: public names + options = {names + options}, over "
        f"the ceiling of {max_surface}"
    )


def test_a_file_argument_counts_that_file(surface_count, tmp_path):
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text(
        "LIMIT = 3\n"
        "_hidden = 0\n"
        "def run(a, b=1, *, c=2):\n    pass\n"
        "class Thing:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def go(self, y=None):\n        pass\n"
        "    def _skip(self, z=1):\n        pass\n"
    )
    # 11 lines; LIMIT, run, Thing, Thing.go; b, c, x, y.
    assert surface_count.count(module) == (11, 4, 4)
    assert surface_count.count(module) == surface_count.count(module.parent)


@pytest.mark.parametrize("missing", ["src/repro/servce", "--help"])
def test_a_missing_path_is_an_error_not_zero(surface_count, missing, capsys):
    """A renamed or mistyped directory in ``CEILINGS`` must fail the
    ratchet, not pass it with 0 options."""
    with pytest.raises(FileNotFoundError):
        surface_count.count(REPO / missing)
    assert surface_count.main([str(REPO / "src/repro"), str(REPO / missing)]) == 2
    out, err = capsys.readouterr()
    assert missing in err and missing not in out
