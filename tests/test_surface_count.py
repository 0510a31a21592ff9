"""``scripts/surface_count.py``: the numbers the simplicity PRs quote."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "surface_count.py"


def test_a_file_argument_counts_that_file(tmp_path):
    spec = importlib.util.spec_from_file_location("surface_count", SCRIPT)
    surface_count = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(surface_count)
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
