"""What a serving process loads: the package namespaces are lazy, so a
node imports the modules it serves and no more, and building an index
never loads ``numpy.ma``.  Each check runs in a fresh interpreter, since
this one has imported everything the other tests touch."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.geometry",
    "repro.index",
    "repro.lowerbounds",
    "repro.service",
    "repro.synopsis",
    "repro.workloads",
]

#: Modules a node never needs before its first request: the forked fleet,
#: snapshots, the demo lakes, the bench harness, the linter, and the
#: synopsis wire codec (no route takes a synopsis).
NOT_SERVED = [
    "repro.service.supervisor",
    "repro.service.snapshot",
    "repro.workloads.opendata",
    "repro.bench",
    "repro.analysis",
    "repro.synopsis.serialize",
]


def fresh(code: str) -> object:
    """Run ``code`` in a new interpreter over ``src``; the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_node_imports_only_what_it_serves():
    loaded = fresh(
        "import json, sys\n"
        "from repro.cli import build_parser\n"
        "import repro.service.server, repro.service.federation\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    assert "repro.service.server" in loaded
    assert not set(NOT_SERVED) & set(loaded)


#: The node stack a coordinator never runs: it forwards leaves to nodes
#: and merges their bitsets, so it builds no service, shard, engine or
#: rectangle enumeration of its own.
NODE_STACK = [
    "repro.service.service",
    "repro.service.sharding",
    "repro.core.engine",
    "repro.geometry.rect_enum",
]


def test_a_coordinator_imports_no_node_stack():
    loaded = fresh(
        "import json, sys\n"
        "import repro.service.federation\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    assert "repro.service.server" in loaded
    assert not set(NODE_STACK) & set(loaded)


def test_building_every_ptile_index_never_loads_numpy_ma():
    """``np.unique`` without a ``return_*`` flag imports ``numpy.ma``; the
    build path has its own sort-based unique.  The threshold, range and
    tensor builders, an insert and a warmed 2-shard service all run."""
    got = fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from repro import (PtileLogicalIndex, PtileRangeIndex,\n"
        "                   PtileThresholdIndex, QueryService, Rectangle,\n"
        "                   Repository, ExactSynopsis)\n"
        "rng = np.random.default_rng(3)\n"
        "for dim in (1, 2):\n"
        "    lake = [rng.uniform(size=(40, dim)) for _ in range(5)]\n"
        "    box = Rectangle([-0.1] * dim, [1.1] * dim)\n"
        "    syn = [ExactSynopsis(p) for p in lake]\n"
        "    PtileThresholdIndex(syn, eps=0.3, sample_size=4, rng=rng)\n"
        "    index = PtileRangeIndex(syn, eps=0.3, sample_size=4,\n"
        "                            bounding_box=box, rng=rng)\n"
        "    index.insert_synopsis(syn[0])\n"
        "    PtileLogicalIndex(syn, eps=0.3, sample_size=2, bounding_box=box,\n"
        "                      strategy='tensor', rng=rng)._build_tensor(2)\n"
        "    QueryService(repository=Repository.from_arrays(lake), n_shards=2,\n"
        "                 eps=0.3, sample_size=4, seed=1,\n"
        "                 bounding_box=box).warm()\n"
        "print(json.dumps([before, 'numpy.ma' in sys.modules]))\n"
    )
    before, after = got
    if before:
        pytest.skip("this numpy loads numpy.ma on import")
    assert not after


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(module, "not_an_export")


def test_a_star_import_from_a_fresh_interpreter_binds_every_name():
    missing = fresh(
        "import json\n"
        "import repro\n"
        "space = {}\n"
        "exec('from repro import *', space)\n"
        "print(json.dumps(sorted(set(repro.__all__) - set(space))))\n"
    )
    assert missing == []
