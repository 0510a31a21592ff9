"""Index construction as a stream of bounded blocks.

``build_engine`` hands the kd-tree mapped points in blocks of at most
``BLOCK_ELEMENTS`` float64 elements, each rank-coded on arrival.  Whatever
the budget, the built arrays must equal the ones the float constructor
makes of the stacked matrix, and the shard-wide float64 matrix must never
exist.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core._ptile_common import point_ids, range_point_matrix
from repro.core.framework import Repository
from repro.core.ptile_range import PtileRangeIndex
from repro.geometry.rect_enum import RectangleGrid, generalized_pairs_arrays
from repro.geometry.rectangle import Rectangle
from repro.index import backend, kd_tree
from repro.index.backend import DYNAMIC_ENGINES, build_backend, build_engine
from repro.service import QueryService
from repro.synopsis import ExactSynopsis

#: ``(d, datasets, coreset size)``: the 1-D lake has more than 256 levels a
#: coordinate column (two-byte codes), the others fewer (one byte).
LAKES = {1: (1, 30, 12), 2: (2, 6, 5), 3: (3, 5, 3)}


def mapped_datasets(dim: int, rng: np.random.Generator) -> list[tuple]:
    """Per-dataset ``(points, ids)`` as ``PtileRangeIndex`` maps them, with
    a different ``delta`` per dataset and zero-pair datasets at positions 1
    and 3."""
    _, n, size = LAKES[dim]
    box = Rectangle([-0.25] * dim, [1.25] * dim)
    mapped = []
    for key in range(n):
        if key in (1, 3):
            points = np.empty((0, 4 * dim + 2))
        else:
            grid = RectangleGrid(rng.uniform(size=(size, dim)), bounding_box=box)
            points = range_point_matrix(
                *generalized_pairs_arrays(grid), delta=0.01 * (key % 4)
            )
        mapped.append((points, point_ids(key, points.shape[0])))
    return mapped


def assert_same_arrays(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


class TestStreamedEqualsOneBlock:
    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    @pytest.mark.parametrize("dim", sorted(LAKES))
    def test_arrays_equal_at_every_budget(self, engine, dim, monkeypatch):
        mapped = mapped_datasets(dim, np.random.default_rng(dim))
        points, ids = (np.concatenate(column) for column in zip(*mapped))
        monkeypatch.setattr(kd_tree, "DEFAULT_LEAF_SIZE", 32)
        want = build_backend(points, ids, engine).to_arrays()
        if engine == "kd":
            assert want["codes"].dtype == (np.uint16 if dim == 1 else np.uint8)
        one = mapped[0][0].size  # every non-empty dataset maps to this many
        # 1: a block per dataset, the zero-pair ones alone in theirs.
        # 2 datasets' worth: [D0, Z, D2, Z] — a zero-pair dataset inside a
        # block and one closing it — then pairs.  Huge: one block.
        pairs = -(-(len(mapped) - 2) // 2)
        for budget, n_blocks in ((1, len(mapped)), (2 * one, pairs), (1 << 40, 1)):
            monkeypatch.setattr(backend, "BLOCK_ELEMENTS", budget)
            assert len(list(backend._blocks(iter(mapped)))) == n_blocks
            got = build_engine(iter(mapped), engine).to_arrays()
            assert_same_arrays(got, want)

    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    def test_nothing_mapped_is_refused_like_an_empty_matrix(self, engine):
        empty = [(np.empty((0, 6)), point_ids(key, 0)) for key in range(3)]
        for mapped in (empty, []):
            with pytest.raises(ValueError):
                build_engine(iter(mapped), engine)

    @pytest.mark.parametrize("dim", (1, 2))
    def test_snapshot_bytes_do_not_depend_on_the_budget(self, dim, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        lake = [rng.uniform(size=(int(n), dim)) for n in rng.integers(40, 90, size=10)]

        def saved(budget: int) -> bytes:
            monkeypatch.setattr(backend, "BLOCK_ELEMENTS", budget)
            service = QueryService(
                repository=Repository.from_arrays(lake), n_shards=2, eps=0.2,
                sample_size=6, seed=3,
            )
            service.warm()
            path = tmp_path / f"{budget}.snap"
            service.save(path)
            return path.read_bytes()

        assert saved(64) == saved(1 << 40)


def test_construction_memory_is_bounded_by_blocks_not_by_the_shard():
    """ROADMAP item 4: a 2-D, 16-dataset, ``sample_size=12`` shard — one
    ``cold_2d`` shard — builds without the shard-wide float64 matrix.

    ``tracemalloc`` peak over the whole construction stays under

    - the live index, plus
    - planting's working set on the *codes* (a permuted copy of the code
      matrix, the row permutation and the id columns: 2.5x the index), plus
    - four blocks of floats (the datasets being stacked, the stacked block,
      one dataset's enumeration), a block being the budget or the largest
      single dataset, whichever is larger.

    That is 10.6 MB here and the build peaks at 9.0; stacking every dataset
    first (the previous construction) peaked at 29.1 MB — the ``(n, 4d + 2)``
    matrix alone is 9.2 MB and existed twice, beside its sort copies.
    """
    rng = np.random.default_rng(5)
    synopses = [ExactSynopsis(rng.uniform(size=(150, 2))) for _ in range(16)]
    box = Rectangle([-0.1, -0.1], [1.1, 1.1])
    tracemalloc.start()
    try:
        index = PtileRangeIndex(
            synopses, eps=0.2, sample_size=12, bounding_box=box,
            rng=np.random.default_rng(1),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    live = index._tree.nbytes
    largest = 8 * 10 * max(
        index._mapped_points(key)[0].shape[0] for key in index.keys
    )
    block = max(8 * backend.BLOCK_ELEMENTS, largest)
    assert peak <= live + 2.5 * live + 4 * block
