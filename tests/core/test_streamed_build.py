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

from repro.core import ptile_range
from repro.core._ptile_common import range_point_matrix
from repro.core.framework import Repository
from repro.core.ptile_range import PtileRangeIndex
from repro.geometry.rect_enum import (
    RectangleGrid,
    enumerate_generalized_pairs,
    generalized_pairs_arrays,
)
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
            coreset = rng.uniform(size=(1, size, dim))
            points = range_point_matrix(
                *generalized_pairs_arrays(coreset, box, None), delta=0.01 * (key % 4)
            )
        mapped.append((points, np.full(points.shape[0], key)))
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
        empty = [(np.empty((0, 6)), np.full(0, key)) for key in range(3)]
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


def reference_piece(index: PtileRangeIndex, key: int) -> tuple:
    """One dataset's mapped points from the tuple enumerator, row by row."""
    pairs = enumerate_generalized_pairs(
        RectangleGrid(index.coreset(key), bounding_box=index.bounding_box)
    )
    d = index.dim
    columns = [np.reshape([p[c] for p in pairs], (len(pairs), d)) for c in range(4)]
    weights = np.array([p[4] for p in pairs], dtype=float)
    points = range_point_matrix(*columns, weights, index.delta_of(key))
    return points, np.full(len(pairs), key)


class TestBlockEnumeratedShards:
    @pytest.mark.parametrize("budget", (64, 1 << 16))
    @pytest.mark.parametrize("dim", (1, 2))
    def test_shard_trees_equal_reference_trees(self, dim, budget, monkeypatch):
        """Every shard's tree, whose datasets were enumerated a block at a
        time (and at budget 64 each dataset in row ranges), has the arrays
        of the tree built from ``enumerate_generalized_pairs`` pieces."""
        monkeypatch.setattr(backend, "BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(11)
        # Coarse coordinates: duplicate samples, so count groups mix.
        lake = [np.round(rng.uniform(size=(30, dim)), 1) for _ in range(12)]
        service = QueryService(
            repository=Repository.from_arrays(lake), n_shards=3, eps=0.2,
            sample_size=5, seed=4,
        )
        service.warm()
        for engine in service.executor.engines:
            index = engine.ptile_index
            pieces = [reference_piece(index, key) for key in index.keys]
            want = build_engine(iter(pieces), "kd").to_arrays()
            assert_same_arrays(index._tree.to_arrays(), want)


def test_construction_memory_is_bounded_by_blocks_not_by_the_shard():
    """ROADMAP item 4: a 2-D, 16-dataset, ``sample_size=12`` shard — one
    ``cold_2d`` shard — builds without the shard-wide float64 matrix.

    ``tracemalloc`` peak over the whole construction stays under

    - the live index, plus
    - planting's working set on the *codes* (a permuted copy of the code
      matrix, the row permutation and the key column: 2.5x the index), plus
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


def test_one_large_dataset_is_enumerated_in_bounded_blocks():
    """One 2-D dataset at ``sample_size=32`` maps to 246 016 points — a
    19.7 MB float matrix, 38 blocks — and is enumerated in row ranges of its
    pair product: the whole construction stays under the shard test's bound
    with the block at the budget instead of at the dataset (the
    per-dataset enumeration peaked at 60.6 MB, 12x the live index), and the
    mapped stream alone never holds more than a few blocks."""
    rng = np.random.default_rng(5)
    synopses = [ExactSynopsis(rng.uniform(size=(400, 2)))]
    box = Rectangle([-0.1, -0.1], [1.1, 1.1])
    block = 8 * backend.BLOCK_ELEMENTS
    tracemalloc.start()
    try:
        index = PtileRangeIndex(
            synopses, eps=0.2, sample_size=32, bounding_box=box,
            rng=np.random.default_rng(1),
        )
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * 10 * index.n_mapped_points > 30 * block
    live = index._tree.nbytes
    assert build_peak <= live + 2.5 * live + 8 * block
    keys = index.keys
    coresets, deltas = index._stacked(keys)
    tracemalloc.start()
    try:
        for _piece in index._mapped(keys, coresets, deltas):
            pass
        _, stream_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream_peak <= 8 * block


@pytest.mark.parametrize("budget", (64, 1 << 16))
def test_every_row_is_enumerated_through_the_traced_name(budget, monkeypatch):
    """``benchmarks/e2e/launcher.py`` wraps
    ``repro.core.ptile_range.generalized_pairs_arrays`` as the
    ``geometry.enum`` span and counts ``len(result[-1])`` as
    ``geometry.rectangles``.  Construction and insert must both call that
    module global, and the counts must add up to the mapped points: rows
    enumerated under another name would read as 0 without any error."""
    monkeypatch.setattr(backend, "BLOCK_ELEMENTS", budget)
    real = ptile_range.generalized_pairs_arrays
    rows = []

    def counting(*args):
        result = real(*args)
        rows.append(len(result[-1]))
        return result

    monkeypatch.setattr(ptile_range, "generalized_pairs_arrays", counting)
    rng = np.random.default_rng(3)
    index = PtileRangeIndex(
        [ExactSynopsis(rng.uniform(size=(40, 2))) for _ in range(5)],
        eps=0.2, sample_size=6, rng=rng,
    )
    built = len(rows)
    assert built and sum(rows) == index.n_mapped_points
    index.insert_synopsis(ExactSynopsis(rng.uniform(0.2, 0.8, size=(40, 2))))
    assert len(rows) > built and sum(rows) == index.n_mapped_points
