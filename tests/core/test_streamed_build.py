"""Index construction as a stream of bounded, level-coded blocks.

The Ptile builders cut their mapped rows into pieces of at most
``BLOCK_ELEMENTS`` elements, each ``(codes, tables, ids)`` straight from
the enumerator, and ``build_engine`` hands the kd-tree those pieces as
blocks.  Whatever the budget, the built arrays must equal the ones the
float constructor makes of the decoded rows stacked, the shard-wide
matrix must never exist, and no build path may encode floats.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core import ptile_range
from repro.core._ptile_common import _row_ranges
from repro.core.framework import Repository
from repro.core.ptile_logical import PtileLogicalIndex
from repro.core.ptile_range import PtileRangeIndex
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.geometry.rect_enum import (
    GAP_INNER_HI,
    GAP_INNER_LO,
    RectangleGrid,
    _row_counts,
    enumerate_generalized_pairs,
    enumerate_rectangles,
)
from repro.geometry.rectangle import Rectangle
from repro.index import backend, kd_tree
from repro.index.backend import DYNAMIC_ENGINES, build_backend, build_engine
from repro.service import QueryService
from repro.synopsis import ExactSynopsis

#: ``(d, datasets, coreset size)``: the 1-D lake has more than 256 levels a
#: coordinate column (two-byte codes), the others fewer (one byte).
LAKES = {1: (1, 30, 12), 2: (2, 6, 5), 3: (3, 5, 3)}


def reference_pairs(coreset: np.ndarray, box: Rectangle) -> list[np.ndarray]:
    """``enumerate_generalized_pairs`` of one coreset as five arrays:
    inner lo, inner hi, outer lo, outer hi (``(P, d)``) and weights."""
    pairs = enumerate_generalized_pairs(RectangleGrid(coreset, bounding_box=box))
    d = coreset.shape[1]
    columns = [np.reshape([p[c] for p in pairs], (len(pairs), d)) for c in range(4)]
    return [*columns, np.array([p[4] for p in pairs], dtype=float)]


def range_rows(in_lo, in_hi, out_lo, out_hi, weights, delta) -> np.ndarray:
    """Algorithm 3's mapped points, the float oracle: ``(rho^-, rho_hat^-,
    rho^+, rho_hat^+, w + delta, w - delta)``."""
    return np.column_stack(
        [in_lo, out_lo, in_hi, out_hi, weights + delta, weights - delta]
    )


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
            pairs = reference_pairs(rng.uniform(size=(size, dim)), box)
            points = range_rows(*pairs, delta=0.01 * (key % 4))
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
        counts = np.array([piece[0].shape[0] for piece in mapped])
        columns = points.shape[1]
        # Every piece codes into the whole lake's tables, as the
        # enumerator's pieces code into their stack's: most levels unused.
        ranks, tables = kd_tree._encode(points.T)
        # 1: a row a piece.  One dataset's worth and a row: pieces that
        # begin and end inside datasets, and that hold the zero-pair
        # datasets 1 and 3 inside them.  Huge: one piece.
        for budget in (1, mapped[0][0].size + columns, 1 << 40):
            monkeypatch.setattr(backend, "BLOCK_ELEMENTS", budget)
            pieces, start = [], 0
            for _, _, owner, _ in _row_ranges(counts, columns):
                stop = start + owner.size
                assert owner.size * columns <= max(budget, columns)
                assert np.array_equal(owner, ids[start:stop])  # keys are positions
                codes = [rank[start:stop] for rank in ranks]
                pieces.append((codes, tables, ids[start:stop]))
                start = stop
            assert start == len(points)
            assert len(pieces) == -(-len(points) // max(1, budget // columns))
            got = build_engine(iter(pieces), engine).to_arrays()
            assert_same_arrays(got, want)

    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    def test_nothing_mapped_is_refused_like_an_empty_matrix(self, engine):
        nothing = [np.empty(0, dtype=np.uint8)] * 6
        levels = [np.array([0.5])] * 6
        empty = [(nothing, levels, np.full(0, key)) for key in range(3)]
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
    pairs = reference_pairs(index.coreset(key), index.bounding_box)
    points = range_rows(*pairs, index.delta_of(key))
    return points, np.full(len(points), key)


def float_oracle(pieces, engine: str = "kd") -> dict:
    """The arrays of the float constructor over float pieces stacked."""
    points, ids = (np.concatenate(column) for column in zip(*pieces))
    return build_backend(points, ids, engine).to_arrays()


def reference_tensor_piece(index: PtileRangeIndex, key: int, m: int) -> tuple:
    """One dataset's m-fold tensor rows, combination by combination of its
    ``enumerate_generalized_pairs`` rows (Theorem C.8)."""
    pairs = enumerate_generalized_pairs(
        RectangleGrid(index.coreset(key), bounding_box=index.bounding_box)
    )
    delta = index.delta_of(key)
    width = m * (4 * index.dim + 2)
    rows = [
        np.concatenate(
            [np.concatenate([p[0], p[2], p[1], p[3]]) for p in combo]
            + [[p[4] + delta for p in combo], [p[4] - delta for p in combo]]
        )
        for combo in itertools.product(pairs, repeat=m)
    ]
    return np.reshape(rows, (len(rows), width)), np.full(len(rows), key)


@pytest.mark.parametrize("budget", (64, 1 << 16))
@pytest.mark.parametrize("dim, m", ((1, 2), (1, 3), (2, 2)))
def test_tensor_tree_equals_tree_of_reference_pieces(dim, m, budget, monkeypatch):
    """The C.8 tensor's rows, cut into pieces of the block budget by
    per-row product arithmetic, build the tree of the per-dataset
    reference tensors."""
    monkeypatch.setattr(backend, "BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(13)
    # Coarse coordinates: duplicate samples, so pair counts differ.
    lake = [ExactSynopsis(np.round(rng.uniform(size=(30, dim)), 1)) for _ in range(5)]
    index = PtileLogicalIndex(
        lake, eps=0.25, sample_size=2 if dim == 2 else 3, strategy="tensor",
        rng=np.random.default_rng(2),
    )
    index._build_tensor(m)
    ranged = index._range_index
    pieces = [reference_tensor_piece(ranged, key, m) for key in ranged.keys]
    assert_same_arrays(index._tensor_trees[m].to_arrays(), float_oracle(pieces))


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
        for unit in service.executor.units:
            index = unit.engine.ptile_index
            pieces = [reference_piece(index, key) for key in index.keys]
            assert_same_arrays(index._tree.to_arrays(), float_oracle(pieces))


def test_construction_memory_is_bounded_by_blocks_not_by_the_shard():
    """ROADMAP item 4: a 2-D, 16-dataset, ``sample_size=12`` shard — one
    ``cold_2d`` shard — builds without the shard-wide float64 matrix.

    ``tracemalloc`` peak over the whole construction stays under

    - the live index, plus
    - planting's working set on the *codes* (a permuted copy of the code
      matrix, the row permutation and the key column: 2.5x the index), plus
    - four blocks' worth of float64 (a coded block weighs less), a block
      being the budget or the largest single dataset, whichever is larger.

    That is 7.4 MB here and the build peaks at 7.0 (7.3 when every block
    was a float matrix coded on arrival); stacking every dataset first
    peaked at 29.1 MB — the ``(n, 4d + 2)`` float matrix alone was 9.2 MB
    and existed twice, beside its sort copies.
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
    coresets, _ = index._stacked(index.keys)
    largest = 8 * 10 * int(_row_counts(coresets, box, True).max())
    block = max(8 * backend.BLOCK_ELEMENTS, largest)
    assert peak <= live + 2.5 * live + 4 * block


def test_one_large_dataset_is_enumerated_in_bounded_blocks():
    """One 2-D dataset at ``sample_size=32`` maps to 246 016 points — a
    19.7 MB float matrix, 38 blocks — and is enumerated in row ranges of its
    pair product: the whole construction stays under the shard test's bound
    with the block at the budget instead of at the dataset (12.6 MB; the
    per-dataset enumeration peaked at 60.6 MB), and the mapped stream alone
    never holds more than a few blocks."""
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


class FixedCoreset(ExactSynopsis):
    """A synopsis whose coreset is its own points, in order, and whose
    error is a chosen ``delta_i``."""

    def __init__(self, points, delta: float) -> None:
        super().__init__(points)
        self._delta = delta

    @property
    def delta_ptile(self) -> float:
        return self._delta

    def sample(self, size, rng):
        return self.points[:size]


#: Four coresets of four samples: duplicates within a coreset (0.5, 0.75,
#: 0.25, all of the last) and across coresets, samples on both ends of the
#: unit box.  Deltas of 0, 1/s and 2/s: ``c/s + 1/s == (c+1)/s + 0`` and
#: ``(c+1)/s - 1/s == c/s - 0`` bitwise, so weight levels of different
#: datasets coincide.
COLLIDING = [
    [0.0, 0.5, 0.5, 1.0],
    [0.25, 0.5, 0.75, 0.75],
    [1.0, 0.25, 0.25, 0.0],
    [0.5, 0.5, 0.5, 0.5],
]
COLLIDING_DELTAS = [0.0, 0.25, 0.5, 0.25]


def colliding_lake(dim: int) -> list[FixedCoreset]:
    """:data:`COLLIDING` in ``dim`` axes (the second axis reversed)."""
    lake = []
    for values, delta in zip(COLLIDING, COLLIDING_DELTAS):
        axes = [values, values[::-1]][:dim]
        lake.append(FixedCoreset(np.column_stack(axes), delta))
    return lake


def threshold_rows(index: PtileThresholdIndex, key: int) -> np.ndarray:
    """Algorithm 1's mapped points of one dataset, the float oracle: its
    ``enumerate_rectangles`` rows, then the sentinel row."""
    rects = enumerate_rectangles(RectangleGrid(index.coreset(key)))
    d = index.dim
    lo = np.reshape([r.lo for r, _ in rects] + [[GAP_INNER_LO] * d], (-1, d))
    hi = np.reshape([r.hi for r, _ in rects] + [[GAP_INNER_HI] * d], (-1, d))
    weights = np.array([w for _, w in rects] + [0.0])
    return np.column_stack([lo, hi, weights + index.delta_of(key)])


def built_index(builder: str, dim: int, engine: str):
    """The index of :func:`colliding_lake` a builder makes, and the float
    oracle rows and keys of its tree."""
    lake = colliding_lake(dim)
    box = Rectangle([0.0] * dim, [1.0] * dim)
    if builder == "threshold":
        index = PtileThresholdIndex(lake, eps=0.3, sample_size=4, engine=engine)
        pieces = [
            (rows := threshold_rows(index, key), np.full(len(rows), key))
            for key in index.keys
        ]
        return index._tree, pieces
    if builder == "range":
        index = PtileRangeIndex(
            lake, eps=0.3, sample_size=4, bounding_box=box, engine=engine
        )
        return index._tree, [reference_piece(index, key) for key in index.keys]
    index = PtileLogicalIndex(
        lake, eps=0.3, sample_size=4, bounding_box=box, strategy="tensor",
        engine=engine,
    )
    index._build_tensor(2)
    ranged = index._range_index
    pieces = [reference_tensor_piece(ranged, key, 2) for key in ranged.keys]
    return index._tensor_trees[2], pieces


class TestCodedBuildEqualsFloatOracle:
    """Where levels collide — equal weights from different counts and
    deltas, equal coordinates within and across coresets, samples on the
    box, the threshold builder's sentinels — the tree planted on the
    enumerator's codes has the arrays of the float constructor over the
    reference rows, on every dynamic engine, at pieces of one row, of a few
    rows (ranges that begin and end inside datasets) and of one block."""

    @pytest.mark.parametrize("rows", (1, 7, None))
    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    @pytest.mark.parametrize(
        "builder, dim",
        (("threshold", 1), ("threshold", 2), ("range", 1), ("range", 2),
         ("tensor", 1)),
    )
    def test_arrays_equal_the_float_oracle(
        self, builder, dim, engine, rows, monkeypatch
    ):
        columns = {"threshold": 2 * dim + 1, "range": 4 * dim + 2}.get(
            builder, 2 * (4 * dim + 2)
        )
        budget = 1 << 40 if rows is None else rows * columns
        monkeypatch.setattr(backend, "BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(kd_tree, "DEFAULT_LEAF_SIZE", 16)
        tree, pieces = built_index(builder, dim, engine)
        want = float_oracle(pieces, engine)
        assert_same_arrays(tree.to_arrays(), want)
        if engine == "kd":  # the collisions are there: fewer levels than rows
            weights = np.diff(want["level_start"])[-1]
            assert weights < len(np.unique(COLLIDING_DELTAS)) * 5


def test_no_build_path_encodes_floats(monkeypatch):
    """The threshold, range and tensor builders hand the kd-tree codes:
    with ``_encode`` refusing, all three still build.  Floats are encoded
    only where they arrive as floats — the side buffer at a rebuild."""

    def refuse(columns):
        raise AssertionError("a build path encoded floats")

    monkeypatch.setattr(kd_tree, "_encode", refuse)
    rng = np.random.default_rng(8)
    lake = [ExactSynopsis(rng.uniform(size=(50, 2))) for _ in range(4)]
    box = Rectangle([-0.1, -0.1], [1.1, 1.1])
    PtileThresholdIndex(lake, eps=0.3, sample_size=4, rng=rng)
    index = PtileRangeIndex(lake, eps=0.3, sample_size=4, bounding_box=box, rng=rng)
    PtileLogicalIndex(
        lake, eps=0.3, sample_size=2, bounding_box=box, strategy="tensor", rng=rng
    )._build_tensor(2)
    with pytest.raises(AssertionError, match="encoded floats"):
        for _ in range(40):  # until the side buffer is folded in
            index.insert_synopsis(ExactSynopsis(rng.uniform(size=(50, 2))))
