"""Combinatorially different rectangles over a coreset (Sections 4.2-4.3).

Given a coreset ``S`` of sample points in ``R^d`` (optionally augmented with
the projections of the samples onto the facets of a bounding box ``B``, as in
Algorithm 3 line 5), the *combinatorially different* hyper-rectangles are the
rectangles whose facets pass through coreset coordinates: per axis ``h`` the
rectangle picks a pair ``lo <= hi`` from the sorted distinct coordinates of
the coreset on axis ``h``.  Two rectangles picking the same coordinates
contain exactly the same coreset points, so this finite family realizes every
possible intersection pattern — exactly the set ``R_i`` of Algorithms 1 & 3.

Maximal pairs (Section 4.3) and an exact pruning
------------------------------------------------
Algorithm 3 stores all pairs ``(rho, rho_hat)`` with ``rho ⊆ rho_hat`` such
that there is **no** ``rho' ∈ R_i`` with ``rho ⊂ rho' ⊂⊂ rho_hat``.  The
query orthant of Algorithm 4 can only ever match a pair with
``rho ⊆ R ⊂⊂ rho_hat`` — in particular ``rho_hat`` must contain ``rho``
*strictly on all 2d sides*.  Write ``prev_h(x)`` / ``next_h(x)`` for the grid
coordinate immediately below/above ``x`` on axis ``h``.  For a pair strict on
all sides, the rectangles ``rho'`` with ``rho ⊂ rho' ⊂⊂ rho_hat`` are exactly
the choices ``rho'_h^- ∈ (rho_hat_h^-, rho_h^-]`` and
``rho'_h^+ ∈ [rho_h^+, rho_hat_h^+)`` other than ``rho`` itself; the number of
choices is ``prod_h cnt_lo(h) * cnt_hi(h)`` where ``cnt_lo(h)`` counts grid
coordinates in ``(rho_hat_h^-, rho_h^-]`` and symmetrically for ``cnt_hi``.
The pair is valid iff this product equals 1, i.e. iff

    rho_hat_h^- = prev_h(rho_h^-)   and   rho_hat_h^+ = next_h(rho_h^+)

for every axis.  Hence **each inner rectangle has exactly one query-matchable
valid outer rectangle: its one-step neighbour expansion**.  Pairs that share
a boundary with ``rho`` on some side are also valid per the paper's
definition but can never satisfy ``R ⊂⊂ rho_hat`` together with
``rho ⊆ R``, so storing them is dead weight.  ``enumerate_maximal_pairs``
therefore emits only the neighbour expansions — an exact, loss-free
optimization reducing the stored pairs from ``O(s^{4d})`` to ``O(s^{2d})``.
``enumerate_maximal_pairs_naive`` implements the paper's definition verbatim
(quadratic filter) and the test suite proves the two agree on all
query-matchable pairs.

Array enumerators
-----------------
The list-of-tuples enumerators above are the *reference* implementations:
one Python iteration (and several small array allocations) per rectangle.
Index construction walks millions of rectangles, so the builders consume
the block-operation twins instead, both over a whole ``(K, s, d)``
*stack* of coresets, coreset after coreset, or any range of those rows:

- :func:`rectangles_arrays` — the family ``R_i`` (Algorithm 1) as
  ``(2, d, P)`` level codes (lo, hi) plus a ``(P,)`` inside-count vector;
- :func:`generalized_pairs_arrays` — the generalized maximal pairs
  (Algorithm 3) as ``(4, d, P)`` level codes (inner/outer lo/hi) plus
  inner counts.

A code is a position in its axis' sorted level table of the stack (every
coordinate is a coreset coordinate, a box end or a gap sentinel, all
ranked by the grid sort): no float row is built, and the kd-tree plants
on the codes as they are.  The tables' distinct-values pass is
:func:`_sorted_unique`, the index build's one, which never loads
``numpy.ma``.

They are one enumeration body (:func:`_stack_rows`) and differ only in
their per-axis *option tables* — ``np.triu_indices`` index pairs, or
rectangle options with room to expand plus gap options — and option
counts.  The body realizes the cross product with stride arithmetic
instead of ``itertools.product`` and looks counts up in a padded
d-dimensional cumulative-count grid via inclusion–exclusion — ``2^d``
vectorized gathers instead of one rank scan per rectangle.  Each step runs
once for the stack, not once per coreset: one sort finds every coreset's
distinct coordinates on every axis (:func:`_stack_grids`), option tables
are built once per distinct coordinate count (duplicate samples and
samples on a box endpoint make counts differ between coresets), every row
is addressed by its coreset and its flat position in that coreset's option
product (:func:`_row_owners`), and one padded count grid per coreset is
built in one ``bincount``.  At the benchmark's 1-D ``sample_size=12`` a
coreset has 91 pairs, and a per-coreset form spends its time in ~20 NumPy
calls of interpreter overhead each; the builders make one call per memory
block.  Row order and decoded floats match the reference enumerators
*exactly*; the test suite compares the two directly.  The size guard runs
per coreset on per-axis option *counts* computed arithmetically, so an
oversized coreset is refused before any option table is allocated.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.geometry.rectangle import Rectangle

#: Refuse to enumerate more than this many rectangles for a single coreset —
#: a guard against accidental eps choices that would exhaust memory.
MAX_RECTANGLES_PER_CORESET = 2_000_000


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, bitwise, by one sort: the index build's one
    distinct-values pass.  ``np.unique`` without a ``return_*`` flag asks
    ``np.ma.is_masked`` first, and the first such call imports
    ``numpy.ma`` (14–20 ms and 1.2 MB a process); the build never needs it.
    Values must be NaN-free (``np.unique`` merges NaNs, this keeps each).

    >>> _sorted_unique(np.array([3.0, 1.0, 3.0, 2.0])).tolist()
    [1.0, 2.0, 3.0]
    """
    flat = np.sort(values, axis=None)
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


class RectangleGrid:
    """The combinatorial grid induced by a coreset (plus bounding box).

    Parameters
    ----------
    points:
        ``(s, d)`` array of coreset points.
    bounding_box:
        Optional :class:`Rectangle`.  When given, each axis' coordinate list
        additionally contains the box endpoints — the effect of projecting
        every sample onto the ``2d`` facets of ``B`` (Algorithm 3, line 5):
        the only new *coordinates* such projections introduce are the box
        endpoints themselves.

    Notes
    -----
    Rectangles are addressed by integer index vectors: a rectangle is a pair
    ``(lo_idx, hi_idx)`` of length-``d`` tuples with
    ``lo_idx[h] <= hi_idx[h]`` indexing into ``coords[h]``.
    """

    def __init__(self, points: np.ndarray, bounding_box: Optional[Rectangle] = None) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (s, d) array")
        self.points = pts
        self.dim = pts.shape[1]
        self.bounding_box = bounding_box
        if bounding_box is not None:
            if bounding_box.dim != self.dim:
                raise ValueError("bounding box dimension mismatch")
            if not bounding_box.contains_points(pts).all():
                raise ValueError("all coreset points must lie in the bounding box")
        self.coords: list[np.ndarray] = []
        for h in range(self.dim):
            vals = pts[:, h]
            if bounding_box is not None:
                vals = np.concatenate(
                    [vals, [bounding_box.lo[h], bounding_box.hi[h]]]
                )
            self.coords.append(np.unique(vals))
        # Rank of each sample point on each axis (exact: sample coords are
        # grid coords by construction).
        self._ranks = np.column_stack(
            [np.searchsorted(self.coords[h], pts[:, h]) for h in range(self.dim)]
        )

    # ------------------------------------------------------------------
    def n_coords(self, axis: int) -> int:
        """Number of distinct grid coordinates on an axis."""
        return int(self.coords[axis].size)

    def n_rectangles(self) -> int:
        """``prod_h m_h (m_h + 1) / 2`` — size of the family ``R_i``."""
        total = 1
        for h in range(self.dim):
            m = self.n_coords(h)
            total *= m * (m + 1) // 2
        return total

    def rectangle(self, lo_idx: Sequence[int], hi_idx: Sequence[int]) -> Rectangle:
        """Materialize the rectangle addressed by grid indices."""
        lo = [float(self.coords[h][lo_idx[h]]) for h in range(self.dim)]
        hi = [float(self.coords[h][hi_idx[h]]) for h in range(self.dim)]
        return Rectangle(lo, hi)

    def count(self, lo_idx: Sequence[int], hi_idx: Sequence[int]) -> int:
        """``|rho ∩ S|`` for the rectangle addressed by grid indices."""
        lo = np.asarray(lo_idx)
        hi = np.asarray(hi_idx)
        inside = np.all((self._ranks >= lo) & (self._ranks <= hi), axis=1)
        return int(np.count_nonzero(inside))

    def mass(self, lo_idx: Sequence[int], hi_idx: Sequence[int]) -> float:
        """``|rho ∩ S| / |S|`` — the stored weight of Algorithms 1 & 3."""
        return self.count(lo_idx, hi_idx) / self.points.shape[0]

    def index_rectangles(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Iterate over all (lo_idx, hi_idx) index rectangles."""
        if self.n_rectangles() > MAX_RECTANGLES_PER_CORESET:
            raise ValueError(
                f"coreset would induce {self.n_rectangles()} rectangles "
                f"(> {MAX_RECTANGLES_PER_CORESET}); reduce the coreset size"
            )
        per_axis: list[list[tuple[int, int]]] = []
        for h in range(self.dim):
            m = self.n_coords(h)
            per_axis.append([(i, j) for i in range(m) for j in range(i, m)])
        for combo in itertools.product(*per_axis):
            lo_idx = tuple(ij[0] for ij in combo)
            hi_idx = tuple(ij[1] for ij in combo)
            yield lo_idx, hi_idx

    def expandable(self, lo_idx: Sequence[int], hi_idx: Sequence[int]) -> bool:
        """Whether a one-step neighbour expansion exists on every side."""
        for h in range(self.dim):
            if lo_idx[h] == 0 or hi_idx[h] == self.n_coords(h) - 1:
                return False
        return True

    def expand_once(
        self, lo_idx: Sequence[int], hi_idx: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The unique neighbour expansion ``rho_hat`` of ``rho`` (see module doc)."""
        if not self.expandable(lo_idx, hi_idx):
            raise ValueError("rectangle touches the grid boundary; cannot expand")
        return (
            tuple(i - 1 for i in lo_idx),
            tuple(j + 1 for j in hi_idx),
        )


def enumerate_rectangles(grid: RectangleGrid) -> list[tuple[Rectangle, float]]:
    """All combinatorially different rectangles with their coreset mass.

    This is the family ``R_i`` with weights ``|rho ∩ S_i| / |S_i|``
    (Algorithm 1, lines 5-7).
    """
    out: list[tuple[Rectangle, float]] = []
    for lo_idx, hi_idx in grid.index_rectangles():
        out.append((grid.rectangle(lo_idx, hi_idx), grid.mass(lo_idx, hi_idx)))
    return out


def enumerate_maximal_pairs(
    grid: RectangleGrid,
) -> list[tuple[Rectangle, Rectangle, float]]:
    """Query-matchable maximal pairs ``(rho, rho_hat)`` with inner mass.

    Implements the exact pruning described in the module docstring: for each
    inner rectangle that does not touch the grid boundary, emit the single
    pair with its one-step neighbour expansion.  The weight is the *inner*
    rectangle's coreset mass (Algorithm 3, line 11).
    """
    out: list[tuple[Rectangle, Rectangle, float]] = []
    for lo_idx, hi_idx in grid.index_rectangles():
        if not grid.expandable(lo_idx, hi_idx):
            continue
        out_lo, out_hi = grid.expand_once(lo_idx, hi_idx)
        out.append(
            (
                grid.rectangle(lo_idx, hi_idx),
                grid.rectangle(out_lo, out_hi),
                grid.mass(lo_idx, hi_idx),
            )
        )
    return out


#: Sentinel coordinates for "always satisfied" inner constraints of gap
#: axes (see enumerate_generalized_pairs).  Large-but-finite so kd-tree
#: bounding boxes stay well-defined.
GAP_INNER_LO = 1e300
GAP_INNER_HI = -1e300


def enumerate_generalized_pairs(
    grid: RectangleGrid,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]]:
    """Maximal pairs extended with *gap* axes — the empty-intersection fix.

    The plain pair family cannot certify a query rectangle ``R`` whose
    per-axis range contains **no** grid coordinate on some axis: no family
    rectangle fits inside ``R`` there, yet a dataset with (coreset) mass 0
    in ``R`` must still be reported when ``0 ∈ [a - eps - delta, ...]``
    (Lemma 4.7 implicitly assumes a maximal rectangle exists).  The fix:
    per axis, a pair may choose either

    - a *rectangle* option ``[c_i, c_j]`` with outer ``(c_{i-1}, c_{j+1})``
      (exactly as before), or
    - a *gap* option ``(c_g, c_{g+1})``: the inner constraint is vacuous
      (encoded by the ``GAP_INNER_*`` sentinels, which satisfy any query's
      inner orthant constraints) and the outer constraint demands ``R``'s
      range on this axis lie strictly inside the open gap.

    Correctness: at a query match, every sample inside ``R`` must have its
    axis-``h`` coordinate inside ``R``'s range; on gap axes that range
    contains no grid coordinate (hence no sample coordinate), so samples in
    ``R`` are exactly the samples in the inner product — the stored weight
    equals the coreset mass of ``R`` *exactly*.  Conversely, for any ``R``
    strictly inside the bounding box (general position), choosing per axis
    the maximal coordinate interval inside ``R`` — or the gap around ``R``
    when no coordinate falls inside — yields a stored pair matching ``R``.
    Recall and the two-sided precision of Theorem 4.11 both hold with no
    assumption that ``R`` contains coreset points.

    Returns tuples ``(inner_lo, inner_hi, outer_lo, outer_hi, weight)`` of
    per-axis coordinate vectors, ready for the ``R^{4d}`` point mapping.
    """
    dim = grid.dim
    per_axis: list[list[tuple[float, float, float, float, Optional[tuple[int, int]]]]] = []
    for h in range(dim):
        coords = grid.coords[h]
        m = coords.size
        options: list[tuple[float, float, float, float, Optional[tuple[int, int]]]] = []
        for i in range(1, m - 1):
            for j in range(i, m - 1):
                options.append(
                    (
                        float(coords[i]),
                        float(coords[j]),
                        float(coords[i - 1]),
                        float(coords[j + 1]),
                        (i, j),
                    )
                )
        for g in range(m - 1):
            options.append(
                (
                    GAP_INNER_LO,
                    GAP_INNER_HI,
                    float(coords[g]),
                    float(coords[g + 1]),
                    None,
                )
            )
        per_axis.append(options)
    total = 1
    for options in per_axis:
        total *= len(options)
    if total > MAX_RECTANGLES_PER_CORESET:
        raise ValueError(
            f"coreset would induce {total} generalized pairs "
            f"(> {MAX_RECTANGLES_PER_CORESET}); reduce the coreset size"
        )
    out: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]] = []
    for combo in itertools.product(*per_axis):
        inner_lo = np.array([c[0] for c in combo])
        inner_hi = np.array([c[1] for c in combo])
        outer_lo = np.array([c[2] for c in combo])
        outer_hi = np.array([c[3] for c in combo])
        if all(c[4] is not None for c in combo):
            lo_idx = tuple(c[4][0] for c in combo)
            hi_idx = tuple(c[4][1] for c in combo)
            weight = grid.mass(lo_idx, hi_idx)
        else:
            weight = 0.0  # a gap axis admits no sample
        out.append((inner_lo, inner_hi, outer_lo, outer_hi, weight))
    return out


def _stack_values(
    coresets: np.ndarray, bounding_box: Optional[Rectangle]
) -> np.ndarray:
    """A ``(K, s, d)`` coreset stack's coordinates as ``(d, K, width)``
    rows, one per axis and coreset, with the box endpoints appended
    (``width = s + 2``; ``s`` without a box) — after checking the stack's
    shape and that every point lies in the box."""
    stack = np.asarray(coresets, dtype=float)
    if stack.ndim != 3 or stack.shape[1] == 0:
        raise ValueError("coresets must be a non-empty (K, s, d) stack")
    n_sets, size, dim = stack.shape
    if bounding_box is not None:
        if bounding_box.dim != dim:
            raise ValueError("bounding box dimension mismatch")
        inside = bounding_box.contains_points(stack.reshape(-1, dim))
        inside = inside.reshape(n_sets, size).all(axis=1)
        if not inside.all():
            raise ValueError(
                f"coreset {int(np.argmin(inside))} of the stack has points "
                "outside the bounding box"
            )
        ends = np.broadcast_to([bounding_box.lo, bounding_box.hi], (n_sets, 2, dim))
        stack = np.concatenate([stack, ends], axis=1)
    return stack.transpose(2, 0, 1)


def _stack_grids(
    coresets: np.ndarray, bounding_box: Optional[Rectangle]
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """The :class:`RectangleGrid` of every coreset of a ``(K, s, d)`` stack
    at once: one sort for all of them instead of ``K * d`` ``np.unique``
    calls.

    Returns ``(levels, tables, ranks, m)``.  ``tables[h]`` is the stack's
    sorted distinct coordinates on axis ``h`` (box endpoints included) and
    the two ``GAP_INNER_*`` sentinels; ``levels[h, k, :m[k, h]]`` are
    coreset ``k``'s, as positions in it, its last two columns the
    sentinels', so that every option of :func:`_option_tables` is a column
    index; ``ranks[k, i, h]`` is sample ``i``'s position in coreset ``k``'s
    list.  A run of equal coordinates keeps one of them, as ``np.unique``
    does.
    """
    vals = _stack_values(coresets, bounding_box)
    dim, n_sets, width = vals.shape
    order = np.argsort(vals, axis=2, kind="stable")
    ordered = np.take_along_axis(vals, order, axis=2)
    new = np.ones(ordered.shape, dtype=bool)
    new[:, :, 1:] = ordered[:, :, 1:] != ordered[:, :, :-1]
    rank = np.cumsum(new, axis=2) - 1
    m = (rank[:, :, -1] + 1).T
    coords = np.zeros((dim, n_sets, width + 2))
    coords[:, :, width] = GAP_INNER_LO
    coords[:, :, width + 1] = GAP_INNER_HI
    axis, row, _ = np.nonzero(new)
    coords[axis, row, rank[new]] = ordered[new]
    sentinels = [GAP_INNER_HI, GAP_INNER_LO]
    tables = [_sorted_unique(np.append(vals[h], sentinels)) for h in range(dim)]
    levels = np.stack([np.searchsorted(t, c) for t, c in zip(tables, coords)])
    unsorted = np.empty_like(rank)
    np.put_along_axis(unsorted, order, rank, axis=2)
    ranks = unsorted[:, :, : np.shape(coresets)[1]].transpose(1, 2, 0)
    return levels, tables, ranks, m


def _padded_cumulative_counts(
    ranks: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Padded d-dim cumulative point counts of every coreset of a stack.

    ``ranks`` is ``(K, s, d)`` and ``shape`` bounds every coreset's grid
    (its per-axis coordinate counts, or more).  ``out[k, i_1 + 1, ...,
    i_d + 1]`` is the number of coreset ``k``'s points whose rank on every
    axis ``h`` is ``<= i_h``; any index 0 means "strictly below the grid"
    and contributes 0, which makes the inclusion–exclusion gathers of
    :func:`_box_counts` branch-free.
    """
    n_sets, cells = ranks.shape[0], math.prod(shape)
    flat = np.ravel_multi_index(tuple(np.moveaxis(ranks, 2, 0)), shape)
    flat += np.arange(n_sets)[:, None] * cells
    hist = np.bincount(flat.ravel(), minlength=n_sets * cells)
    hist = hist.reshape(n_sets, *shape)
    for h in range(len(shape)):
        hist = np.cumsum(hist, axis=h + 1)
    padded = np.zeros((n_sets, *(m + 1 for m in shape)), dtype=np.int64)
    padded[(slice(None), *(slice(1, None) for _ in shape))] = hist
    return padded


def _box_counts(padded: np.ndarray, owner, lo: Sequence, hi: Sequence) -> np.ndarray:
    """``|rho ∩ S_owner|`` for index rectangles given as ``d`` columns of
    lower and of upper grid indices, each rectangle in grid ``owner`` (one
    per rectangle, or one for all) of a :func:`_padded_cumulative_counts`
    stack, via 2^d flat gathers.

    Standard inclusion–exclusion on the padded cumulative grid:
    ``count = sum_{e in {0,1}^d} (-1)^{|e|} C[c(e)]`` with corner
    ``c(e)_h = hi_h + 1`` when ``e_h = 0`` and ``lo_h`` otherwise.
    """
    d = len(lo)
    step = [s // padded.itemsize for s in padded.strides]
    lo_at = [lo[h] * step[h + 1] for h in range(d)]
    hi_at = [(hi[h] + 1) * step[h + 1] for h in range(d)]
    base = owner * step[0]
    cells = padded.reshape(-1)
    counts = np.zeros(len(lo[0]), dtype=np.int64)
    for corner in range(1 << d):
        at = base
        sign = 1
        for h in range(d):
            if corner >> h & 1:
                at = at + lo_at[h]
                sign = -sign
            else:
                at = at + hi_at[h]
        accumulate = np.add if sign > 0 else np.subtract
        accumulate(counts, np.take(cells, at), out=counts)
    return counts


def _guarded_totals(sizes: np.ndarray, pairs: bool) -> np.ndarray:
    """Each coreset's option cross-product size from its ``(K, d)``
    per-axis option counts, guard-checked per coreset *before* any
    ``O(total)`` allocation happens.  The float product is exact below
    ``2^53``, far above the cap, so the comparison is too."""
    over = np.prod(sizes.astype(float), axis=1) > MAX_RECTANGLES_PER_CORESET
    if over.any():
        k = int(np.argmax(over))
        total = math.prod(int(s) for s in sizes[k])
        raise ValueError(
            f"coreset {k} would induce {total} "
            f"{'generalized pairs' if pairs else 'rectangles'} "
            f"(> {MAX_RECTANGLES_PER_CORESET}); reduce the coreset size"
        )
    return np.prod(sizes, axis=1)


def _option_counts(m: np.ndarray, pairs: bool) -> np.ndarray:
    """Options per axis of a grid with ``m`` coordinates: the ``m(m+1)/2``
    rectangles ``[c_i, c_j]``; for generalized pairs the ``(m-2)(m-1)/2``
    rectangle options with room to expand plus ``m-1`` gaps, ``m(m-1)/2``."""
    return m * (m - 1) // 2 if pairs else m * (m + 1) // 2


def _option_tables(
    levels: np.ndarray, m: np.ndarray, width: int, pairs: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One axis' options for every coreset of a stack.

    ``levels`` is the axis' ``(K, width + 2)`` :func:`_stack_grids` rows,
    ``m`` the coresets' coordinate counts.  Returns ``(index, level)``,
    both ``(c, K, S)`` with ``S`` the largest option count: ``[:, k, o]`` is
    option ``o`` of coreset ``k`` as grid indices and as positions in the
    axis' level table — lo, hi of a rectangle (``c = 2``); inner lo, inner
    hi, outer lo, outer hi of a generalized pair (``c = 4``, the sentinel
    columns ``width`` / ``width + 1`` for a gap's inner side).  The tables
    are built once per distinct count, not per coreset.
    """
    n_sets = levels.shape[0]
    slots = int(_option_counts(m, pairs).max(initial=0))
    index = np.zeros((4 if pairs else 2, n_sets, slots), dtype=np.int64)
    for count in _sorted_unique(m):
        table = _option_index(int(count), width, pairs)
        index[:, m == count, : table.shape[1]] = table[:, None, :]
    row = np.arange(n_sets)[:, None] * levels.shape[1]
    return index, np.take(levels, index + row)


@functools.lru_cache(maxsize=256)
def _option_index(count: int, width: int, pairs: bool) -> np.ndarray:
    """The column indices of the options of one axis with ``count``
    coordinates (see :func:`_option_tables`); read-only, shared by every
    caller.  Rectangles ``[c_i, c_j]`` in ``np.triu_indices`` order; for
    generalized pairs the rectangle options with room to expand, then the
    gaps ``(c_g, c_{g+1})``."""
    if not pairs:
        table = np.stack(np.triu_indices(count))
    else:
        i, j = np.triu_indices(max(0, count - 2))
        g = np.arange(count - 1)
        table = np.stack(
            [
                np.concatenate([i + 1, np.full(g.size, width)]),
                np.concatenate([j + 1, np.full(g.size, width + 1)]),
                np.concatenate([i, g]),
                np.concatenate([j + 2, g + 1]),
            ]
        )
    table.flags.writeable = False
    return table


def _row_owners(
    counts: np.ndarray, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``[start, stop)`` of a stack whose coresets yield ``counts``
    rows each, coreset after coreset: every row's coreset and its position
    in that coreset's rows."""
    begin = np.cumsum(counts) - counts
    first = np.clip(start - begin, 0, counts)
    taken = np.clip(stop - begin, 0, counts) - first
    owner = np.repeat(np.arange(len(counts)), taken)
    skipped = first - (np.cumsum(taken) - taken)
    return owner, np.arange(owner.size) + np.repeat(skipped, taken)


def _row_counts(
    coresets: np.ndarray, bounding_box: Optional[Rectangle], pairs: bool
) -> np.ndarray:
    """How many rows :func:`generalized_pairs_arrays` (``pairs``) or
    :func:`rectangles_arrays` yields for each coreset of a ``(K, s, d)``
    stack — arithmetic on the distinct coordinate counts, size guard
    included, nothing enumerated."""
    ordered = np.sort(_stack_values(coresets, bounding_box), axis=2)
    m = 1 + np.count_nonzero(ordered[:, :, 1:] != ordered[:, :, :-1], axis=2)
    return _guarded_totals(_option_counts(m.T, pairs), pairs)


def _stack_rows(
    coresets: np.ndarray,
    bounding_box: Optional[Rectangle],
    rows: Optional[tuple[int, int]],
    pairs: bool,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The one enumeration body of both families: rows ``rows`` (``None``:
    all) of a ``(K, s, d)`` stack as ``(c, d, P)`` level codes (the option
    columns of :func:`_option_tables`), their ``d`` axis level tables and
    ``(P,)`` inside-counts.

    Every row knows its coreset and its flat position in that coreset's
    option cross product (:func:`_row_owners`), decoded per axis with
    stride arithmetic in ``itertools.product`` order (last axis fastest);
    counts come from one padded count grid per coreset, for the rows whose
    every axis is a rectangle option (a gap admits no sample: count 0).
    """
    levels, tables, ranks, m = _stack_grids(coresets, bounding_box)
    n_sets, size, dim = ranks.shape
    width = levels.shape[2] - 2
    sizes = _option_counts(m, pairs)
    counts = _guarded_totals(sizes, pairs)
    start, stop = (0, int(counts.sum())) if rows is None else rows
    if not 0 <= start <= stop <= counts.sum():
        raise ValueError(f"rows {rows} is not a range of {counts.sum()} rows")
    owner, rest = _row_owners(counts, start, stop)
    stride = np.ones_like(sizes)
    for h in range(dim - 2, -1, -1):
        stride[:, h] = stride[:, h + 1] * sizes[:, h + 1]
    dtype = np.min_scalar_type(max(t.size for t in tables) - 1)
    codes = np.empty((4 if pairs else 2, dim, owner.size), dtype=dtype)
    valid = np.ones(owner.size, dtype=bool)
    lo, hi = [], []
    for h in range(dim):
        if h < dim - 1:
            option, rest = np.divmod(rest, stride[:, h][owner])
        else:
            option = rest
        index, level = _option_tables(levels[h], m[:, h], width, pairs)
        slot = owner * index.shape[2] + option
        codes[:, h] = np.take(level.reshape(len(codes), -1), slot, axis=1)
        lo.append(np.take(index[0], slot))
        hi.append(np.take(index[1], slot))
        valid &= lo[-1] < width  # a rectangle option on this axis
    inside = np.zeros(owner.size, dtype=np.int64)
    if valid.any():
        padded = _padded_cumulative_counts(ranks, tuple(m.max(axis=0)))
        keep = np.flatnonzero(valid)
        inside[keep] = _box_counts(
            padded, owner[keep], [c[keep] for c in lo], [c[keep] for c in hi]
        )
    return codes, tables, inside


def rectangles_arrays(
    coresets: np.ndarray, rows: Optional[tuple[int, int]]
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The family ``R_i`` of a stack of coresets, as level codes.

    ``coresets`` is a ``(K, s, d)`` stack; the grids hold sample
    coordinates only (Algorithm 1 has no box).  Returns ``(codes, tables,
    inside)``: row ``p`` is the rectangle with ``lo[h] =
    tables[h][codes[0, h, p]]``, ``hi[h] = tables[h][codes[1, h, p]]`` and
    ``inside[p]`` coreset points (mass ``inside / s``); ``tables[h]`` is the
    stack's sorted coordinates on axis ``h`` and the ``GAP_INNER_*``
    sentinels.  Coreset 0's rectangles come first, each coreset's in
    :func:`enumerate_rectangles` order with bitwise-equal decoded floats
    (the test suite asserts it).  ``rows`` as in
    :func:`generalized_pairs_arrays`; ``P = 0`` yields shaped empty arrays.
    """
    return _stack_rows(coresets, None, rows, False)


def generalized_pairs_arrays(
    coresets: np.ndarray,
    bounding_box: Optional[Rectangle],
    rows: Optional[tuple[int, int]],
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Generalized maximal pairs of a stack of coresets, as level codes.

    ``coresets`` is a ``(K, s, d)`` stack, every point inside
    ``bounding_box`` (``None``: the grids hold sample coordinates only).
    Returns ``(codes, tables, inside)`` as :func:`rectangles_arrays` does:
    inner lo, inner hi, outer lo, outer hi of row ``p`` on axis ``h`` are
    ``tables[h][codes[:, h, p]]``, ``inside[p]`` the inner rectangle's
    count (weight ``inside / s``).  Coreset 0's pairs come first, then
    coreset 1's, and so on, each in :func:`enumerate_generalized_pairs`
    order with bitwise-equal decoded floats (the test suite asserts it).
    Gap axes carry the ``GAP_INNER_*`` sentinels and force count 0, exactly
    as in the reference enumerator.  A coreset with a degenerate axis
    contributes no rows; ``P = 0`` yields shaped empty arrays.

    ``rows`` is ``None`` for every row, or ``(start, stop)`` for that range
    of them.  A row is addressed by its coreset and its flat position in
    that coreset's option cross product (:func:`_row_owners`), so a range
    may begin or end inside a coreset: a stack is enumerated range by range
    under a memory budget, whatever its coresets' sizes (the tables are the
    stack's, whatever the range).  The size guard is per coreset and
    arithmetic (:func:`_guarded_totals`).
    """
    return _stack_rows(coresets, bounding_box, rows, True)


def enumerate_maximal_pairs_naive(
    grid: RectangleGrid, matchable_only: bool = True
) -> list[tuple[Rectangle, Rectangle, float]]:
    """The paper's pair set, computed verbatim from its definition.

    Emits every pair ``(rho, rho_hat)`` in ``R_i x R_i`` with
    ``rho ⊆ rho_hat`` and no ``rho' ∈ R_i`` with ``rho ⊂ rho' ⊂⊂ rho_hat``.
    With ``matchable_only=True`` the output is restricted to pairs where
    ``rho_hat`` strictly contains ``rho`` on all sides — the only pairs an
    Algorithm 4 query orthant can return — which the tests show equals
    :func:`enumerate_maximal_pairs` exactly.  Quadratic in ``|R_i|``; for
    testing and the FIG3 benchmark only.
    """
    rects = list(grid.index_rectangles())
    out: list[tuple[Rectangle, Rectangle, float]] = []
    for in_lo, in_hi in rects:
        for out_lo, out_hi in rects:
            if not _idx_contained(in_lo, in_hi, out_lo, out_hi):
                continue
            strict_all = _idx_strict_all(in_lo, in_hi, out_lo, out_hi)
            if matchable_only and not strict_all:
                continue
            if _exists_intermediate(grid.dim, in_lo, in_hi, out_lo, out_hi):
                continue
            out.append(
                (
                    grid.rectangle(in_lo, in_hi),
                    grid.rectangle(out_lo, out_hi),
                    grid.mass(in_lo, in_hi),
                )
            )
    return out


def _idx_contained(in_lo, in_hi, out_lo, out_hi) -> bool:
    """``rho ⊆ rho_hat`` in index space."""
    return all(out_lo[h] <= in_lo[h] and in_hi[h] <= out_hi[h] for h in range(len(in_lo)))


def _idx_strict_all(in_lo, in_hi, out_lo, out_hi) -> bool:
    """``rho`` strictly inside ``rho_hat`` on all 2d sides, in index space."""
    return all(out_lo[h] < in_lo[h] and in_hi[h] < out_hi[h] for h in range(len(in_lo)))


def _exists_intermediate(dim, in_lo, in_hi, out_lo, out_hi) -> bool:
    """Whether some ``rho'`` satisfies ``rho ⊂ rho' ⊂⊂ rho_hat``.

    ``rho'`` must pick, per axis, ``lo' ∈ (out_lo, in_lo]`` and
    ``hi' ∈ [in_hi, out_hi)`` (index-space), and differ from ``rho``.  The
    number of candidates is the product of per-axis choice counts; an
    intermediate exists iff every axis has at least one choice and the
    product exceeds one (the single all-equal choice is ``rho`` itself).
    """
    product = 1
    for h in range(dim):
        cnt_lo = in_lo[h] - out_lo[h]   # indices in (out_lo, in_lo]
        cnt_hi = out_hi[h] - in_hi[h]   # indices in [in_hi, out_hi)
        if cnt_lo == 0 or cnt_hi == 0:
            return False
        product *= cnt_lo * cnt_hi
    return product > 1
