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
the block-operation twins instead:

- :func:`rectangles_arrays` — the family ``R_i`` as ``(P, d)`` coordinate
  matrices plus a ``(P,)`` mass vector;
- :func:`generalized_pairs_arrays` — the generalized maximal pairs as four
  ``(P, d)`` matrices (inner/outer lo/hi) plus masses.

Both build per-axis *option tables* (``np.triu_indices`` index pairs, plus
gap options for the generalized family), realize the cross product with
stride arithmetic instead of ``itertools.product``, and look masses up in
a padded d-dimensional cumulative-count grid via inclusion–exclusion —
``2^d`` vectorized gathers instead of one rank scan per rectangle.  Row
order and float values match the reference enumerators *exactly*; the
test suite compares the two directly.  The size guard runs on per-axis
option *counts* computed arithmetically, so an oversized coreset is
refused before any option table is allocated.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.geometry.rectangle import Rectangle

#: Refuse to enumerate more than this many rectangles for a single coreset —
#: a guard against accidental eps choices that would exhaust memory.
MAX_RECTANGLES_PER_CORESET = 2_000_000


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


def _padded_cumulative_counts(grid: RectangleGrid) -> np.ndarray:
    """Padded d-dim cumulative point counts over the grid cells.

    ``out[i_1 + 1, ..., i_d + 1]`` is the number of coreset points whose
    rank on every axis ``h`` is ``<= i_h``; any index 0 means "strictly
    below the grid" and contributes 0, which makes the inclusion–exclusion
    gathers of :func:`_box_counts` branch-free.
    """
    shape = tuple(grid.n_coords(h) for h in range(grid.dim))
    hist = np.zeros(shape, dtype=np.int64)
    np.add.at(hist, tuple(grid._ranks[:, h] for h in range(grid.dim)), 1)
    for h in range(grid.dim):
        hist = np.cumsum(hist, axis=h)
    padded = np.zeros(tuple(m + 1 for m in shape), dtype=np.int64)
    padded[tuple(slice(1, None) for _ in shape)] = hist
    return padded


def _box_counts(
    padded: np.ndarray, lo_idx: np.ndarray, hi_idx: np.ndarray
) -> np.ndarray:
    """``|rho ∩ S|`` for ``(P, d)`` index rectangles, via 2^d gathers.

    Standard inclusion–exclusion on the padded cumulative grid:
    ``count = sum_{e in {0,1}^d} (-1)^{|e|} C[c(e)]`` with corner
    ``c(e)_h = hi_h + 1`` when ``e_h = 0`` and ``lo_h`` otherwise.
    """
    n, d = lo_idx.shape
    counts = np.zeros(n, dtype=np.int64)
    for corner in range(1 << d):
        cols = []
        sign = 1
        for h in range(d):
            if corner >> h & 1:
                cols.append(lo_idx[:, h])
                sign = -sign
            else:
                cols.append(hi_idx[:, h] + 1)
        counts += sign * padded[tuple(cols)]
    return counts


def _product_total(sizes: Sequence[int], what: str) -> int:
    """Size of the per-axis option cross product, guard-checked *before*
    any ``O(total)`` allocation happens."""
    total = 1
    for s in sizes:
        total *= int(s)
    if total > MAX_RECTANGLES_PER_CORESET:
        raise ValueError(
            f"coreset would induce {total} {what} "
            f"(> {MAX_RECTANGLES_PER_CORESET}); reduce the coreset size"
        )
    return total


def _product_option_indices(sizes: Sequence[int], total: int) -> list[np.ndarray]:
    """Per-axis option-index columns realizing ``itertools.product`` order.

    ``cols[h][p]`` is the option the ``p``-th combination picks on axis
    ``h`` (last axis varying fastest, exactly like ``itertools.product``).
    """
    if total == 0:
        return [np.empty(0, dtype=np.int64) for _ in sizes]
    flat = np.arange(total)
    cols: list[np.ndarray] = []
    stride = total
    for s in sizes:
        stride //= int(s)
        cols.append((flat // stride) % int(s))
    return cols


def rectangles_arrays(
    grid: RectangleGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The family ``R_i`` as block matrices: ``(lo, hi, mass)``.

    ``lo``/``hi`` have shape ``(P, d)`` and ``mass`` shape ``(P,)``; row
    ``p`` is the rectangle ``[lo[p], hi[p]]`` with its coreset mass.  Rows
    follow :meth:`RectangleGrid.index_rectangles` order, so this is
    :func:`enumerate_rectangles` with the Python objects unwrapped — the
    test suite asserts exact (bitwise) agreement.  ``P = 0`` yields
    correctly shaped empty matrices.
    """
    d = grid.dim
    sizes = [m * (m + 1) // 2 for m in map(grid.n_coords, range(d))]
    total = _product_total(sizes, "rectangles")
    cols = _product_option_indices(sizes, total)
    lo_idx = np.empty((total, d), dtype=np.int64)
    hi_idx = np.empty((total, d), dtype=np.int64)
    lo = np.empty((total, d))
    hi = np.empty((total, d))
    for h in range(d):
        i, j = np.triu_indices(grid.n_coords(h))
        lo_idx[:, h] = i[cols[h]]
        hi_idx[:, h] = j[cols[h]]
        lo[:, h] = grid.coords[h][lo_idx[:, h]]
        hi[:, h] = grid.coords[h][hi_idx[:, h]]
    counts = _box_counts(_padded_cumulative_counts(grid), lo_idx, hi_idx)
    return lo, hi, counts / grid.points.shape[0]


def generalized_pairs_arrays(
    grid: RectangleGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generalized maximal pairs as block matrices.

    Returns ``(inner_lo, inner_hi, outer_lo, outer_hi, weight)`` with the
    four coordinate matrices shaped ``(P, d)`` and ``weight`` shaped
    ``(P,)`` — :func:`enumerate_generalized_pairs` with the per-pair tuples
    unwrapped, in the same row order and with bitwise-equal floats (the
    test suite asserts it).  Gap axes carry the ``GAP_INNER_*`` sentinels
    and force weight 0, exactly as in the reference enumerator.  ``P = 0``
    (a grid with a degenerate axis) yields correctly shaped empty
    matrices rather than the ragged ``(0,)`` array a naive
    ``np.asarray([])`` would produce.
    """
    d = grid.dim
    # Per axis: (m-2)(m-1)/2 rectangle options plus m-1 gap options.
    sizes = [
        max(0, m - 2) * (m - 1) // 2 + (m - 1)
        for m in map(grid.n_coords, range(d))
    ]
    total = _product_total(sizes, "generalized pairs")
    ax_in_lo: list[np.ndarray] = []
    ax_in_hi: list[np.ndarray] = []
    ax_out_lo: list[np.ndarray] = []
    ax_out_hi: list[np.ndarray] = []
    ax_lo_idx: list[np.ndarray] = []
    ax_hi_idx: list[np.ndarray] = []
    for h in range(d):
        coords = grid.coords[h]
        m = coords.size
        i, j = np.triu_indices(max(0, m - 2))
        i = i + 1
        j = j + 1
        g = np.arange(m - 1)
        ax_in_lo.append(np.concatenate([coords[i], np.full(g.size, GAP_INNER_LO)]))
        ax_in_hi.append(np.concatenate([coords[j], np.full(g.size, GAP_INNER_HI)]))
        ax_out_lo.append(np.concatenate([coords[i - 1], coords[g]]))
        ax_out_hi.append(np.concatenate([coords[j + 1], coords[g + 1]]))
        ax_lo_idx.append(np.concatenate([i, np.full(g.size, -1, dtype=np.int64)]))
        ax_hi_idx.append(np.concatenate([j, np.full(g.size, -1, dtype=np.int64)]))
    cols = _product_option_indices(sizes, total)
    inner_lo = np.empty((total, d))
    inner_hi = np.empty((total, d))
    outer_lo = np.empty((total, d))
    outer_hi = np.empty((total, d))
    lo_idx = np.empty((total, d), dtype=np.int64)
    hi_idx = np.empty((total, d), dtype=np.int64)
    for h in range(d):
        o = cols[h]
        inner_lo[:, h] = ax_in_lo[h][o]
        inner_hi[:, h] = ax_in_hi[h][o]
        outer_lo[:, h] = ax_out_lo[h][o]
        outer_hi[:, h] = ax_out_hi[h][o]
        lo_idx[:, h] = ax_lo_idx[h][o]
        hi_idx[:, h] = ax_hi_idx[h][o]
    weight = np.zeros(total)
    valid = (lo_idx >= 0).all(axis=1)
    if valid.any():
        counts = _box_counts(
            _padded_cumulative_counts(grid), lo_idx[valid], hi_idx[valid]
        )
        weight[valid] = counts / grid.points.shape[0]
    return inner_lo, inner_hi, outer_lo, outer_hi, weight


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
