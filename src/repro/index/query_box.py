"""Axis-parallel query boxes with per-side open/closed bounds.

The orthant of Algorithm 4 mixes closed constraints (``[R-_h, inf)``) with
*strict* ones (``(-inf, R-_h)``), so the range-searching substrate must
distinguish open and closed endpoints exactly — an epsilon "nudge" is not
acceptable in a correctness-first reproduction.

Open sides are therefore folded, once per box, into *closed effective
bounds* that are exact over the doubles: ``x > a`` holds iff
``x >= nextafter(a, +inf)`` and ``x < b`` iff ``x <= nextafter(b, -inf)``
(:func:`_closed_bounds`).  A :class:`QueryBox` says what one box is; the
predicates live on :class:`BoxBatch` alone, a stack of boxes, and a single
box is its own one-row batch (:attr:`QueryBox.batch`).  They compare
against the two bound arrays only, and skip a side no box constrains — an
orthant query constrains each coordinate on exactly one side.  Points are
assumed NaN-free (every backend validates or generates them so).

Containment only ever *compares*, so it survives any order-preserving
recoding of the coordinates: the kd-tree stores each column as ranks in a
sorted level table, and :meth:`BoxBatch.coded` translates the closed
effective bounds into closed rank bounds (:func:`_code_bounds`).  Where
two columns hold equal tables and equal codes the tree stores the codes
once, and :func:`_fold_columns` gives the stored column the intersection
of both columns' rank bounds.  The predicates and the one kernel below
then run unchanged on small unsigned integers.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np


def _closed_bounds(
    lo: np.ndarray, hi: np.ndarray, lo_open: np.ndarray, hi_open: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed ``(elo, ehi)`` with ``elo <= x <= ehi`` iff ``x`` is in the box.

    The one definition of open/closed endpoint semantics: a
    :class:`QueryBox` folds its flags through it once.  An open bound at
    its own infinity (``x > +inf``, ``x < -inf``) admits nothing, not even
    the infinity ``nextafter`` would leave in place: it becomes NaN,
    against which every comparison is false.
    """
    elo = np.where(lo_open, np.nextafter(lo, np.inf), lo)
    ehi = np.where(hi_open, np.nextafter(hi, -np.inf), hi)
    elo[lo_open & (lo == np.inf)] = np.nan
    ehi[hi_open & (hi == -np.inf)] = np.nan
    return elo, ehi


def _constrained_sides(elo: np.ndarray, ehi: np.ndarray) -> list:
    """The ``(column, comparison, 0 = elo / 1 = ehi)`` sides that some row
    of the ``(q, k)`` bounds actually constrains; an orthant has one per
    column, not two."""
    return [
        (j, np.greater_equal, 0)
        for j in np.flatnonzero((elo != -np.inf).any(axis=0))
    ] + [
        (j, np.less_equal, 1)
        for j in np.flatnonzero((ehi != np.inf).any(axis=0))
    ]


def _contains_points(
    points: np.ndarray, bounds: tuple[np.ndarray, np.ndarray], sides: list
) -> np.ndarray:
    """``(q, n)`` membership of ``(n, k)`` points in ``q`` boxes — the one
    containment kernel (a single box is the ``q = 1`` batch).

    One ``(q, n)`` comparison per constrained side, column by column: the
    first writes the result, the rest are ANDed into it through one reused
    scratch matrix.  Columns are read as ``points[:, j]``, so a
    column-major point matrix is scanned contiguously.
    """
    pts = np.asarray(points)
    shape = (bounds[0].shape[0], pts.shape[0])
    if not sides:
        return np.ones(shape, dtype=bool)
    ok = np.empty(shape, dtype=bool)
    scratch = np.empty(shape, dtype=bool)
    out = ok
    for j, compare, side in sides:
        compare(pts[:, j], bounds[side][:, j, None], out=out)
        if out is scratch:
            ok &= scratch
        out = scratch
    return ok


def _code_bounds(
    elo: np.ndarray, ehi: np.ndarray, sides: list, tables: Sequence[np.ndarray], dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed ``(q, k)`` float bounds as closed bounds on *ranks*.

    ``tables[j]`` is column ``j``'s sorted level table and a stored code is
    its level's rank, so with ``clo`` the first level ``>= elo`` and ``chi``
    the last level ``<= ehi``, ``clo <= code <= chi`` iff ``elo <= level <=
    ehi`` — exactly; nothing is rounded.  Only the constrained ``sides``
    are searched, the rest keep their free value (rank 0 / the top rank).

    Returns ``(clo, chi, keep)``: bounds in the code ``dtype`` for the rows
    ``keep`` that still admit some level of every column.  A row that
    admits none — an open-at-own-infinity NaN bound included — has no
    representation in an unsigned dtype and is dropped instead.
    """
    clo = np.zeros(elo.shape, dtype=np.intp)
    chi = np.empty(ehi.shape, dtype=np.intp)
    chi[:] = [table.size - 1 for table in tables]
    for j, _compare, side in sides:
        if side == 0:
            clo[:, j] = np.searchsorted(tables[j], elo[:, j], side="left")
        else:
            chi[:, j] = np.searchsorted(tables[j], ehi[:, j], side="right") - 1
    dead = (clo > chi) | np.isnan(elo) | np.isnan(ehi)
    keep = np.flatnonzero(~dead.any(axis=1))
    return clo[keep].astype(dtype), chi[keep].astype(dtype), keep


class QueryBox:
    """A product of per-dimension intervals, each side open or closed.

    Parameters
    ----------
    constraints:
        Sequence of ``(lo, hi, lo_open, hi_open)`` tuples, one per dimension
        of the indexed point set.  Use ``-math.inf`` / ``math.inf`` for
        unbounded sides.

    Examples
    --------
    >>> box = QueryBox([(0.0, 1.0, False, True)])   # [0, 1)
    >>> box.contains_point([0.0]), box.contains_point([1.0])
    (True, False)
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open", "dim", "elo", "ehi", "_batch")

    def __init__(self, constraints: Sequence[tuple[float, float, bool, bool]]) -> None:
        if len(constraints) == 0:
            raise ValueError("query box needs at least one dimension")
        self.lo = np.array([c[0] for c in constraints], dtype=float)
        self.hi = np.array([c[1] for c in constraints], dtype=float)
        self.lo_open = np.array([bool(c[2]) for c in constraints])
        self.hi_open = np.array([bool(c[3]) for c in constraints])
        self.dim = len(constraints)
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise ValueError("query box bounds must not be NaN")
        self.elo, self.ehi = _closed_bounds(
            self.lo, self.hi, self.lo_open, self.hi_open
        )
        self._batch: Optional[BoxBatch] = None

    @staticmethod
    def closed(lo: Sequence[float], hi: Sequence[float]) -> "QueryBox":
        """A fully closed box ``[lo_1, hi_1] x ... x [lo_k, hi_k]``."""
        return QueryBox([(float(a), float(b), False, False) for a, b in zip(lo, hi)])

    @staticmethod
    def unbounded(dim: int) -> "QueryBox":
        """The whole space (useful for weight-only filters)."""
        return QueryBox([(-math.inf, math.inf, False, False)] * dim)

    @property
    def batch(self) -> "BoxBatch":
        """This box as a one-row :class:`BoxBatch`, built on first use and
        kept: a single-box walker queries one box many times (the
        ReportFirst loop), and building a batch costs more than one
        predicate on it does."""
        if self._batch is None:
            self._batch = BoxBatch([self])
        return self._batch

    def contains_point(self, point: Sequence[float]) -> bool:
        """Whether a single point satisfies every constraint: the box
        contains the point's degenerate bbox."""
        p = np.asarray(point, dtype=float)
        return bool(self.batch.contains_bbox(p, p)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for i in range(self.dim):
            left = "(" if self.lo_open[i] else "["
            right = ")" if self.hi_open[i] else "]"
            parts.append(f"{left}{self.lo[i]:g}, {self.hi[i]:g}{right}")
        return "QueryBox(" + " x ".join(parts) + ")"


class BoxBatch:
    """A stack of ``Q`` same-dimension boxes for broadcast containment.

    The one home of the box predicates — point containment, bbox
    intersection and bbox containment over a ``(Q, k)`` stack of closed
    bounds — for every backend and for one box alike (a single-box query
    asks its :attr:`QueryBox.batch`, ``Q = 1``).  The optional ``rows``
    argument restricts a call to a subset of boxes (an int index array) —
    the shared kd traversal narrows its alive set this way without
    re-stacking constraints.

    A batch is also the list of the boxes it stacks (``len``, iteration),
    so it can be handed to any backend's multi-box kernel in place of that
    list: a batch queried on several backends — every unit of a sharded
    executor — is stacked once (:func:`_as_batch`).  The rank-coded
    batches :meth:`coded` returns keep their length, not their boxes.

    Examples
    --------
    >>> batch = BoxBatch([QueryBox([(0.0, 1.0, False, True)]),
    ...                   QueryBox([(0.5, 2.0, True, False)])])
    >>> batch.contains_points(np.array([[1.0], [0.6]])).tolist()
    [[False, True], [True, True]]
    """

    __slots__ = ("elo", "ehi", "dim", "n_boxes", "_sides", "boxes")

    def __init__(self, boxes: Sequence[QueryBox]) -> None:
        boxes = list(boxes)
        if not boxes:
            raise ValueError("box batch needs at least one box")
        dims = {box.dim for box in boxes}
        if len(dims) != 1:
            raise ValueError("all boxes in a batch must share a dimension")
        self.dim = dims.pop()
        self.n_boxes = len(boxes)
        self.boxes = boxes
        self.elo = np.stack([box.elo for box in boxes])
        self.ehi = np.stack([box.ehi for box in boxes])
        self._sides = _constrained_sides(self.elo, self.ehi)

    def __len__(self) -> int:
        return self.n_boxes

    def __iter__(self) -> Iterator[QueryBox]:
        return iter(self.boxes)

    def coded(
        self, tables: Sequence[np.ndarray], dtype
    ) -> tuple["BoxBatch", np.ndarray]:
        """This batch over rank-coded columns (:func:`_code_bounds`), and
        the indexes of the boxes it keeps — the ones that admit no level
        of some column are left out, so the coded batch may be empty."""
        batch = BoxBatch.__new__(BoxBatch)
        batch.elo, batch.ehi, keep = _code_bounds(
            self.elo, self.ehi, self._sides, tables, dtype
        )
        batch.dim = self.dim
        batch.n_boxes = int(keep.size)
        batch._sides = self._sides
        return batch, keep

    def _bounds(self, rows) -> tuple[np.ndarray, np.ndarray]:
        if rows is None:
            return self.elo, self.ehi
        return self.elo[rows], self.ehi[rows]

    def contains_points(self, points: np.ndarray, rows=None) -> np.ndarray:
        """``(Q', n)`` membership matrix for an ``(n, k)`` point array."""
        return _contains_points(points, self._bounds(rows), self._sides)

    def intersects_bbox(self, blo: np.ndarray, bhi: np.ndarray, rows=None) -> np.ndarray:
        """``(Q',)`` mask: which boxes may contain a point of ``[blo, bhi]``."""
        elo, ehi = self._bounds(rows)
        return ((bhi >= elo) & (blo <= ehi)).all(axis=1)

    def contains_bbox(self, blo: np.ndarray, bhi: np.ndarray, rows=None) -> np.ndarray:
        """``(Q',)`` mask: which boxes contain *every* point of ``[blo, bhi]``."""
        elo, ehi = self._bounds(rows)
        return ((blo >= elo) & (bhi <= ehi)).all(axis=1)


def _as_batch(boxes: Sequence[QueryBox]) -> BoxBatch:
    """A non-empty box list as one batch: the list itself when it is a
    :class:`BoxBatch` already, so a shared batch is never stacked again."""
    return boxes if isinstance(boxes, BoxBatch) else BoxBatch(boxes)


def _fold_columns(
    batch: BoxBatch, keep: np.ndarray, columns: np.ndarray
) -> tuple[BoxBatch, np.ndarray]:
    """A coded batch and its kept box indexes, moved onto stored code columns.

    ``columns[j]`` is the stored column holding column ``j``'s codes, the
    stored columns numbered in first-use order.  Columns that share one
    hold equal codes, so their rank bounds intersect (``clo = max``,
    ``chi = min``) and a box whose intersection is empty is dropped, as one
    that admits no level is.  Two sides on one stored column become one.
    A map without repeats is the identity: the batch comes back as it is.
    """
    rows = columns.tolist()
    first = [rows.index(row) for row in range(max(rows) + 1)]
    if len(first) == len(rows):
        return batch, keep
    lo, hi = batch.elo[:, first], batch.ehi[:, first]
    for j, row in enumerate(rows):
        if first[row] != j:
            np.maximum(lo[:, row], batch.elo[:, j], out=lo[:, row])
            np.minimum(hi[:, row], batch.ehi[:, j], out=hi[:, row])
    alive = (lo <= hi).all(axis=1)
    folded = BoxBatch.__new__(BoxBatch)
    folded.elo, folded.ehi = lo[alive], hi[alive]
    folded.dim = len(first)
    folded.n_boxes = int(alive.sum())
    folded._sides = list(
        dict.fromkeys((rows[j], cmp, side) for j, cmp, side in batch._sides)
    )
    return folded, keep[alive]
