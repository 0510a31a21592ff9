"""Shared machinery of the two Ptile data structures (Sections 4.2-4.3).

Both indexes follow the same recipe (Section 4.1):

1. draw a coreset ``S_i`` of ``Theta(eps^-2 log(N/phi))`` samples from each
   synopsis (an ``(eps+delta_i)``-sample by Lemma 2.1);
2. enumerate combinatorially different rectangles over each coreset and map
   them (or maximal pairs of them) to weighted points in a higher-dimensional
   space — the whole coreset stack at once, cut into pieces of one block
   budget by :func:`_row_ranges` (the Theorem C.8 tensor cuts its rows the
   same way), as level codes: coordinates as positions in the stack's
   sorted axis tables, weights on the ``count/s ± delta_i`` lattice
   (:func:`_weight_levels`), so no piece is a float matrix and no column
   is sorted again to rank it;
3. index the mapped points with a pluggable range-search backend
   (:mod:`repro.index.backend`), the kd-tree planting on the codes; and
4. answer queries with one bulk pass that reports each dataset once — the
   batched form of the paper's repeated ``ReportFirst`` + temporary
   deletion of all points of the reported dataset (Algorithms 2, 4),
   which :func:`_report` keeps as the timed mode so per-report delays stay
   measurable.  A batch of boxes is one ``report_groups_many`` call, and
   its per-box sorted unique key arrays are the answers: a caller packs
   each into a bitmap with no set or list between.  An untimed query of
   one box is that call over a batch of one.

Per-dataset deltas (Remark 2) are supported exactly by storing *two* weight
coordinates per mapped point, ``w + delta_i`` and ``w - delta_i``: the
per-dataset slack then becomes a global box constraint
(``w + delta_i >= a - eps`` and ``w - delta_i <= b + eps``).  Where every
``delta_i`` is 0 (an exact lake) the two coordinates have one level table
and equal codes, and the kd-tree stores the codes once
(:mod:`repro.index.kd_tree`): the second weight costs a table and a map
entry, not a byte per mapped point.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.geometry.epsilon_sample import epsilon_of_sample_size, epsilon_sample_size
from repro.geometry.rect_enum import _row_owners
from repro.geometry.rectangle import Rectangle
from repro.index import backend
from repro.index.backend import DYNAMIC_ENGINES, _decode, backend_class
from repro.index.query_box import QueryBox
from repro.synopsis.base import Synopsis


def resolve_deltas(
    synopses: Sequence[Synopsis], delta: Optional[float]
) -> list[float]:
    """Per-dataset synopsis errors ``delta_i``.

    ``delta`` overrides all synopsis-advertised errors (the paper's "known
    global upper bound" setting); otherwise each synopsis' own
    ``delta_ptile`` is used (Remark 2's per-dataset setting).
    """
    if delta is not None:
        if not 0.0 <= delta < 1.0:
            raise ConstructionError(f"delta must be in [0, 1), got {delta}")
        return [float(delta)] * len(synopses)
    deltas = []
    for i, syn in enumerate(synopses):
        d_i = syn.delta_ptile
        if d_i is None:
            raise ConstructionError(
                f"synopsis {i} does not support the percentile class F_□"
            )
        deltas.append(float(min(d_i, 1.0 - 1e-12)))
    return deltas


#: Cap on mapped points contributed by one dataset.  The rectangle
#: enumeration grows as (s^2/2)^d in the coreset size s; this budget keeps
#: the structure laptop-sized while the query slack is widened to the
#: *effective* eps of the capped coreset so all guarantees stay honest.
DEFAULT_POINT_BUDGET = 4096


def max_sample_for_budget(dim: int, budget: int) -> int:
    """Largest coreset size whose rectangle family fits the point budget."""
    per_axis = budget ** (1.0 / dim)
    # s(s+1)/2 <= per_axis  =>  s ~ sqrt(2 * per_axis)
    s = int((2.0 * per_axis) ** 0.5)
    return max(2, s)


def resolve_phi(phi: Optional[float], n_datasets: int) -> float:
    """Effective coreset failure probability: explicit, or the 1/N default.

    Single owner of the default so the service-layer sharded executor
    resolves exactly what an unsharded engine would.
    """
    return phi if phi is not None else 1.0 / max(2, n_datasets)


def resolve_sample_size(
    eps: float,
    phi: Optional[float],
    n_datasets: int,
    sample_size: Optional[int],
    dim: int,
) -> int:
    """Coreset size: explicit override, or the Theta(eps^-2 log(N/phi))
    bound capped by the per-dataset mapped-point budget
    (:data:`DEFAULT_POINT_BUDGET`)."""
    if sample_size is not None:
        if sample_size < 2:
            raise ConstructionError("sample_size must be >= 2")
        return int(sample_size)
    theoretical = epsilon_sample_size(eps, resolve_phi(phi, n_datasets), n_datasets)
    return min(theoretical, max_sample_for_budget(dim, DEFAULT_POINT_BUDGET))


def draw_coreset(
    synopsis: Synopsis, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``S_i = S_{P_i}.Sample(size)`` with duplicate columns tolerated."""
    sample = synopsis.sample(size, rng)
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2 or sample.shape[0] == 0:
        raise ConstructionError("synopsis returned an invalid sample")
    return sample


def _weight_levels(
    size: int, deltas: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The level tables of the weight columns ``w + delta_i`` and
    ``w - delta_i`` (coresets of ``size``): the lattice of the ``size + 1``
    counts by the distinct deltas, built with a row mapping's own float
    operations (``count / size``, then ``±`` the delta), so its levels are
    bitwise the mapped weights and coinciding ones are one level.  Returns
    ``(which, [(table, code)] for + and -)``: a row of dataset ``k`` with
    ``count`` points inside sits at level ``code[count, which[k]]``.
    """
    distinct, which = np.unique(deltas, return_inverse=True)
    mass = (np.arange(size + 1) / size)[:, None]
    lattices = []
    for values in (mass + distinct, mass - distinct):
        table, code = np.unique(values.ravel(), return_inverse=True)
        dtype = np.min_scalar_type(table.size - 1)
        lattices.append((table, code.reshape(values.shape).astype(dtype)))
    return which, lattices


def _row_ranges(
    counts: np.ndarray, columns: int
) -> Iterator[tuple[slice, tuple[int, int], np.ndarray, np.ndarray]]:
    """Cut a stack's mapped rows into pieces of one block budget.

    Dataset ``k`` of the stack maps to ``counts[k]`` rows of ``columns``
    elements, dataset after dataset; the rows are cut into consecutive
    ranges of at most :data:`~repro.index.backend.BLOCK_ELEMENTS` elements
    (one row at least), so a range may begin and end inside a dataset and
    no dataset's whole enumeration need exist.  Yields, per range, the
    datasets it touches (a slice of the stack), the range relative to the
    first of them (the ``rows`` of an enumerator call over that slice),
    and every row's dataset (a stack position) and position among that
    dataset's rows.
    """
    ends = np.cumsum(counts)
    total = int(counts.sum())
    budget = max(1, backend.BLOCK_ELEMENTS // columns)
    for start in range(0, total, budget):
        stop = min(start + budget, total)
        # The datasets with rows in [start, stop): `first` up to `last`.
        first, last = np.searchsorted(ends, [start, stop - 1], side="right")
        offset = int(ends[first] - counts[first])
        rows = (start - offset, stop - offset)
        owner, position = _row_owners(counts[first : last + 1], *rows)
        yield slice(first, last + 1), rows, first + owner, position


def _report(tree, box: QueryBox, record_times: bool, n_datasets: int) -> QueryResult:
    """Report every dataset with an active mapped point of ``tree`` in the
    box — the query of Algorithms 2 and 4 and of the Theorem C.8 tensor.

    Two modes, identical answer sets:

    - **batched** (default): one ``report_groups_many`` call over a batch
      of one box — the multi-box walk plus an integer group-by on the
      kd-tree, the kernel a batch of boxes runs.  No state is mutated.
    - **incremental** (``record_times=True``): the paper's loop — repeat
      ReportFirst, emit the hit dataset, temporarily deactivate all its
      points (one ``deactivate_group`` call) — so every emission carries
      its own timestamp and the delay-guarantee benchmarks can measure
      real inter-report gaps.  All deactivated points are re-activated
      before returning, restoring the structure (Algorithm 2 line 7 /
      Algorithm 4 line 8).
    """
    result = QueryResult()
    if not record_times:
        result.indexes = tree.report_groups_many([box])[0].tolist()
        result.stats["deleted_points"] = 0
        result.stats["loop_iterations"] = 1
        return result
    return _emit(result, _report_first(tree, box, n_datasets, result.stats), True)


def _report_first(tree, box: QueryBox, n_datasets: int, stats: dict) -> Iterator[int]:
    """The ReportFirst / deactivate loop as a lazy stream of keys."""
    reported: list[int] = []
    deleted = 0
    try:
        while (key := tree.report_first(box)) is not None:
            if len(reported) > n_datasets:  # pragma: no cover - safety net
                raise QueryError("report loop exceeded dataset count; corrupt state")
            reported.append(key)
            yield key
            deleted += tree.deactivate_group(key)
    finally:
        for key in reported:
            tree.activate_group(key)
    stats["deleted_points"] = deleted
    stats["loop_iterations"] = len(reported) + 1


class PtileIndexBase:
    """Common bookkeeping for the threshold and range Ptile indexes."""

    def __init__(
        self,
        synopses: Iterable[Synopsis],
        eps: float,
        phi: Optional[float],
        delta: Optional[float],
        sample_size: Optional[int],
        engine: str,
        rng: Optional[np.random.Generator],
    ) -> None:
        self._synopses: dict[int, Synopsis] = {}
        self._deltas: dict[int, float] = {}
        self._coresets: dict[int, np.ndarray] = {}
        syn_list = list(synopses)
        if not syn_list:
            raise ConstructionError("need at least one synopsis")
        if not 0.0 < eps < 1.0:
            raise ConstructionError(f"eps must be in (0, 1), got {eps}")
        dims = {s.dim for s in syn_list}
        if len(dims) != 1:
            raise ConstructionError("all synopses must share the same dimension")
        self.dim = dims.pop()
        self.eps = float(eps)
        backend_class(engine)  # an unknown name fails here, not at the first query
        self.engine_kind = engine
        self._rng = rng if rng is not None else np.random.default_rng()
        self._next_key = 0
        self._phi_eff = resolve_phi(phi, len(syn_list))
        self._sample_size = resolve_sample_size(
            eps, phi, len(syn_list), sample_size, self.dim
        )
        # If the coreset was capped below the theoretical size for the
        # requested eps, widen the slack to the eps the coreset actually
        # buys — the recall guarantee is preserved at reduced precision.
        # ``eps_effective`` is a public attribute: callers who KNOW their
        # synopsis samples are an exact cover (e.g. the paper's toy
        # examples, or deterministic synopses) may assign it back to ``eps``.
        self.eps_effective = max(
            self.eps,
            epsilon_of_sample_size(self._sample_size, self._phi_eff, len(syn_list)),
        )
        deltas = resolve_deltas(syn_list, delta)
        self._pending = list(zip(syn_list, deltas))
        self._tree = None

    # ------------------------------------------------------------------
    # Shared accessors
    # ------------------------------------------------------------------
    @property
    def n_datasets(self) -> int:
        """Current number of indexed datasets."""
        return len(self._synopses)

    @property
    def sample_size(self) -> int:
        """Coreset size per dataset."""
        return self._sample_size

    @property
    def keys(self) -> list[int]:
        """Stable dataset keys (equal to 0..N-1 for a static repository)."""
        return sorted(self._synopses)

    @property
    def n_mapped_points(self) -> int:
        """Total number of mapped points stored in the engine."""
        return len(self._tree)

    def coreset(self, key: int) -> np.ndarray:
        """The coreset ``S_i`` drawn for a dataset (for diagnostics/tests)."""
        return self._coresets[key]

    def delta_of(self, key: int) -> float:
        """The synopsis error ``delta_i`` used for a dataset."""
        return self._deltas[key]

    def _check_query_rect(self, rect: Rectangle) -> None:
        if rect.dim != self.dim:
            raise QueryError(
                f"query rectangle has dim {rect.dim}, index has dim {self.dim}"
            )

    def coreset_mass(self, key: int, rect: Rectangle) -> float:
        """``|S_i ∩ R| / |S_i|`` — the coreset's estimate of ``M_R(P_i)``."""
        coreset = self._coresets[key]
        return rect.count_inside(coreset) / coreset.shape[0]

    # ------------------------------------------------------------------
    # Registration and dynamics (Remark 1 after Theorem 4.4/4.11); the
    # subclass supplies ``_mapped(keys, coresets, deltas)``, the datasets'
    # mapped points as a stream of ``(codes, tables, ids)`` pieces in key
    # order, raising ``ConstructionError`` for a dataset it refuses.
    # ------------------------------------------------------------------
    def _register(
        self, synopsis: Synopsis, delta_i: float, coreset: np.ndarray
    ) -> int:
        key = self._next_key
        self._next_key += 1
        self._synopses[key] = synopsis
        self._deltas[key] = delta_i
        self._coresets[key] = coreset
        return key

    def _register_pending(self) -> list[int]:
        """Draw every constructor synopsis' coreset, in order, and register it."""
        size, rng = self._sample_size, self._rng
        keys = [
            self._register(synopsis, delta_i, draw_coreset(synopsis, size, rng))
            for synopsis, delta_i in self._pending
        ]
        del self._pending
        return keys

    def _stacked(self, keys: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Registered datasets' ``(K, s, d)`` coreset stack and deltas."""
        coresets = np.stack([self._coresets[k] for k in keys])
        return coresets, np.array([self._deltas[k] for k in keys])

    def insert_synopsis(
        self, synopsis: Synopsis, delta: Optional[float] = None
    ) -> int:
        """Add a dataset; returns its stable key.  ``~O(1)`` amortized."""
        if self.engine_kind not in DYNAMIC_ENGINES:
            raise ConstructionError(
                f"engine {self.engine_kind!r} is static; dynamic updates "
                f"require a dynamic backend, one of {DYNAMIC_ENGINES}"
            )
        if synopsis.dim != self.dim:
            raise ConstructionError("synopsis dimension mismatch")
        if delta is None:
            delta = synopsis.delta_ptile
            if delta is None:
                raise ConstructionError("synopsis does not support class F_□")
        delta = float(delta)
        coreset = draw_coreset(synopsis, self._sample_size, self._rng)
        # Map before registering: a refused dataset leaves no trace.
        pts, ids = _decode(
            self._mapped([self._next_key], coreset[None], np.array([delta]))
        )
        self._tree.insert(pts, ids)
        return self._register(synopsis, delta, coreset)

    def delete_synopsis(self, key: int) -> None:
        """Remove a dataset by key.  ``~O(1)`` amortized per mapped point."""
        if key not in self._synopses:
            raise KeyError(f"unknown dataset key {key}")
        self._tree.remove_group(key)
        del self._synopses[key], self._deltas[key], self._coresets[key]
