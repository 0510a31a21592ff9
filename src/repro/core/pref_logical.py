"""Pref index for logical expressions of m threshold-predicates (App. D.1).

Theorem D.4: conjunctions of ``m`` preference predicates are answered by an
``m``-dimensional range tree per subset ``V = (v_1, ..., v_m)`` of ε-net
vectors, over the points ``(gamma_{v_1}^(i), ..., gamma_{v_m}^(i))``.

The paper precomputes a tree for *every* subset (``O(eps^{-m(d-1)})`` of
them).  We build them **lazily, keyed by the queried subset, with a cache**
— identical outputs and identical per-query asymptotics after first
touch; ``precompute_all=True`` restores the paper's eager behaviour for
small nets.

Disjunctions reduce to per-predicate queries with de-duplication, exactly
as the paper notes.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.geometry.epsilon_net import build_epsilon_net, nearest_net_vector
from repro.index.query_box import QueryBox
from repro.index.range_tree import RangeTree
from repro.synopsis.base import Synopsis

_NEG = -1e300


class PrefLogicalIndex:
    """Pref structure for conjunctions/disjunctions of m predicates.

    Parameters
    ----------
    synopses:
        One synopsis per dataset (preference class).
    k:
        The fixed rank of the top-k measure class.
    eps:
        Direction-net resolution.
    delta:
        Optional global synopsis-error bound (default per-synopsis).
    precompute_all / max_subset_size:
        Eagerly build every subset tree up to the given ``m`` (paper's
        behaviour) — exponential in ``m``; keep nets tiny.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.synopsis import ExactSynopsis
    >>> rng = np.random.default_rng(4)
    >>> data = [rng.uniform(-0.5, 0.5, size=(200, 2)) for _ in range(6)]
    >>> idx = PrefLogicalIndex([ExactSynopsis(p) for p in data], k=2, eps=0.2)
    >>> res = idx.query_conjunction(
    ...     [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [-1.0, -1.0])
    >>> sorted(res.indexes)
    [0, 1, 2, 3, 4, 5]
    """

    def __init__(
        self,
        synopses: Iterable[Synopsis],
        k: int,
        eps: float = 0.1,
        delta: Optional[float] = None,
        precompute_all: bool = False,
        max_subset_size: int = 2,
    ) -> None:
        syn_list = list(synopses)
        if not syn_list:
            raise ConstructionError("need at least one synopsis")
        if k < 1:
            raise ConstructionError("k must be >= 1")
        dims = {s.dim for s in syn_list}
        if len(dims) != 1:
            raise ConstructionError("all synopses must share the same dimension")
        self.dim = dims.pop()
        self.k = int(k)
        self.eps = float(eps)
        self.net = build_epsilon_net(self.dim, eps)
        self._synopses = syn_list
        self._deltas = []
        for i, syn in enumerate(syn_list):
            d_i = delta if delta is not None else syn.delta_pref
            if d_i is None:
                raise ConstructionError(f"synopsis {i} does not support class F_k")
            self._deltas.append(float(d_i))
        # gamma cache: net index -> shifted scores over all datasets.
        self._gamma: dict[int, np.ndarray] = {}
        # subset trees: sorted tuple of net indices -> RangeTree.
        self._trees: dict[tuple[int, ...], RangeTree] = {}
        if precompute_all:
            for m in range(1, max_subset_size + 1):
                for combo in itertools.combinations(range(self.net.shape[0]), m):
                    self._tree_for(combo)

    @property
    def n_datasets(self) -> int:
        """Number of indexed datasets."""
        return len(self._synopses)

    @property
    def n_cached_trees(self) -> int:
        """Number of subset trees currently materialized."""
        return len(self._trees)

    # ------------------------------------------------------------------
    def _gamma_for(self, vi: int) -> np.ndarray:
        if vi not in self._gamma:
            v = self.net[vi]
            vals = np.empty(len(self._synopses))
            for i, syn in enumerate(self._synopses):
                gamma = syn.score(v, self.k)
                vals[i] = _NEG if math.isinf(gamma) and gamma < 0 else gamma + self._deltas[i]
            self._gamma[vi] = vals
        return self._gamma[vi]

    def _tree_for(self, net_indices: Sequence[int]) -> RangeTree:
        key = tuple(net_indices)
        if key not in self._trees:
            cols = [self._gamma_for(vi) for vi in key]
            pts = np.column_stack(cols)
            self._trees[key] = RangeTree(pts)
        return self._trees[key]

    # ------------------------------------------------------------------
    def query_conjunction(
        self,
        vectors: Sequence[np.ndarray],
        thresholds: Sequence[float],
        record_times: bool = False,
    ) -> QueryResult:
        """Datasets satisfying every ``omega_k(P_i, u_l) >= a_l`` (approx.).

        Guarantee (Theorem D.4): no dataset satisfying all predicates is
        missed, and every reported ``j`` has
        ``omega_k(P_j, u_l) >= a_l - 2 eps - 2 delta_j`` for every ``l``.
        """
        if len(vectors) != len(thresholds) or not vectors:
            raise QueryError("need equally many vectors and thresholds (>= 1)")
        result = QueryResult()
        hits = self._conjunction(vectors, thresholds, result.stats)
        return _emit(result, hits, record_times)

    def _conjunction(
        self, vectors: Sequence[np.ndarray], thresholds: Sequence[float], stats: dict
    ) -> Iterator[int]:
        net_idx = [nearest_net_vector(self.net, np.asarray(u, float)) for u in vectors]
        # De-duplicate repeated snapped directions by keeping the tightest
        # threshold (a conjunction over one direction is its max threshold).
        tightest: dict[int, float] = {}
        for vi, a in zip(net_idx, thresholds):
            tightest[vi] = max(tightest.get(vi, -math.inf), float(a))
        key = tuple(sorted(tightest))
        tree = self._tree_for(key)
        box = QueryBox(
            [(tightest[vi] - self.eps, math.inf, False, False) for vi in key]
        )
        stats["net_vectors"] = key
        for idx in tree.report_many([box])[0]:
            yield int(idx)

    def query_disjunction(
        self,
        vectors: Sequence[np.ndarray],
        thresholds: Sequence[float],
        record_times: bool = False,
    ) -> QueryResult:
        """Datasets satisfying at least one predicate (union, de-duplicated)."""
        if len(vectors) != len(thresholds) or not vectors:
            raise QueryError("need equally many vectors and thresholds (>= 1)")
        hits = self._disjunction(vectors, thresholds)
        return _emit(QueryResult(), hits, record_times)

    def _disjunction(
        self, vectors: Sequence[np.ndarray], thresholds: Sequence[float]
    ) -> Iterator[int]:
        seen: set[int] = set()
        for u, a in zip(vectors, thresholds):
            for idx in self.query_conjunction([u], [a]).indexes:
                if idx not in seen:
                    seen.add(idx)
                    yield idx
