"""Approximate Pref index for one threshold-predicate (Section 5).

Implements Algorithms 5 (construction) and 6 (query) and therefore the
guarantees of Theorem 5.4: ``~O(N)`` space per net direction,
construction dominated by the synopsis ``Score`` calls, and for a query
``(u, theta = [a_theta, inf))``:

- (recall)    every dataset with ``omega_k(P_i, u) >= a_theta`` is reported;
- (precision) every reported ``j`` has
  ``omega_k(P_j, u) >= a_theta - 2 eps - 2 delta_j`` (Lemma 5.2; the theorem
  folds the factor 2 by halving eps).

Construction builds a centrally symmetric ε-net ``C`` of unit vectors and
estimates, for each net vector ``v`` and dataset ``i``, the score
``gamma_v^(i) = S_{P_i}.Score(v, k)``.  A query snaps ``u`` to its
nearest net vector (error ``<= eps`` per Lemma 5.1, points in the unit
ball — for general data the error scales with the data radius) and
reports every dataset whose score on that vector clears ``a_theta - eps``.

Per-dataset deltas (Remark 2) are supported by storing the shifted score
``gamma + delta_i`` so the slack becomes a global threshold.

Storage is one row-major ``(|C|, capacity)`` float64 matrix — a row per
net direction, a column per dataset, dataset key ≡ column position —
plus a ``live`` mask.  What this trades against the paper's layout: a
query is one vectorised pass over the ``N`` scores of a row, not the
``O(log N + OUT)`` walk of a per-direction search tree.  That pass was
no slower at any size or selectivity measured, ``N = 64`` to ``200 000``
(table in ROADMAP, "Pref gets the PR-14 treatment"), so the ordered
layout of Algorithm 5 survives as the brute-force oracle in
``tests/core/test_pref_index.py``, not as a second production store.
Dynamics (Remark 1) are an amortised-doubling column append and a
tombstone in the mask; keys are never reused.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.results import QueryResult, _emit
from repro.errors import ConstructionError, QueryError
from repro.geometry.epsilon_net import build_epsilon_net, nearest_net_vector
from repro.geometry.interval import Interval
from repro.synopsis.base import Synopsis


def pref_threshold(theta: Interval) -> float:
    """``a_theta`` of a preference leaf, which must be ``[a_theta, inf)``.

    The Pref problem is defined on one-sided intervals (a finite upper
    bound would need the symmetric net direction), and scores are
    unbounded — ``Interval.is_threshold``'s "``hi >= 1`` is no bound" holds
    for percentile mass only.  Every path that answers a preference leaf
    reads its threshold through here.
    """
    if theta.hi != math.inf:
        raise QueryError("preference predicates support one-sided theta = [a, inf)")
    return theta.lo


class PrefIndex:
    """The Pref data structure for one threshold-predicate (Theorem 5.4).

    Parameters
    ----------
    synopses:
        One synopsis per dataset (must support the preference class).
    k:
        The rank of the top-k preference measure (fixed per structure, as in
        the paper's Problem 2).
    eps:
        Direction-net resolution (the paper's eps).
    delta:
        Optional global synopsis-error bound; default: per-synopsis
        ``delta_pref`` (Remark 2 semantics).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.synopsis import ExactSynopsis
    >>> rng = np.random.default_rng(2)
    >>> data = [rng.uniform(-1, 1, size=(300, 2)) * 0.5 for _ in range(5)]
    >>> idx = PrefIndex([ExactSynopsis(p) for p in data], k=3, eps=0.1)
    >>> res = idx.query(np.array([1.0, 0.0]), a_theta=-1.0)
    >>> sorted(res.indexes)
    [0, 1, 2, 3, 4]
    """

    def __init__(
        self,
        synopses: Iterable[Synopsis],
        k: int,
        eps: float = 0.1,
        delta: Optional[float] = None,
    ) -> None:
        syn_list = list(synopses)
        if not syn_list:
            raise ConstructionError("need at least one synopsis")
        if k < 1:
            raise ConstructionError("k must be >= 1")
        if not 0.0 < eps < 1.0:
            raise ConstructionError(f"eps must be in (0, 1), got {eps}")
        dims = {s.dim for s in syn_list}
        if len(dims) != 1:
            raise ConstructionError("all synopses must share the same dimension")
        self.dim = dims.pop()
        self.k = int(k)
        self.eps = float(eps)
        self.net = build_epsilon_net(self.dim, eps)
        # Column j holds dataset j's shifted scores; columns [0, _n) are
        # in use and never reassigned, so a key is its column position.
        self._scores = np.empty((self.net.shape[0], len(syn_list)))
        self._live = np.zeros(len(syn_list), dtype=bool)
        self._deltas: list[float] = []
        self._n = 0
        for syn in syn_list:
            self.insert_synopsis(syn, delta)

    @property
    def n_datasets(self) -> int:
        """Current number of indexed datasets."""
        return int(np.count_nonzero(self._live[: self._n]))

    @property
    def n_directions(self) -> int:
        """Size of the ε-net ``|C| = O(eps^{-(d-1)})``."""
        return int(self.net.shape[0])

    def _check_key(self, key: int) -> None:
        if not (0 <= key < self._n and self._live[key]):
            raise KeyError(f"unknown dataset key {key}")

    def delta_of(self, key: int) -> float:
        """The synopsis error ``delta_i`` used for a dataset."""
        self._check_key(key)
        return self._deltas[key]

    # ------------------------------------------------------------------
    # Query (Algorithm 6)
    # ------------------------------------------------------------------
    def query(  # lint: hot-path
        self,
        vector: np.ndarray,
        a_theta: float,
        record_times: bool = False,
    ) -> QueryResult:
        """Report datasets with (approximately) ``omega_k(P_i, u) >= a_theta``.

        Keys come back in ascending order.  ``-inf`` scores (``k`` exceeds
        the dataset) clear no finite threshold.  With ``record_times`` the
        whole answer exists once the vectorised pass returns, so the first
        gap is the query and the rest are the cost of handing ids out.
        """
        u = np.asarray(vector, dtype=float)
        if u.ndim != 1 or u.shape[0] != self.dim:
            raise QueryError(f"query vector must have shape ({self.dim},)")
        vi = nearest_net_vector(self.net, u)
        result = QueryResult(stats={"net_vector": vi})
        return _emit(result, self._clearing(vi, a_theta), record_times)

    def _clearing(self, vi: int, a_theta: float) -> Iterator[int]:
        n = self._n
        hits = self._live[:n] & (self._scores[vi, :n] >= a_theta - self.eps)
        yield from np.flatnonzero(hits).tolist()

    def query_expression(
        self, vector: np.ndarray, theta: Interval, **kwargs
    ) -> QueryResult:
        """Interval-flavoured entry point (requires ``theta = [a, inf)``)."""
        return self.query(vector, pref_threshold(theta), **kwargs)

    # ------------------------------------------------------------------
    # Dynamics (Remark 1 after Theorem 5.4)
    # ------------------------------------------------------------------
    def insert_synopsis(self, synopsis: Synopsis, delta: Optional[float] = None) -> int:
        """Add a dataset in ``O(Lambda_S + |C|)`` amortized; returns its key."""
        if synopsis.dim != self.dim:
            raise ConstructionError("synopsis dimension mismatch")
        d_i = delta if delta is not None else synopsis.delta_pref
        if d_i is None:
            raise ConstructionError("synopsis does not support the class F_k")
        gamma = np.asarray(synopsis.score_batch(self.net, self.k), dtype=float)
        key = self._n
        if key == self._scores.shape[1]:
            scores = np.empty((self._scores.shape[0], 2 * key))
            scores[:, :key] = self._scores
            live = np.zeros(2 * key, dtype=bool)
            live[:key] = self._live
            self._scores, self._live = scores, live
        # gamma + delta_i makes the per-dataset slack a global threshold;
        # -inf stays -inf.
        np.add(gamma, float(d_i), out=self._scores[:, key])
        self._live[key] = True
        self._deltas.append(float(d_i))
        self._n = key + 1
        return key

    def delete_synopsis(self, key: int) -> None:
        """Remove a dataset by key (a tombstone; the column is not reused)."""
        self._check_key(key)
        self._live[key] = False
