"""Synopsis-screened degraded answers (must / maybe bounds).

When a query's deadline fires before the executor finished — or the
caller explicitly asks for a cheap answer — the service does not return
a 500: it answers from the per-dataset synopses that are *already in the
tree* (every :class:`~repro.service.sharding.ShardedBatchExecutor` keeps
one synopsis per dataset; they are what the shard engines were built
from).  The degraded answer is the three-valued shape the ROADMAP's
tiered planner calls for: a **must** bitmap of datasets certain to be in
the engine's answer and a **maybe** bitmap of datasets that might be,
with everything outside both certain to be absent.

Soundness (why ``must ⊆ engine ⊆ must ∪ maybe``)
------------------------------------------------
Screening evaluates each leaf's measure directly on each dataset's
synopsis and compares against the leaf's interval ``theta``:

- **Percentile leaf** (``M_R``, engine recall is exact and precision
  slack is ``2·eps_effective + 2·delta`` per dataset — the query box is
  widened by ``eps_effective`` around *coreset* masses, themselves within
  ``eps_effective`` of the true ones): the synopsis mass
  ``m`` brackets the true mass in ``[m-d, m+d]`` with
  ``d = delta_ptile``.  If that whole bracket lies inside ``theta`` the
  true mass does too, and exact recall puts the dataset in the engine's
  answer — *must*.  Conversely the engine only reports datasets whose
  true mass lies in ``theta`` widened by ``2·eps_effective + 2d``; if the
  bracket misses even the widened interval the engine cannot report it —
  *can't*.  Everything between is *maybe*.
- **Preference leaf** (``M_{v,k}``, threshold ``tau``; the Pref
  structure compares net-direction synopsis scores shifted by ``d =
  delta_pref`` against ``tau - eps``): synopsis score ``s`` at the query
  vector with ``s - d >= tau`` forces the net-direction shifted score
  over the engine's threshold (directions differ by at most ``eps`` and
  the paper's unit-ball datasets make scores 1-Lipschitz in the
  direction) — *must*.  The engine cannot report a dataset with
  ``s + d < tau - (2·eps + 2d)`` — *can't*.

Monotonicity of And/Or then lifts per-leaf bounds to whole expressions
(the planner's :func:`~repro.service.planner.combine_bounds`):
intersecting/unioning lower bounds stays a lower bound, ditto upper.  A
synopsis that cannot evaluate a measure class
(:class:`~repro.errors.CapabilityError`) is conservatively *maybe*.

With exact synopses (``delta = 0``) the must set is exactly the
ground-truth answer and the maybe band covers precisely the engine's
precision slack, which is what the resilience tests assert.

Screens are **never cached**: bounds depend on the live synopsis list
(which grows under ingestion) and are only computed on the degraded
path, where an O(N) synopsis sweep per screened leaf is the price of
answering at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Optional, Sequence

from repro.core.bitset import DatasetBitmap
from repro.core.measures import PercentileMeasure, PreferenceMeasure
from repro.core.predicates import Predicate
from repro.core.pref_index import pref_threshold
from repro.errors import CapabilityError, QueryError
from repro.geometry.interval import Interval
from repro.service.planner import LeafBounds

if TYPE_CHECKING:
    from repro.service.sharding import ShardedBatchExecutor
    from repro.synopsis.base import Synopsis


def classify_ptile(
    syn: "Synopsis",
    measure: PercentileMeasure,
    theta: Interval,
    eps_effective: Optional[float],
) -> str:
    """``"must"`` / ``"maybe"`` / ``"cant"`` for one percentile leaf.

    ``eps_effective`` is the precision slack of the engine that would
    answer exactly; pass ``None`` when it is unknown (a federated
    coordinator screening a remote node's synopses without its accuracy
    contract) — the *must* verdict is slack-free, but nothing can then be
    ruled out, so the unknown-slack screen never answers ``"cant"``.
    """
    try:
        m = float(syn.mass(measure.rect))
    except CapabilityError:
        return "maybe"
    d = syn.delta_ptile or 0.0
    if (m - d) in theta and (m + d) in theta:
        return "must"
    if eps_effective is None:
        return "maybe"
    wide = theta.expand(2.0 * eps_effective + 2.0 * d)
    if (m + d) < wide.lo or (m - d) > wide.hi:
        return "cant"
    return "maybe"


def classify_pref(
    syn: "Synopsis",
    measure: PreferenceMeasure,
    theta: Interval,
    eps: Optional[float],
) -> str:
    """``"must"`` / ``"maybe"`` / ``"cant"`` for one preference leaf.

    Same contract as :func:`classify_ptile`: ``eps`` is the direction-net
    resolution of the answering engine, ``None`` disables the ``"cant"``
    verdict (the *must* side needs only the synopsis's own ``delta_pref``).
    """
    try:
        s = float(syn.score(measure.vector, measure.k))
    except CapabilityError:
        return "maybe"
    d = syn.delta_pref or 0.0
    tau = theta.lo
    if s - d >= tau and not (theta.lo_open and s - d == tau):
        return "must"
    if eps is None:
        return "maybe"
    if s + d < tau - (2.0 * eps + 2.0 * d):
        return "cant"
    return "maybe"


def screen_synopses(
    synopses: Sequence["Synopsis"],
    leaf: Predicate,
    *,
    eps: Optional[float] = None,
    eps_effective: Optional[float] = None,
    removed: AbstractSet[int] = frozenset(),
    n_datasets: Optional[int] = None,
) -> LeafBounds:
    """``(must, possible)`` bounds for ``leaf`` over a plain synopsis list.

    The executor-free core of :meth:`SynopsisScreen.screen_leaf`, shared
    with the federation coordinator (which screens a *node's* registered
    synopses when that node cannot answer).  ``eps`` / ``eps_effective``
    are the answering engine's slack parameters; either may be ``None``
    when unknown, degrading that side of the screen to all-``maybe``
    (sound, just looser).  ``n_datasets`` sizes the bitmaps (default: the
    synopsis count).
    """
    measure = leaf.measure
    theta = leaf.theta
    if isinstance(measure, PreferenceMeasure):
        pref_threshold(theta)  # refuses anything but [a, inf)
    elif not isinstance(measure, PercentileMeasure):
        raise QueryError(f"unsupported measure {type(measure).__name__}")
    must_ids: list[int] = []
    possible_ids: list[int] = []
    for i, syn in enumerate(synopses):
        if i in removed:
            continue
        if isinstance(measure, PercentileMeasure):
            verdict = classify_ptile(syn, measure, theta, eps_effective)
        else:
            verdict = classify_pref(syn, measure, theta, eps)
        if verdict == "must":
            must_ids.append(i)
            possible_ids.append(i)
        elif verdict == "maybe":
            possible_ids.append(i)
    n = len(synopses) if n_datasets is None else n_datasets
    return (
        DatasetBitmap.from_indices(must_ids, n),
        DatasetBitmap.from_indices(possible_ids, n),
    )


class SynopsisScreen:
    """Screen predicate leaves against an executor's synopses.

    Stateless apart from the executor reference: every call reads the
    executor's *current* synopsis list and tombstone mask, so bounds stay
    correct across live ingestion and removals.
    """

    def __init__(self, executor: "ShardedBatchExecutor") -> None:
        self._executor = executor

    def screen_leaf(self, leaf: Predicate) -> LeafBounds:
        """``(must, possible)`` bitmaps over the executor's universe.

        ``must`` holds datasets certain to appear in the engine's answer
        for this leaf; ``possible`` additionally holds every dataset the
        engine *could* report (``possible ⊇ must``); the complement of
        ``possible`` is certain to be absent.  Tombstoned datasets are
        excluded from both (the executor masks them out of real answers).
        """
        ex = self._executor
        return screen_synopses(
            ex.synopses,
            leaf,
            eps=ex.eps,
            eps_effective=ex.eps_effective,
            removed=ex.removed,
            n_datasets=ex.n_datasets,
        )
