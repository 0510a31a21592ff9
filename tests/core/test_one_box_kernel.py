"""Untimed box queries run the batch kernels; only ReportFirst descends.

Every index that reports the points of one box without ``record_times``
asks its tree for a batch of one (``report_many`` /
``report_groups_many``). kd's single-box ``_visit`` descent is left to
``report_first`` — the timed ReportFirst loop of Algorithms 2 and 4 — and
``count``. Each case spies on the trees' kernels while one query runs, on
kd-trees with small leaves so the walks have inner nodes to prune, and
checks the answer against the timed loop or a brute-force reference.
"""

import numpy as np
import pytest

from repro.core.diversity_index import DiversityIndex, diameter
from repro.core.measures import PercentileMeasure
from repro.core.nn_index import NearestNeighborIndex
from repro.core.pref_logical import PrefLogicalIndex
from repro.core.predicates import And, pred
from repro.core.ptile_exact_1d import ExactPtile1DIndex
from repro.core.ptile_logical import PtileLogicalIndex
from repro.core.ptile_range import PtileRangeIndex
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.index.kd_tree import DynamicKDTree
from repro.index.range_tree import RangeTree
from repro.synopsis.cover import CoverSynopsis
from repro.synopsis.exact import ExactSynopsis

LEFT = Rectangle([0.0], [0.5])
RIGHT = Rectangle([0.5], [1.0])
KERNELS = ("report_many", "report_groups_many")


@pytest.fixture
def calls(monkeypatch, small_leaves):
    """The name of every batch-kernel and kd ``_visit`` call, in order."""
    seen = []
    for cls, names in ((DynamicKDTree, (*KERNELS, "_visit")), (RangeTree, KERNELS)):
        for name in names:
            def spy(self, *args, _label=f"{cls.__name__}.{name}",
                    _original=getattr(cls, name), **kwargs):
                seen.append(_label)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
    return seen


def one_d(rng, n=6, size=120):
    """Datasets whose mass in [0, 0.5] climbs from 1/(n+1) to n/(n+1)."""
    out = []
    for i in range(n):
        n_in = int(size * (i + 1) / (n + 1))
        out.append(np.vstack([
            rng.uniform(0.0, 0.5, size=(n_in, 1)),
            rng.uniform(0.5001, 1.0, size=(size - n_in, 1)),
        ]))
    return out


def ptile_index(cls, rng, engine, **kwargs):
    return cls([ExactSynopsis(p) for p in one_d(rng)], eps=0.15, sample_size=12,
               engine=engine, rng=rng, **kwargs)


#: Ptile queries, each ``(index, untimed or timed) -> QueryResult``; their
#: timed form runs the ReportFirst loop, so the two walks can be compared.
#: The range tree is built only for the threshold index: its 1-D mapped
#: space is the one small enough to build in well under a second.
PTILE = {
    "range": lambda rng, engine: (
        ptile_index(PtileRangeIndex, rng, engine),
        lambda idx, timed: idx.query(LEFT, Interval(0.6, 1.0), record_times=timed),
    ),
    "threshold": lambda rng, engine: (
        ptile_index(PtileThresholdIndex, rng, engine),
        lambda idx, timed: idx.query(LEFT, 0.6, record_times=timed),
    ),
    "logical-tensor": lambda rng, engine: (
        ptile_index(PtileLogicalIndex, rng, engine, strategy="tensor"),
        lambda idx, timed: idx.query(And([
            pred(PercentileMeasure(LEFT), 0.6, 1.0),
            pred(PercentileMeasure(RIGHT), 0.0, 0.4),
        ]), record_times=timed),
    ),
}


@pytest.mark.parametrize("kind, engine", [
    ("logical-tensor", "kd"), ("range", "kd"), ("threshold", "kd"),
    ("threshold", "rangetree"),
])
def test_untimed_ptile_query_is_one_batch_call(calls, rng, kind, engine):
    idx, run = PTILE[kind](rng, engine)
    calls.clear()
    untimed = run(idx, False)
    tree = "DynamicKDTree" if engine == "kd" else "RangeTree"
    assert f"{tree}.report_groups_many" in calls
    assert "DynamicKDTree._visit" not in calls
    assert untimed.indexes == sorted(set(untimed.indexes))
    assert 0 < untimed.out_size < idx.n_datasets
    timed = run(idx, True)
    assert timed.index_set == untimed.index_set
    assert len(timed.indexes) == len(timed.emit_times) == untimed.out_size


@pytest.mark.parametrize("kind", sorted(PTILE))
def test_timed_ptile_query_descends_with_report_first(calls, rng, kind):
    idx, run = PTILE[kind](rng, "kd")
    calls.clear()
    run(idx, True)
    assert "DynamicKDTree._visit" in calls
    assert not set(calls) & {f"DynamicKDTree.{k}" for k in KERNELS}


@pytest.mark.parametrize("engine", ["kd", "rangetree"])
def test_exact_1d_reads_one_report_many(calls, rng, engine):
    datasets = [rng.uniform(size=int(rng.integers(10, 40))) for _ in range(6)]
    idx = ExactPtile1DIndex(datasets, Interval(0.2, 0.6), engine=engine)
    calls.clear()
    res = idx.query(0.1, 0.55)
    tree = "DynamicKDTree" if engine == "kd" else "RangeTree"
    assert calls.count(f"{tree}.report_many") == 1
    assert "DynamicKDTree._visit" not in calls
    assert res.index_set == idx.brute_force(0.1, 0.55) != set()
    assert len(res.indexes) == res.out_size


def test_pref_conjunction_reads_one_report_many(calls, rng):
    datasets = [np.clip(rng.normal(rng.uniform(-0.4, 0.4, size=2), 0.15, (120, 2)),
                        -0.95, 0.95) for _ in range(12)]
    idx = PrefLogicalIndex([ExactSynopsis(p) for p in datasets], k=3, eps=0.15)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    calls.clear()
    res = idx.query_conjunction([e1, e2], [0.1, 0.1])
    assert calls == ["RangeTree.report_many"]
    assert 0 < res.out_size and len(res.indexes) == res.out_size
    def top_3(p, u):
        return float(np.sort(p @ u)[len(p) - 3])

    truth = {i for i, p in enumerate(datasets)
             if top_3(p, e1) >= 0.1 and top_3(p, e2) >= 0.1}
    assert truth <= res.index_set


def clustered(rng, n=10):
    return [np.clip(rng.normal(np.full(2, 0.1 + 0.08 * i), 0.03, (150, 2)), 0.0, 1.0)
            for i in range(n)]


def test_nearest_neighbour_prefilter_is_one_batch_call(calls, rng):
    datasets = clustered(rng)
    idx = NearestNeighborIndex([CoverSynopsis(p, 0.05) for p in datasets])
    q, tau = np.array([0.45, 0.45]), 0.15
    calls.clear()
    res = idx.query(q, tau)
    assert calls[0] == "DynamicKDTree.report_groups_many"
    assert "DynamicKDTree._visit" not in calls
    truth = {i for i, p in enumerate(datasets)
             if np.linalg.norm(p - q, axis=1).min() <= tau}
    assert truth and truth <= res.index_set
    assert res.indexes == sorted(res.index_set)


def test_diversity_prefilter_is_one_batch_call(calls, rng):
    datasets = clustered(rng)
    idx = DiversityIndex([CoverSynopsis(p, 0.04) for p in datasets])
    box = Rectangle([0.0, 0.0], [0.6, 0.6])
    calls.clear()
    res = idx.query(box, 0.1)
    assert calls[0] == "DynamicKDTree.report_groups_many"
    assert "DynamicKDTree._visit" not in calls
    truth = set()
    for i, p in enumerate(datasets):
        inside = p[np.all((p >= 0.0) & (p <= 0.6), axis=1)]
        if diameter(inside) >= 0.1:
            truth.add(i)
    assert truth and truth <= res.index_set
