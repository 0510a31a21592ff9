"""T-4.11 — Theorem 4.11: the Ptile range structure, measured.

Paper claims: ~O(N) space/preprocessing, ~O(1 + OUT) query, recall 1,
two-sided precision a - eps - 2delta <= M_R(P_j) <= b + eps + 2delta, no
duplicates (Lemma 4.9).  Sweeps N with planted masses and verifies every
claim per query.

Run ``python benchmarks/bench_thm411_ptile_range.py`` for the table and
the construction slope; it writes no file.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.linear_scan import LinearScanPtile
from repro.bench.harness import TableReporter, fit_loglog_slope, time_callable
from repro.core.ptile_range import PtileRangeIndex
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.workloads.generators import dataset_with_mass

QUERY = Rectangle([0.0], [0.25])
THETA = Interval(0.3, 0.6)
SAMPLE_SIZE = 16


def planted_lake(n: int, rng: np.random.Generator):
    datasets, masses = [], []
    for i in range(n):
        mass = (i % 20) / 20 + 0.025
        pts = dataset_with_mass(400, QUERY, mass, rng)
        datasets.append(pts)
        masses.append(QUERY.count_inside(pts) / 400)
    return datasets, masses


def run_scale(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    datasets, masses = planted_lake(n, rng)
    syns = [ExactSynopsis(p) for p in datasets]
    build_time = time_callable(
        lambda: PtileRangeIndex(
            syns, eps=0.1, sample_size=SAMPLE_SIZE, rng=np.random.default_rng(1)
        ),
        repeats=1,
    )
    index = PtileRangeIndex(
        syns, eps=0.1, sample_size=SAMPLE_SIZE, rng=np.random.default_rng(1)
    )
    scan = LinearScanPtile(datasets, mode="tree")
    truth = {i for i, m in enumerate(masses) if m in THETA}
    result = index.query(QUERY, THETA)
    slack = 2 * index.eps_effective
    recall = 1.0 if truth <= result.index_set else 0.0
    two_sided_ok = all(
        THETA.lo - slack - 1e-9 <= masses[j] <= THETA.hi + slack + 1e-9
        for j in result.indexes
    )
    no_dups = len(result.indexes) == len(result.index_set)
    q_index = time_callable(lambda: index.query(QUERY, THETA), repeats=3)
    q_scan = time_callable(lambda: scan.query(QUERY, THETA), repeats=3)
    return {
        "n": n,
        "build": build_time,
        "points": index.n_mapped_points,
        "out": result.out_size,
        "recall": recall,
        "two_sided_ok": two_sided_ok,
        "no_dups": no_dups,
        "q_index": q_index,
        "q_scan": q_scan,
    }


def main() -> None:
    table = TableReporter(
        f"T-4.11: Ptile range structure vs N (theta = [{THETA.lo}, {THETA.hi}])",
        ["N", "build (s)", "mapped pts", "OUT", "recall", "2-sided ok",
         "no dups", "query (s)", "scan (s)"],
    )
    ns, builds = [], []
    for n in (40, 80, 160):
        r = run_scale(n, seed=n)
        table.add_row(
            [r["n"], r["build"], r["points"], r["out"], r["recall"],
             r["two_sided_ok"], r["no_dups"], r["q_index"], r["q_scan"]]
        )
        assert r["recall"] == 1.0 and r["two_sided_ok"] and r["no_dups"]
        ns.append(n)
        builds.append(r["build"])
    table.print()
    slope = fit_loglog_slope(ns, builds)
    print(f"construction slope vs N: {slope:.2f} (paper: ~1)")
    print("All Theorem 4.11 guarantees held on every sweep point.")


if __name__ == "__main__":
    main()
