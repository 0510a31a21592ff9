"""T-5.4 — Theorem 5.4: the Pref threshold structure, measured.

Paper claims: O(N) space per net direction, construction dominated by the
synopsis Score calls, O(log N + OUT) query, recall 1, precision within
eps + 2*delta (after eps-halving; we expose the algorithmic 2*eps slack).
We sweep N and compare against the Ω(total points) exact scan.  The
repo's ``PrefIndex`` keeps each direction's scores as an unsorted matrix
row, so "query (s)" is one vectorised threshold pass over N floats plus
the OUT-sized id list — linear in N with a constant of about a
nanosecond per score, not the theorem's log N walk.

Run ``python benchmarks/bench_thm54_pref.py`` for the tables.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.pref_scan import LinearScanPref
from repro.bench.harness import TableReporter, fit_loglog_slope, time_callable
from repro.core.pref_index import PrefIndex
from repro.synopsis.exact import ExactSynopsis

K = 5
EPS = 0.1
A_THETA = 0.45


def planted_lake(n: int, rng):
    datasets = []
    for i in range(n):
        reach = 0.2 + 0.6 * ((i % 25) / 25)
        pts = rng.uniform(-reach, reach, size=(300, 2))
        datasets.append(np.clip(pts, -0.99, 0.99))
    return datasets


def run_scale(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    datasets = planted_lake(n, rng)
    syns = [ExactSynopsis(p) for p in datasets]
    build = time_callable(lambda: PrefIndex(syns, k=K, eps=EPS), repeats=1)
    index = PrefIndex(syns, k=K, eps=EPS)
    scan = LinearScanPref(datasets)
    u = np.array([0.6, 0.8])
    truth = {
        i for i, p in enumerate(datasets) if np.sort(p @ u)[300 - K] >= A_THETA
    }
    result = index.query(u, A_THETA)
    recall = 1.0 if truth <= result.index_set else 0.0
    precision_ok = all(
        np.sort(datasets[j] @ u)[300 - K] >= A_THETA - 2 * EPS - 1e-9
        for j in result.indexes
    )
    q_index = time_callable(lambda: index.query(u, A_THETA), repeats=5)
    q_scan = time_callable(lambda: scan.query(u, K, A_THETA), repeats=3)
    return {
        "n": n,
        "build": build,
        "dirs": index.n_directions,
        "out": result.out_size,
        "recall": recall,
        "precision_ok": precision_ok,
        "q_index": q_index,
        "q_scan": q_scan,
    }


def main() -> None:
    table = TableReporter(
        f"T-5.4: Pref structure vs N (k = {K}, eps = {EPS}, a_theta = {A_THETA})",
        ["N", "build (s)", "|C| dirs", "OUT", "recall", "precision ok",
         "query (s)", "scan (s)", "speedup"],
    )
    ns, queries, scans = [], [], []
    for n in (50, 100, 200, 400):
        r = run_scale(n, seed=n)
        table.add_row(
            [r["n"], r["build"], r["dirs"], r["out"], r["recall"],
             r["precision_ok"], r["q_index"], r["q_scan"],
             r["q_scan"] / max(r["q_index"], 1e-9)]
        )
        assert r["recall"] == 1.0 and r["precision_ok"]
        ns.append(n)
        queries.append(r["q_index"])
        scans.append(r["q_scan"])
    table.print()
    print(f"index query slope vs N: {fit_loglog_slope(ns, queries):.2f} "
          "(one vectorised pass over a row of N scores + OUT ids; the net "
          "snap and call overhead dominate at these N; paper: O(log N + OUT))")
    print(f"scan  query slope vs N: {fit_loglog_slope(ns, scans):.2f} (baseline: Ω(N))")


if __name__ == "__main__":
    main()
