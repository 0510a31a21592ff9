"""T-BASE — Section 4.1's baseline comparison, with OUT held fixed.

Paper artifact: the motivation for the new structures — the naive exact
scan is Ω(N) per query and Fainder-style histogram search is also
super-linear in N, while the new structure answers in ~O(1 + OUT).  We
hold the output size roughly constant while N grows (a fixed number of
planted qualifying datasets among a growing sea of non-qualifying ones)
and report who wins and by what factor, plus capability differences.

Run ``python benchmarks/bench_baselines_crossover.py`` for the tables.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fainder import FainderStyleIndex
from repro.baselines.linear_scan import LinearScanPtile
from repro.bench.harness import TableReporter, fit_loglog_slope, time_callable
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.workloads.generators import dataset_with_mass

QUERY = Rectangle([0.0], [0.25])
A_THETA = 0.8
PLANTED_HITS = 10
#: Coreset size and a FIXED phi: with the default phi = 1/N the effective
#: eps (union bound) grows with N and would widen the slack until the
#: planted gap disappears — the honest cost of the paper's
#: s = Theta(eps^-2 log(N/phi)) coreset bound.
SAMPLE_SIZE = 48
PHI = 0.5


def lake_with_fixed_out(n: int, rng):
    """PLANTED_HITS qualifying datasets; the rest far below threshold.

    The gap (0.9 vs 0.05) exceeds 2*eps_effective at every sweep N, so the
    output size stays pinned at PLANTED_HITS while N grows."""
    datasets = []
    for i in range(n):
        mass = 0.9 if i < PLANTED_HITS else 0.05
        datasets.append(dataset_with_mass(300, QUERY, mass, rng))
    return datasets


def run_scale(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    datasets = lake_with_fixed_out(n, rng)
    index = PtileThresholdIndex(
        [ExactSynopsis(p) for p in datasets],
        eps=0.1,
        phi=PHI,
        sample_size=SAMPLE_SIZE,
        rng=np.random.default_rng(1),
    )
    scan = LinearScanPtile(datasets, mode="tree")
    fainder = FainderStyleIndex(datasets, bins=32)
    res = index.query(QUERY, A_THETA)
    assert set(range(PLANTED_HITS)) <= res.index_set
    assert res.out_size == PLANTED_HITS, "OUT must stay fixed for the sweep"
    q_index = time_callable(lambda: index.query(QUERY, A_THETA), repeats=5)
    q_scan = time_callable(
        lambda: scan.query(QUERY, Interval(A_THETA, 1.0)), repeats=3
    )
    q_fainder = time_callable(
        lambda: fainder.query(0, "below", 0.25, A_THETA, mode="over"), repeats=5
    )
    return {"n": n, "out": res.out_size, "index": q_index, "scan": q_scan,
            "fainder": q_fainder}


def main() -> None:
    table = TableReporter(
        f"T-BASE: query time vs N with OUT fixed at ~{PLANTED_HITS} "
        f"(threshold a = {A_THETA})",
        ["N", "OUT", "ours (s)", "scan (s)", "fainder (s)",
         "scan/ours", "fainder/ours"],
    )
    ns, ours, scans, fainders = [], [], [], []
    for n in (50, 100, 200, 400, 800):
        r = run_scale(n, seed=n)
        table.add_row(
            [r["n"], r["out"], r["index"], r["scan"], r["fainder"],
             r["scan"] / max(r["index"], 1e-9),
             r["fainder"] / max(r["index"], 1e-9)]
        )
        ns.append(n)
        ours.append(r["index"])
        scans.append(r["scan"])
        fainders.append(r["fainder"])
    table.print()
    s_ours = fit_loglog_slope(ns, ours)
    s_scan = fit_loglog_slope(ns, scans)
    s_fainder = fit_loglog_slope(ns, fainders)
    print(f"slope vs N — ours: {s_ours:.2f}, scan: {s_scan:.2f}, fainder: {s_fainder:.2f}")
    print("Paper's shape: both baselines are Ω(N) (slope ~1); the new index is")
    print("output-sensitive (slope well below 1 with OUT fixed) and wins by a")
    print("growing factor as N scales.")
    assert s_scan > s_ours, "the scan must scale worse than the index"
    table2 = TableReporter(
        "T-BASE: capability matrix (paper Section 1 / Related Work)",
        ["capability", "ours", "linear scan", "fainder [8]"],
    )
    table2.add_row(["multi-attribute rectangles", "yes", "yes", "no"])
    table2.add_row(["two-sided theta", "yes", "yes", "no"])
    table2.add_row(["preference (top-k) queries", "yes", "via pref-scan", "no"])
    table2.add_row(["federated synopses", "yes", "no (raw data)", "yes"])
    table2.add_row(["no false negatives", "yes", "exact", "only 'over' mode"])
    table2.add_row(["output-sensitive query time", "yes", "no", "no"])
    table2.print()


if __name__ == "__main__":
    main()
