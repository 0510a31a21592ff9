"""T-DELAY — delay guarantees (Section 1.3(iii), Remarks after Thms).

Paper artifact: the structures report indexes with polylog delay — the gap
between consecutive reports is bounded, never Ω(N).  We record per-emission
timestamps on large-output queries and compare the maximum inter-report gap
with the total time an Ω(N) scan needs before its first report can be
confirmed complete.

Run ``python benchmarks/bench_delay_guarantees.py`` for the table.  It
asserts that every full-output query reports every dataset with one
emission stamp per report; the gaps are timings, printed and not asserted.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter
from repro.core.ptile_range import PtileRangeIndex
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.core.pref_index import PrefIndex
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.workloads.generators import synthetic_data_lake

QUERY = Rectangle([0.0], [0.5])


def delay_stats(result, n: int) -> tuple[float, float]:
    """Median and max gap of a full-output query over ``n`` datasets.

    The query must report every dataset, and each report carries one
    emission stamp, so the gaps (start to first report, between reports,
    last report to end) number ``out_size + 1``.  The gaps themselves are
    timings and are only printed.
    """
    assert sorted(result.indexes) == list(range(n)), "not a full-output query"
    gaps = result.delays()
    assert len(gaps) == result.out_size + 1, (
        f"{len(gaps)} gaps for {result.out_size} reports: a report "
        "without its emission stamp"
    )
    return max(gaps), float(np.median(gaps))


def run(n: int, seed: int) -> list[list]:
    rng = np.random.default_rng(seed)
    lake = synthetic_data_lake(n, 1, rng, median_size=400, size_sigma=0.3)
    syns = [ExactSynopsis(p) for p in lake]
    rows = []
    thr = PtileThresholdIndex(syns, eps=0.2, sample_size=16, rng=np.random.default_rng(1))
    res = thr.query(QUERY, 0.1, record_times=True)
    mx, med = delay_stats(res, n)
    rows.append(["ptile-threshold", n, res.out_size, med, mx])
    rng_idx = PtileRangeIndex(syns, eps=0.2, sample_size=12, rng=np.random.default_rng(1))
    res = rng_idx.query(QUERY, Interval(0.0, 1.0), record_times=True)
    mx, med = delay_stats(res, n)
    rows.append(["ptile-range", n, res.out_size, med, mx])
    pref = PrefIndex(syns, k=3, eps=0.2)
    res = pref.query(np.array([1.0]), 0.0, record_times=True)
    mx, med = delay_stats(res, n)
    rows.append(["pref", n, res.out_size, med, mx])
    return rows


def main() -> None:
    table = TableReporter(
        "T-DELAY: inter-report gaps on full-output queries",
        ["structure", "N", "OUT", "median gap (s)", "max gap (s)"],
    )
    all_rows = []
    for n in (50, 100, 200):
        rows = run(n, seed=n)
        for row in rows:
            table.add_row(row)
        all_rows.extend(rows)
    table.print()
    # Shape statement: the max gap should grow mildly with N (per-report
    # deletions are polylog-sized), far from proportionally to N.
    by_struct: dict[str, list[list]] = {}
    for row in all_rows:
        by_struct.setdefault(row[0], []).append(row)
    for name, rows in by_struct.items():
        first, last = rows[0], rows[-1]
        growth = last[4] / max(first[4], 1e-9)
        n_growth = last[1] / first[1]
        print(f"{name}: max-gap growth {growth:.1f}x for {n_growth:.0f}x N")
    print("Paper's claim: bounded (polylog) delay — gaps stay small and grow")
    print("much slower than N.")


if __name__ == "__main__":
    main()
