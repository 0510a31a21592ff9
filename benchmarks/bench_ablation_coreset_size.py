"""ABL-CORESET — ablation: coreset size vs accuracy, memory and speed.

Design choice under study (Section 4.1): the
coreset size s drives everything — the effective ε (≈ s^{-1/2}), the
mapped-point count (≈ s²/2 per dataset in d = 1), build time, and
precision.  Recall must hold at *every* size because the query slack is
widened to the ε the coreset actually buys.

Run ``python benchmarks/bench_ablation_coreset_size.py`` for the table.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter, time_callable
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis
from repro.workloads.generators import dataset_with_mass

QUERY = Rectangle([0.0], [0.25])
A_THETA = 0.5
N = 80


def planted(rng):
    datasets, masses = [], []
    for i in range(N):
        mass = (i % 20) / 20 + 0.025
        pts = dataset_with_mass(400, QUERY, mass, rng)
        datasets.append(pts)
        masses.append(QUERY.count_inside(pts) / 400)
    return datasets, masses


def run_size(sample_size: int, datasets, masses) -> dict:
    syns = [ExactSynopsis(p) for p in datasets]
    build = time_callable(
        lambda: PtileThresholdIndex(
            syns, eps=0.01, sample_size=sample_size, rng=np.random.default_rng(1)
        ),
        repeats=1,
    )
    index = PtileThresholdIndex(
        syns, eps=0.01, sample_size=sample_size, rng=np.random.default_rng(1)
    )
    truth = {i for i, m in enumerate(masses) if m >= A_THETA}
    result = index.query(QUERY, A_THETA)
    recall_ok = truth <= result.index_set
    precision = len(truth & result.index_set) / max(1, result.out_size)
    q = time_callable(lambda: index.query(QUERY, A_THETA), repeats=3)
    return {
        "s": sample_size,
        "eps_eff": index.eps_effective,
        "points": index.n_mapped_points,
        "build": build,
        "recall_ok": recall_ok,
        "precision": precision,
        "out": result.out_size,
        "truth": len(truth),
        "q": q,
    }


def main() -> None:
    rng = np.random.default_rng(77)
    datasets, masses = planted(rng)
    table = TableReporter(
        f"ABL-CORESET: coreset size sweep (N = {N}, a_theta = {A_THETA})",
        ["s", "eps_eff", "mapped pts", "build (s)", "|truth|", "OUT",
         "recall ok", "precision", "query (s)"],
    )
    precisions = []
    for s in (8, 16, 32, 64):
        r = run_size(s, datasets, masses)
        table.add_row(
            [r["s"], r["eps_eff"], r["points"], r["build"], r["truth"],
             r["out"], r["recall_ok"], r["precision"], r["q"]]
        )
        assert r["recall_ok"], "recall must hold at every coreset size"
        precisions.append(r["precision"])
    table.print()
    assert precisions[-1] >= precisions[0], "precision should improve with s"
    print("Ablation: precision tightens as s grows (eps_eff ~ s^-1/2) while")
    print("memory grows ~ s^2 and recall holds at every size — exactly the")
    print("space/accuracy dial the paper's eps parameter exposes.")


if __name__ == "__main__":
    main()
