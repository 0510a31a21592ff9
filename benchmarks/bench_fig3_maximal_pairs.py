"""FIG3 — the maximal-pair property (Lemmas 4.5/4.6) measured.

Paper artifact: Figure 3 illustrates that for any query rectangle R, the
stored pair (rho, rho_hat) matched by the orthant has rho equal to the
*maximal* coreset rectangle inside R, and that the pruned pair family
equals the paper's definition on all query-matchable pairs.

Run ``python benchmarks/bench_fig3_maximal_pairs.py`` for the table.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter
from repro.geometry.rect_enum import (
    RectangleGrid,
    enumerate_maximal_pairs,
    enumerate_maximal_pairs_naive,
)
from repro.geometry.rectangle import Rectangle
from repro.index.query_box import QueryBox
from repro.workloads.queries import random_rectangles


def check_instance(seed: int, n_samples: int, dim: int) -> dict:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.15, 0.85, size=(n_samples, dim))
    box = Rectangle([0.0] * dim, [1.0] * dim)
    grid = RectangleGrid(pts, box)
    pruned = enumerate_maximal_pairs(grid)
    naive = enumerate_maximal_pairs_naive(grid, matchable_only=True)
    def key(p):
        return (tuple(p[0].lo), tuple(p[0].hi), tuple(p[1].lo), tuple(p[1].hi))

    agree = {key(p) for p in pruned} == {key(p) for p in naive}
    # For random queries, any matched pair's inner rect must be maximal.
    maximal_ok = True
    queries = random_rectangles(
        25, dim, rng, ambient=Rectangle([0.01] * dim, [0.99] * dim)
    )
    for q in queries:
        orthant = QueryBox(q.query_orthant_4d())
        matched = [
            (inner, outer)
            for inner, outer, _w in pruned
            if orthant.contains_point(inner.pair_to_point_4d(outer))
        ]
        for inner, _outer in matched:
            # No pruned-family rectangle strictly larger fits in q.
            for other_inner, _o, _w in pruned:
                if (
                    inner.contained_in(other_inner)
                    and inner != other_inner
                    and other_inner.contained_in(q)
                ):
                    maximal_ok = False
    return {
        "pruned": len(pruned),
        "naive_matchable": len(naive),
        "families_agree": agree,
        "matched_always_maximal": maximal_ok,
    }


def main() -> None:
    table = TableReporter(
        "FIG3: maximal-pair family checks",
        ["dim", "samples", "pruned pairs", "naive matchable", "agree", "maximality"],
    )
    for dim, n in ((1, 4), (1, 6), (2, 3), (2, 4)):
        for seed in (1, 2):
            r = check_instance(seed, n, dim)
            table.add_row(
                [
                    dim,
                    n,
                    r["pruned"],
                    r["naive_matchable"],
                    r["families_agree"],
                    r["matched_always_maximal"],
                ]
            )
            assert r["families_agree"] and r["matched_always_maximal"]
    table.print()
    print("FIG3 reproduced: pruned pairs == paper's matchable pairs; matched")
    print("inner rectangles are always maximal inside the query (Lemma 4.5).")


if __name__ == "__main__":
    main()
