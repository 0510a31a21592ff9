"""FIG2 — the Section 4.3 counterexample.

Paper artifact (Figure 2 + the Section 4.3 inline example): with a
two-sided theta, a threshold-style structure that accepts *any* qualifying
sub-rectangle over-reports (S_2's sub-interval [4, 4] has weight
1/4 ∈ [0.2, 0.4] although the maximal interval [4, 6] has weight 0.5);
the maximal-pair structure of Algorithm 3/4 does not.

Run ``python benchmarks/bench_fig2_counterexample.py`` for the table.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter
from repro.core.ptile_range import PtileRangeIndex
from repro.geometry.interval import Interval
from repro.geometry.rect_enum import RectangleGrid, enumerate_rectangles
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis

S1 = np.array([[1.0], [7.0], [9.0]])
S2 = np.array([[2.0], [4.0], [6.0], [10.0]])
QUERY = Rectangle([3.0], [8.0])
THETA = Interval(0.2, 0.4)


class _FixedSynopsis(ExactSynopsis):
    def sample(self, size, rng):
        reps = -(-size // self.n_points)
        return np.tile(self.points, (reps, 1))[: max(size, self.n_points)]


def naive_any_subrectangle_answer() -> set[int]:
    """The broken strategy: report if ANY precomputed rectangle inside R
    has weight in theta (what re-using Algorithm 2 for ranges would do)."""
    out = set()
    for idx, pts in enumerate((S1, S2)):
        for rect, weight in enumerate_rectangles(RectangleGrid(pts)):
            if rect.contained_in(QUERY) and weight in THETA:
                out.add(idx)
                break
    return out


def build_range_index() -> PtileRangeIndex:
    index = PtileRangeIndex(
        [_FixedSynopsis(S1), _FixedSynopsis(S2)],
        eps=0.005,
        sample_size=4,
        bounding_box=Rectangle([0.0], [11.0]),
        rng=np.random.default_rng(0),
    )
    index.eps_effective = index.eps
    return index


def main() -> None:
    exact = {
        i
        for i, pts in enumerate((S1, S2))
        if QUERY.count_inside(pts) / len(pts) in THETA
    }
    broken = naive_any_subrectangle_answer()
    fixed = build_range_index().query(QUERY, THETA).index_set
    table = TableReporter(
        "FIG2: two-sided theta = [0.2, 0.4] on R = [3, 8] (1-based indexes)",
        ["strategy", "reported", "correct?"],
    )
    table.add_row(["exact ground truth", sorted(i + 1 for i in exact), "—"])
    table.add_row(
        [
            "any-subrectangle (Fig. 2 failure)",
            sorted(i + 1 for i in broken),
            "NO" if broken != exact else "yes",
        ]
    )
    table.add_row(
        [
            "maximal pairs (Algorithm 3/4)",
            sorted(i + 1 for i in fixed),
            "yes" if fixed == exact else "NO",
        ]
    )
    table.print()
    assert broken != exact, "the counterexample should trip the naive strategy"
    assert fixed == exact, "the maximal-pair structure must be correct here"
    print("FIG2 reproduced: naive over-reports index 2; Algorithm 4 does not.")


if __name__ == "__main__":
    main()
