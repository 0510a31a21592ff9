"""FIG1 — regenerate the paper's Figure 1 worked example (Section 4.2).

Paper artifact: coresets S_1 = {1, 7, 9}, S_2 = {2, 4, 6, 10}; the
precomputed interval families R_1 (6 intervals) and R_2 (10 intervals);
mapped weighted points (e.g. q = (1, 7) with weight 2/3); query R = [3, 8]
with theta = [0.2, 1] reporting both indexes, with ReportFirst finding a
qualifying point per dataset.

Run ``python benchmarks/bench_fig1_toy_example.py`` for the printed tables.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter
from repro.core.ptile_threshold import PtileThresholdIndex
from repro.geometry.rect_enum import RectangleGrid, enumerate_rectangles
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis

S1 = np.array([[1.0], [7.0], [9.0]])
S2 = np.array([[2.0], [4.0], [6.0], [10.0]])


class _FixedSynopsis(ExactSynopsis):
    """Sample() returns the stored points verbatim (the paper's coresets)."""

    def sample(self, size, rng):
        reps = -(-size // self.n_points)
        return np.tile(self.points, (reps, 1))[: max(size, self.n_points)]


def build_index() -> PtileThresholdIndex:
    index = PtileThresholdIndex(
        [_FixedSynopsis(S1), _FixedSynopsis(S2)],
        eps=0.005,
        sample_size=4,
        rng=np.random.default_rng(0),
    )
    index.eps_effective = index.eps  # exact toy coresets
    return index


def main() -> None:
    for name, pts, expect in (("R_1", S1, 6), ("R_2", S2, 10)):
        table = TableReporter(
            f"FIG1: precomputed intervals {name} (paper: {expect} intervals)",
            ["interval", "weight |rho ∩ S| / |S|"],
        )
        rects = enumerate_rectangles(RectangleGrid(pts))
        for rect, weight in sorted(rects, key=lambda t: (t[0].lo[0], t[0].hi[0])):
            table.add_row([f"[{rect.lo[0]:g}, {rect.hi[0]:g}]", weight])
        table.print()
        assert len(rects) == expect

    index = build_index()
    result = index.query(Rectangle([3.0], [8.0]), a_theta=0.2)
    table = TableReporter(
        "FIG1: query R = [3, 8], theta = [0.2, 1]  (paper reports {1, 2})",
        ["reported index (1-based as in the paper)", "exact coreset mass in R"],
    )
    coresets = {0: S1, 1: S2}
    for j in result.indexes:
        pts = coresets[j]
        mass = Rectangle([3.0], [8.0]).count_inside(pts) / len(pts)
        table.add_row([j + 1, mass])
    table.print()
    assert result.index_set == {0, 1}
    print("FIG1 reproduced: weights and reported set match the paper.")


if __name__ == "__main__":
    main()
