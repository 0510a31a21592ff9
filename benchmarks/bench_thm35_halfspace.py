"""T-3.5 — Theorem 3.5: halfspace reporting through CPref.

Paper artifact: the Appendix B.2 reduction — halfspace reporting over n
points in R^5 is answered by a CPref structure over singleton datasets
(k = 1), so CPref inherits the Ω(...) halfspace-reporting lower bound.  We
run the reduction end to end: exact round-trips everywhere, and through the
*approximate* Pref structure with its documented margin.

Run ``python benchmarks/bench_thm35_halfspace.py`` for the table.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter, time_callable
from repro.core.pref_index import PrefIndex
from repro.lowerbounds.halfspace import (
    halfspace_report_brute_force,
    halfspace_report_via_cpref,
    normalize_to_unit_ball,
)
from repro.synopsis.exact import ExactSynopsis

EPS = 0.2


def run_case(n: int, dim: int, seed: int, use_index: bool = True) -> dict:
    """``use_index=False`` skips the approximate-Pref leg: an eps-net in
    R^5 has O(eps^-4) directions, so the approximate structure is only
    exercised in low dimension; the reduction itself (exact oracle) runs
    at every dimension."""
    rng = np.random.default_rng(seed)
    pts, _ = normalize_to_unit_ball(rng.normal(size=(n, dim)))
    if use_index:
        index = PrefIndex(
            [ExactSynopsis(p.reshape(1, dim)) for p in pts], k=1, eps=EPS
        )

        def oracle(unit, k, a):
            return index.query(unit, a).index_set

    else:
        oracle = None

    exact_ok, margin_ok, out_sizes = True, True, []
    for _ in range(5):
        v = rng.normal(size=dim)
        tau = float(rng.uniform(-0.3, 0.5))
        exact = halfspace_report_brute_force(pts, v, tau)
        direct = halfspace_report_via_cpref(pts, v, tau)
        if direct != exact:
            exact_ok = False
        if oracle is not None:
            approx = halfspace_report_via_cpref(pts, v, tau, cpref_query=oracle)
            if not exact <= approx:
                margin_ok = False
            unit = v / np.linalg.norm(v)
            proj = pts @ unit
            for i in approx - exact:
                if proj[i] < tau / np.linalg.norm(v) - 2 * EPS - 1e-9:
                    margin_ok = False
        out_sizes.append(len(exact))
    v = rng.normal(size=dim)
    q_time = time_callable(
        lambda: halfspace_report_via_cpref(pts, v, 0.1, cpref_query=oracle),
        repeats=3,
    )
    return {
        "n": n,
        "dim": dim,
        "exact_ok": exact_ok,
        "margin_ok": margin_ok if oracle is not None else "n/a (oracle only)",
        "avg_out": float(np.mean(out_sizes)),
        "q": q_time,
    }


def main() -> None:
    table = TableReporter(
        "T-3.5: halfspace reporting via CPref (singleton datasets, k = 1)",
        ["n points", "dim", "exact round-trip", "approx within 2*eps",
         "avg OUT", "query (s)"],
    )
    for n, dim, use_index in ((100, 2, True), (200, 3, True), (200, 5, False),
                              (400, 5, False)):
        r = run_case(n, dim, seed=n + dim, use_index=use_index)
        table.add_row(
            [r["n"], r["dim"], r["exact_ok"], r["margin_ok"], r["avg_out"], r["q"]]
        )
        assert r["exact_ok"]
        if use_index:
            assert r["margin_ok"] is True
    table.print()
    print("Theorem 3.5's reduction verified: CPref answers halfspace reporting")
    print("exactly (oracle) and within the documented margin (approx index) —")
    print("in R^5 this ties exact CPref to the halfspace lower bound.")


if __name__ == "__main__":
    main()
