"""T-C.8 — Theorem C.8: logical expressions of m range-predicates.

Paper claims: same guarantees as Theorem 4.11 per leaf (recall 1; each
reported dataset within the widened theta of *every* conjunct), ~O(N)
space, ~O(1 + OUT) query, for any constant m.  We verify conjunctions and
disjunctions at m = 2 and m = 3 with both strategies (the faithful tensor
construction and the composed one) and check they agree.

Run ``python benchmarks/bench_thmC8_ptile_logical.py`` for the table.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import TableReporter, time_callable
from repro.core.framework import Dataset
from repro.core.measures import PercentileMeasure
from repro.core.predicates import And, Or, pred
from repro.core.ptile_logical import PtileLogicalIndex
from repro.geometry.rectangle import Rectangle
from repro.synopsis.exact import ExactSynopsis

R1 = Rectangle([0.0], [0.4])
R2 = Rectangle([0.4], [0.7])
R3 = Rectangle([0.7], [1.0])


def planted_lake(n: int, rng):
    datasets = []
    for _ in range(n):
        w = rng.dirichlet([1.5, 1.5, 1.5])
        counts = rng.multinomial(300, w)
        parts = [
            rng.uniform(lo, hi, size=(c, 1))
            for (lo, hi), c in zip(((0.0, 0.4), (0.4001, 0.7), (0.7001, 1.0)), counts)
        ]
        datasets.append(np.vstack(parts))
    return datasets


def run_case(m: int, n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    datasets = planted_lake(n, rng)
    syns = [ExactSynopsis(p) for p in datasets]
    index = PtileLogicalIndex(
        syns, eps=0.15, sample_size=6, strategy="tensor", rng=np.random.default_rng(3)
    )
    leaves = [
        pred(PercentileMeasure(R1), 0.2, 0.6),
        pred(PercentileMeasure(R2), 0.1, 0.7),
        pred(PercentileMeasure(R3), 0.0, 0.8),
    ][:m]
    conj = And(leaves)
    truth = {i for i, p in enumerate(datasets) if conj.evaluate(Dataset(p))}
    tensor_ans = index.query(conj).index_set
    compose_ans = index._eval(conj)
    disj = Or(leaves)
    truth_or = {i for i, p in enumerate(datasets) if disj.evaluate(Dataset(p))}
    or_ans = index.query(disj).index_set
    q_tensor = time_callable(lambda: index.query(conj), repeats=3)
    return {
        "m": m,
        "n": n,
        "recall_and": truth <= tensor_ans,
        "strategies_agree": tensor_ans == compose_ans,
        "recall_or": truth_or <= or_ans,
        "out": len(tensor_ans),
        "truth": len(truth),
        "q_tensor": q_tensor,
    }


def main() -> None:
    table = TableReporter(
        "T-C.8: m-predicate logical expressions (tensor vs composed)",
        ["m", "N", "|truth ∧|", "OUT ∧", "recall ∧", "tensor==compose",
         "recall ∨", "tensor query (s)"],
    )
    for m in (2, 3):
        for n in (20, 40):
            r = run_case(m, n, seed=m * 100 + n)
            table.add_row(
                [r["m"], r["n"], r["truth"], r["out"], r["recall_and"],
                 r["strategies_agree"], r["recall_or"], r["q_tensor"]]
            )
            assert r["recall_and"] and r["strategies_agree"] and r["recall_or"]
    table.print()
    print("Theorem C.8 reproduced: conjunction/disjunction recall holds and the")
    print("faithful tensor structure agrees with the composed strategy exactly.")


if __name__ == "__main__":
    main()
