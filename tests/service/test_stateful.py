"""One oracle, random histories: a stateful differential test.

A Hypothesis ``RuleBasedStateMachine`` drives one :class:`QueryService`
(at 1 and at 3 shards) through random adds, removes, ``rebuild()``,
snapshot round trips under both ``mmap`` modes and query batches — exact,
``degrade=True``, and with a deadline tripped by the ``shard_eval=sleep``
failpoint — against ``benchmarks/e2e/oracle.py``'s :class:`ExactLake`,
imported as the benchmark ships it.  Invariants:

- every exact answer, and ``must ∪ maybe`` of every degraded one, has
  recall 1 over the live lake and reports nothing tombstoned
  (``ExactLake.check``);
- ``must ⊆`` the same service's exact answer ``⊆ must ∪ maybe``;
- a result a tripped batch left undegraded equals the untripped answer,
  and at the executor a budget that runs out after any number of polls
  returns a prefix of the untripped leaf answers, bit for bit.

The ``ci`` profile (``tests/conftest.py``) keeps this under 10 s and is
derandomized; ``REPRO_STATEFUL_PROFILE=soak`` runs the long random one.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.core.framework import Repository
from repro.service import QueryService, faults
from repro.service.planner import plan_batch
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
from oracle import ExactLake  # noqa: E402

PROFILE = settings.get_profile(os.environ.get("REPRO_STATEFUL_PROFILE", "ci"))
N0, DIM, POOL = 8, 1, 16


class PollBudget:
    """A deadline that holds for ``polls`` checkpoint polls, then is spent."""

    def __init__(self, polls: int) -> None:
        self.left = polls

    def expired(self) -> bool:
        self.left -= 1
        return self.left < 0


class ServiceMachine(RuleBasedStateMachine):
    n_shards = 1

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        rng = np.random.default_rng(seed)
        arrays = synthetic_data_lake(N0, DIM, rng, median_size=60)
        # The frozen bounding box covers [0, 1]: every later add is in-box.
        arrays[0] = np.vstack([arrays[0], [[0.0] * DIM, [1.0] * DIM]])
        self.lake = ExactLake(arrays)
        self.service = QueryService(
            repository=Repository.from_arrays(arrays), n_shards=self.n_shards,
            eps=0.1, sample_size=48, seed=seed, capacity=4 * N0,
        )
        self.pool = batched_query_workload(POOL, DIM, rng, duplicate_leaf_rate=0.6)
        self.tmp = Path(os.environ.get("TMPDIR", "/tmp")) / f"stateful-{os.getpid()}.snap"

    def teardown(self):
        faults.disarm()
        if hasattr(self, "service"):
            self.service.close()
            self.tmp.unlink(missing_ok=True)

    # -- history -------------------------------------------------------
    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 3))
    def add(self, seed, count):
        rng = np.random.default_rng(seed)
        arrays = [rng.uniform(0.0, 1.0, size=(int(rng.integers(30, 70)), DIM))
                  for _ in range(count)]
        receipt = self.service.add_datasets(arrays)
        assert receipt["indexes"] == self.lake.add(arrays)

    @precondition(lambda self: self.service.n_live > 2)
    @rule(pick=st.integers(0, 2**16))
    def remove(self, pick):
        live = np.flatnonzero(self.lake.live())
        victim = int(live[pick % live.size])
        assert self.service.remove_datasets([victim])["removed"] == [victim]
        self.lake.remove([victim])

    @rule()
    def rebuild(self):
        self.service.rebuild()

    @rule(mmap=st.booleans())
    def snapshot_round_trip(self, mmap):
        self.service.save(self.tmp)
        self.service.close()
        self.service = QueryService.load(self.tmp, mmap=mmap)
        assert (self.service.n_datasets, self.service.n_live) == (
            self.lake.n, int(self.lake.live().sum())
        )

    # -- queries -------------------------------------------------------
    def _batch(self, picks):
        return [self.pool[i] for i in picks]

    def _exact(self, queries):
        results = self.service.search_batch(queries)
        for query, result in zip(queries, results):
            assert not result.stats.get("degraded")
            assert self.lake.check(query, result.indexes) is None
        return results

    def _check_degraded(self, queries, results, reason):
        for query, got, exact in zip(queries, results, self._exact(queries)):
            if not got.stats.get("degraded"):
                assert got.bitmap == exact.bitmap  # an exact leaf prefix
                continue
            assert got.stats["degrade_reason"] == reason
            must, maybe = set(got.indexes), set(got.maybe_bitmap.to_list())
            assert must.isdisjoint(maybe)
            assert must <= set(exact.indexes) <= must | maybe
            assert self.lake.check(query, sorted(must | maybe)) is None

    @rule(picks=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4))
    def query_exact(self, picks):
        self._exact(self._batch(picks))

    @rule(picks=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4))
    def query_degraded(self, picks):
        queries = self._batch(picks)
        results = self.service.search_batch(queries, degrade=True)
        self._check_degraded(queries, results, "requested")

    @rule(picks=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4))
    def query_with_a_tripped_deadline(self, picks):
        queries = self._batch(picks)
        registry = self.service.observability.registry
        trips = registry.counter_value("repro_deadline_expirations_total")
        before = self.service.executor.stats_snapshot()
        faults.arm("shard_eval=sleep:0.02")
        try:  # the first unit sleeps through the whole budget
            results = self.service.search_batch(queries, deadline_ms=5)
        finally:
            faults.disarm()
        tripped = any(r.stats.get("degraded") for r in results)
        # One expiration per tripped batch (a budget spent on an all-hits
        # batch counts one too, and degrades nothing).
        trips = registry.counter_value("repro_deadline_expirations_total") - trips
        assert trips == 1 if tripped else trips in (0, 1)
        after = self.service.executor.stats_snapshot()
        assert (after["leaf_evals"], after["shard_tasks"]) == (
            before["leaf_evals"], before["shard_tasks"]
        )
        self._check_degraded(queries, results, "deadline")

    @rule(
        picks=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4),
        polls=st.integers(0, 40),
    )
    def executor_prefix(self, picks, polls):
        executor = self.service.executor
        leaves = list(plan_batch(self._batch(picks)).unique_leaves.values())
        full = [bits for bits, _t in executor.eval_leaves(leaves)]
        counted = executor.stats_snapshot()["leaf_evals"]
        part = [
            bits
            for bits, _t in executor.eval_leaves(leaves, deadline=PollBudget(polls))
        ]
        assert part == full[: len(part)]
        # One poll before each unit, one inside it, one per leaf.
        held = polls >= len(executor._units()) * (len(leaves) + 2)
        assert (len(part) == len(leaves)) == held
        assert executor.stats_snapshot()["leaf_evals"] == counted + held * len(leaves)


class ThreeShardMachine(ServiceMachine):
    n_shards = 3


TestOneShard = ServiceMachine.TestCase
TestThreeShards = ThreeShardMachine.TestCase
TestOneShard.settings = TestThreeShards.settings = PROFILE
