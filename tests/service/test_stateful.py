"""One oracle, random histories: a stateful differential test.

A Hypothesis ``RuleBasedStateMachine`` drives one :class:`QueryService`
(at 1 and at 3 shards) through random adds (in the frozen box and out of
it), removes, ``rebuild()``, snapshot round trips under both ``mmap``
modes and query batches — exact, ``degrade=True``, and with a deadline
tripped by the ``shard_eval=sleep`` failpoint — against
``benchmarks/e2e/oracle.py``'s :class:`ExactLake`, imported as the
benchmark ships it.  Invariants:

- every exact answer, and ``must ∪ maybe`` of every degraded one, has
  recall 1 over the live lake and reports nothing tombstoned
  (``ExactLake.check``), but for the miss the contract allows with
  probability at most ``phi`` (:func:`check_recall`); a single-leaf exact
  answer stays inside the slack band of the executor's ``eps`` /
  ``eps_effective`` (``ExactLake.audit``);
- ``must ⊆`` the same service's exact answer ``⊆ must ∪ maybe``;
- a result a tripped batch left undegraded equals the untripped answer, a
  batch under a budget that never runs out equals the unbudgeted answer,
  and at the executor a budget that runs out after any number of polls
  returns every untripped leaf answer, bit for bit, or none;
- no sample of a ``counter`` family on ``/metrics`` falls between rules:
  a rebalance or ``rebuild()`` swaps the executor, which counts into the
  service's registry, and a snapshot round trip restores a service that
  adopts the running one's observability, as a process's swap does;
- every add's receipt tells the truth: ``rebalance`` exactly when the delta
  shard outgrows the mean base shard or the live count outgrows the
  contract's N (``delta_size`` 0 after it), ``bounding_box`` for data
  outside the frozen box;
- the peers of ``tests/peers.py`` answer every pool leaf exactly like the
  live service: :func:`~peers.bare_engine` always, and
  :func:`~peers.rebuilt` at the other shard count whenever the contract a
  rebuild would resolve is the live one; a snapshot round trip changes no
  answer, no part of the contract and no rebuild keyword, and a
  :func:`~peers.rebuilt` peer of the restored service resolves the contract
  and answers every pool leaf as one of the saved service does.

:class:`FederatedMachine` drops and restores the nodes of a two-node
federation (:func:`~peers.federation`) between query batches: each node's
slice of an answer is either exact or wholly *maybe* — always *maybe* for a
dropped node — and with every node up the answer is the single-service
reference's.

:class:`FleetMachine` is the forked fleet's generation swap without a
fork: one writer and two reader workers over one snapshot file take adds
and removes (each published as the next generation), reader polls, and the
writer's death (the lowest reader is promoted, the dead slot respawns as a
reader).  No worker's generation ever falls, a reader that polled after
publish ``g`` answers the leaf pool bit for bit as the writer did at ``g``,
and a promoted reader serves every acknowledged add and remove.  No
worker's counter sample falls across a follow or a promotion (a respawned
slot is a new process, so its counts start afresh).

The ``ci`` profile (``tests/conftest.py``) is derandomized;
``REPRO_STATEFUL_PROFILE=soak`` runs the long random one.  Each machine
records the states it reached as Hypothesis ``event``\\ s (``pytest
--hypothesis-show-statistics`` prints them).
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from peers import answers, bare_engine, federation, leaf_answers, rebuilt

from repro.core.framework import Repository
from repro.core.measures import PercentileMeasure
from repro.core.predicates import Predicate
from repro.service import QueryService, faults
from repro.service import snapshot as snapshot_mod
from repro.service.federation import FederatedCoordinator
from repro.service.planner import plan_batch
from repro.service.snapshot import generation_of
from repro.service.supervisor import _Worker
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


def counter_samples(service: QueryService) -> dict[str, float]:
    """Every sample of a TYPE ``counter`` family in ``service``'s
    ``/metrics`` body, keyed by series (name and labels)."""
    counters: set[str] = set()
    out: dict[str, float] = {}
    for line in service.observability.render_prometheus().splitlines():
        if line.startswith("# TYPE ") and line.endswith(" counter"):
            counters.add(line.split(" ")[2])
        elif line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            if series.split("{", 1)[0] in counters:
                out[series] = float(value)
    return out


def fallen(before: dict, now: dict) -> dict:
    """The series of ``before`` that read lower (or vanished) in ``now``."""
    return {k: (v, now.get(k)) for k, v in before.items() if now.get(k, -1.0) < v}


def contract(executor) -> tuple:
    """What a rebuild re-resolves: ``(phi_eff, sample_size, eps_effective,
    bounding_box)``."""
    return (
        executor.phi_eff, executor.sample_size, executor.eps_effective,
        executor.bounding_box,
    )


def leaf_rects(expression) -> list:
    """The rectangles of ``expression``'s Ptile leaves."""
    if isinstance(expression, Predicate):
        measure = expression.measure
        return [measure.rect] if isinstance(measure, PercentileMeasure) else []
    return [rect for child in expression.children for rect in leaf_rects(child)]


def coreset_deviation(executors, lake: ExactLake, dataset: int, rect) -> float:
    """How far dataset ``dataset``'s coreset mass on ``rect`` lies from its
    true mass, past its bound ``eps_effective + delta_i``: positive when
    the coreset is no ε-sample of it there."""
    for executor in executors:
        for unit in executor._units():
            for key, i in enumerate(unit.ids):
                if executor.synopses[i].index == dataset:
                    index = unit.engine._ptile
                    coreset = index._coresets[key]
                    gap = abs(
                        rect.contains_points(coreset).mean()
                        - rect.contains_points(lake.arrays[dataset]).mean()
                    )
                    return gap - (executor.eps_effective + index._deltas[key])
    raise AssertionError(f"no unit holds dataset {dataset}")


def check_recall(executors, lake: ExactLake, query, answer) -> list[int]:
    """``ExactLake.check``, less the one miss the contract allows: recall 1
    holds with probability at least ``1 - phi``, over the coreset draws.  A
    live dataset missed only when its coreset mass on some leaf rectangle
    of ``query`` lies past ``eps_effective + delta_i`` from its true mass
    (that draw is the ``phi`` event) is recorded and returned; any other
    miss fails."""
    reported = {int(i) for i in answer}
    if lake.check(query, sorted(reported)) is None:
        return []
    truth = np.flatnonzero(lake.truth(query) & lake.live()).tolist()
    missed = [i for i in truth if i not in reported]
    for i in missed:
        worst = max(
            (coreset_deviation(executors, lake, i, r) for r in leaf_rects(query)),
            default=0.0,  # no Ptile leaf: no coreset draw explains a miss
        )
        assert worst > 0, f"missed dataset {i} inside its coreset's bound"
        event("a recall miss of the phi event")
    assert lake.check(query, sorted(reported.union(missed))) is None
    return missed


class ServiceMachine(RuleBasedStateMachine):
    n_shards = 1

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        rng = np.random.default_rng(seed)
        arrays = synthetic_data_lake(N0, DIM, rng, median_size=60)
        # The frozen bounding box covers [0, 1]: every later ``add`` is
        # in-box, and ``add_out_of_box`` lands past it.
        arrays[0] = np.vstack([arrays[0], [[0.0] * DIM, [1.0] * DIM]])
        self.lake = ExactLake(arrays)
        self.service = QueryService(
            repository=Repository.from_arrays(arrays), n_shards=self.n_shards,
            eps=0.1, sample_size=48, seed=seed, capacity=4 * N0,
        )
        self.pool = batched_query_workload(POOL, DIM, rng, duplicate_leaf_rate=0.6)
        self.leaves = list(plan_batch(self.pool).unique_leaves.values())
        self._moved()
        self.counted = counter_samples(self.service)
        self.phi_misses: list[int] = []  # datasets an exact answer missed
        self.tmp = Path(os.environ.get("TMPDIR", "/tmp")) / f"stateful-{os.getpid()}.snap"

    def teardown(self):
        faults.disarm()
        if hasattr(self, "service"):
            self.service.close()
            self.tmp.unlink(missing_ok=True)

    def _moved(self):
        """The history moved: the peers must agree again, on a new peer."""
        self.stale = True  # the peers have not agreed since
        self.peer = None

    def _peer(self, service):
        """The contract and pool-leaf answers of :func:`rebuilt` ``service``
        at the other shard count (1 <-> 3), worked out once a state: the
        peers rule and a round trip share them."""
        if self.peer is None or self.peer[0] is not service:
            other = rebuilt(service, 4 - self.n_shards)
            self.peer = (service, contract(other), leaf_answers(other, self.leaves))
        return self.peer[1:]

    # -- history -------------------------------------------------------
    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 3))
    def add(self, seed, count):
        rng = np.random.default_rng(seed)
        arrays = [rng.uniform(0.0, 1.0, size=(int(rng.integers(30, 70)), DIM))
                  for _ in range(count)]
        executor = self.service.executor
        delta = executor.delta_size + count
        base = sum(executor.shard_sizes())
        rebalance = delta > base / len(executor.units) or (
            executor.n_live + count > max(base, executor.capacity or 0)
        )
        if executor.delta is not None and executor.delta.engine._ptile is not None:
            event("insert into a built delta tree")
        receipt = self.service.add_datasets(arrays)
        assert receipt["indexes"] == self.lake.add(arrays)
        assert (receipt["rebuilt"], receipt["reason"], receipt["delta_size"]) == (
            (True, "rebalance", 0) if rebalance else (False, None, delta)
        )
        if rebalance:
            event("rebalance")
        self._moved()

    @rule(seed=st.integers(0, 2**16))
    def add_out_of_box(self, seed):
        rng = np.random.default_rng(seed)
        past = self.service.executor.bounding_box.hi
        arrays = [past + rng.uniform(0.5, 1.5, size=(int(rng.integers(30, 70)), DIM))]
        receipt = self.service.add_datasets(arrays)
        assert receipt["indexes"] == self.lake.add(arrays)
        assert (receipt["rebuilt"], receipt["reason"], receipt["delta_size"]) == (
            True, "bounding_box", 0
        )
        event("bounding-box rebuild")
        self._moved()

    @precondition(lambda self: self.service.n_live > 2)
    @rule(pick=st.integers(0, 2**16))
    def remove(self, pick):
        live = np.flatnonzero(self.lake.live())
        victim = int(live[pick % live.size])
        assert self.service.remove_datasets([victim])["removed"] == [victim]
        self.lake.remove([victim])
        self._moved()

    @rule()
    def rebuild(self):
        self.service.rebuild()
        self._moved()

    @rule(mmap=st.booleans())
    def snapshot_round_trip(self, mmap):
        # The loaded engines (past the cache the snapshot restores) and the
        # loaded service answer what the saved service answered.
        leaves = [r.bitmap for r in self.service.search_batch(self.leaves)]
        pool = [r.bitmap for r in self.service.search_batch(self.pool)]
        saved = self.service
        peer = self._peer(saved)
        saved.save(self.tmp)
        saved.close()
        _generation, restore = snapshot_mod._read(self.tmp, mmap)
        self.service = restore(saved.observability)
        # The one executor record: the contract, what a rebuild re-resolves
        # it from, and what that rebuild answers, bit for bit.
        restored = self.service.executor
        assert contract(restored) == contract(saved.executor)
        assert restored._rebuild_kwargs() == saved.executor._rebuild_kwargs()
        assert self._peer(self.service) == peer
        assert (self.service.n_datasets, self.service.n_live) == (
            self.lake.n, int(self.lake.live().sum())
        )
        assert leaf_answers(self.service.executor, self.leaves) == leaves
        assert [r.bitmap for r in self.service.search_batch(self.pool)] == pool
        event(f"snapshot round trip, mmap={mmap}")
        self.stale = True

    @invariant()
    def counters_never_fall(self):
        now = counter_samples(self.service)
        fell = fallen(self.counted, now)
        assert not fell, fell
        self.counted = now

    # -- peers ---------------------------------------------------------
    @rule()
    def peers_agree(self):
        if not self.stale:
            return
        self.stale = False
        executor = self.service.executor
        assert [s.index for s in executor.synopses] == list(range(self.lake.n))
        live = [r.bitmap for r in self.service.search_batch(self.leaves)]
        assert leaf_answers(
            bare_engine(executor), self.leaves, executor.removed_bits()
        ) == live
        resolved, answered = self._peer(self.service)
        if resolved == contract(executor):
            assert answered == live
            event("a rebuilt peer agreed")
        else:
            event("a rebuild would move the contract")

    # -- queries -------------------------------------------------------
    def _batch(self, picks):
        return [self.pool[i] for i in picks]

    def _exact(self, queries):
        results = self.service.search_batch(queries)
        executor = self.service.executor
        for query, result in zip(queries, results):
            assert not result.stats.get("degraded")
            self.phi_misses += check_recall([executor], self.lake, query, result.indexes)
            if isinstance(query, Predicate):
                assert self.lake.audit(
                    query, result.indexes, executor.eps, executor.eps_effective
                ) is None
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
            check_recall([self.service.executor], self.lake, query, must | maybe)

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
        before = self.service.stats()["executor"]
        faults.arm("shard_eval=sleep:0.01")
        try:  # the first unit sleeps through the whole budget
            results = self.service.search_batch(queries, deadline_ms=5)
        finally:
            faults.disarm()
        tripped = any(r.stats.get("degraded") for r in results)
        # One expiration per tripped batch (a budget spent on an all-hits
        # batch counts one too, and degrades nothing).
        trips = registry.counter_value("repro_deadline_expirations_total") - trips
        assert trips == 1 if tripped else trips in (0, 1)
        after = self.service.stats()["executor"]
        assert (after["leaf_evals"], after["shard_tasks"]) == (
            before["leaf_evals"], before["shard_tasks"]
        )
        self._check_degraded(queries, results, "deadline")
        if tripped:
            event("tripped deadline")

    @rule(
        picks=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4),
        polls=st.integers(0, 10),
    )
    def executor_all_or_none(self, picks, polls):
        queries = self._batch(picks)
        executor = self.service.executor
        # A budget that never runs out answers what no budget answers.
        budgeted = self.service.search_batch(queries, deadline_ms=1e7)
        assert not any(r.stats.get("degraded") for r in budgeted)
        assert [r.indexes for r in budgeted] == answers(executor, queries)
        if any(r.stats["cache_misses"] for r in budgeted):
            event("a budgeted batch reached the executor")
        leaves = list(plan_batch(queries).unique_leaves.values())
        full = executor.eval_leaves(leaves)
        counted = self.service.stats()["executor"]["leaf_evals"]
        part = executor.eval_leaves(leaves, deadline=PollBudget(polls))
        # One poll before each unit and one inside it; the call answers
        # every leaf or none.
        held = polls >= 2 * len(executor._units())
        assert part == (full if held else [])
        event("a poll budget held" if held else "a poll budget tripped")
        assert self.service.stats()["executor"]["leaf_evals"] == (
            counted + held * len(leaves)
        )


#: A ``soak`` failure, shrunk: the in-box adds carry the lake from 8
#: datasets past ``capacity=32`` without a rebalance.
PAST_THE_CONTRACT = [
    *[("add", {"count": 2, "seed": 0})] * 4,
    ("add_out_of_box", {"seed": 0}),
    ("add", {"count": 2, "seed": 0}),
    ("add_out_of_box", {"seed": 0}),
    ("add", {"count": 2, "seed": 0}),
    ("add_out_of_box", {"seed": 0}),
    ("add", {"count": 2, "seed": 0}),
    ("add", {"count": 3, "seed": 0}),
    ("add", {"count": 1, "seed": 0}),
    ("add", {"count": 2, "seed": 65536}),
    ("add", {"count": 1, "seed": 0}),
    ("add", {"count": 2, "seed": 0}),
]


@settings(PROFILE, max_examples=1, database=None)
@given(seed=st.just(64971))
def test_an_add_past_the_contract_re_resolves_it(seed):
    """The add that takes the live count past the N the contract was
    resolved for rebuilds, so the service answers like a bare engine
    sized for the grown lake (``@given`` only gives the machine's
    ``event`` calls a test to record into)."""
    machine = ServiceMachine()
    try:
        machine.build(seed=seed)
        for step, kwargs in PAST_THE_CONTRACT:
            getattr(machine, step)(**kwargs)
        assert machine.service.n_live == 34
        machine.peers_agree()
    finally:
        machine.teardown()


@settings(PROFILE, max_examples=1, database=None)
@given(seed=st.just(1718))
def test_a_miss_past_the_coreset_bound_is_the_phi_event(seed):
    """A ``soak`` failure: the 48-point coreset of dataset 6 puts mass 0.25
    on pool query 4's first leaf ``[0.158, 0.579]`` against a true 0.529,
    0.279 apart, past ``eps_effective`` 0.2687.  The query misses it, and
    the machine records that as the ``phi`` event; dropping a dataset whose
    coreset holds its bound from the same answer still fails."""
    machine = ServiceMachine()
    try:
        machine.build(seed=seed)
        query = machine.pool[4]
        machine.query_exact([4])
        assert machine.phi_misses == [6]
        executors = [machine.service.executor]
        deviation = coreset_deviation(executors, machine.lake, 6, leaf_rects(query)[0])
        assert deviation == pytest.approx(0.279 - 0.2687, abs=5e-4)
        (result,) = machine.service.search_batch([query])
        found = set(np.flatnonzero(machine.lake.truth(query)).tolist()) - {6}
        assert found
        for other in found:
            with pytest.raises(AssertionError, match="inside its coreset's bound"):
                kept = [i for i in result.indexes if i != other]
                check_recall(executors, machine.lake, query, kept)
    finally:
        machine.teardown()


class ThreeShardMachine(ServiceMachine):
    n_shards = 3


class FederatedMachine(RuleBasedStateMachine):
    """A static lake over two in-process nodes; a dead node fails fast (no
    retry, no hedge, a breaker that never opens), so every batch sees
    exactly the nodes the history left up."""

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        rng = np.random.default_rng(seed)
        arrays = synthetic_data_lake(N0, DIM, rng, median_size=60)
        self.lake = ExactLake(arrays)
        self.pool = batched_query_workload(POOL, DIM, rng, duplicate_leaf_rate=0.6)
        coordinator = FederatedCoordinator(
            max_retries=0, hedge_delay_s=None, breaker_threshold=10**9
        )
        self.stack = contextlib.ExitStack()
        self.nodes, self.coordinator, reference = self.stack.enter_context(
            federation(arrays, 2, coordinator, eps=0.1, sample_size=48, seed=seed)
        )
        self.expected = reference.search_batch(self.pool)  # the lake is static
        self.slices = []
        for node in self.nodes:
            start = node.service.executor.synopses[0].index
            self.slices.append(set(range(start, start + node.service.n_datasets)))
        self.up = [True] * len(self.nodes)
        self.degraded = self.degraded_served()

    def degraded_served(self):
        nodes = self.coordinator.stats()["federation"]["nodes"]
        return [n["degraded_served"] for n in nodes]

    def teardown(self):
        if hasattr(self, "stack"):
            self.stack.close()

    @rule(ni=st.integers(0, 1))
    def drop_or_restore_node(self, ni):
        if self.up[ni]:
            self.nodes[ni].kill()
            event("dropped node")
        else:
            self.nodes[ni].restart()
            event("restored node")
        self.up[ni] = not self.up[ni]

    @rule(picks=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4))
    def query(self, picks):
        batch = self.coordinator.search_batch([self.pool[i] for i in picks])
        live = sum(len(sl) for sl, up in zip(self.slices, self.up) if up)
        assert batch.coverage == live / self.lake.n
        # One degraded slice per screened node per batch, counted once.
        before, self.degraded = self.degraded, self.degraded_served()
        screened = [int(m["screened"]) for m in batch.nodes]
        assert [b + s for b, s in zip(before, screened)] == self.degraded
        for i, got in zip(picks, batch.results):
            query, ref = self.pool[i], self.expected[i]
            must, exact = set(got.indexes), set(ref.indexes)
            degraded = got.stats.get("degraded")
            maybe = set(got.maybe_bitmap.to_list()) if degraded else set()
            for sl, up in zip(self.slices, self.up):
                if up:  # exact on its slice
                    assert must & sl == exact & sl and not maybe & sl
                else:  # wholly maybe, none of it in must
                    assert sl <= maybe and not sl & must
            up = [n.service.executor for n, on in zip(self.nodes, self.up) if on]
            check_recall(up, self.lake, query, must | maybe)
            if all(self.up):
                assert not degraded and got.bitmap == ref.bitmap
            else:
                assert got.stats["degrade_reason"] == "node_unreachable"


class FleetMachine(RuleBasedStateMachine):
    """The forked fleet's generation swap, in process: one writer and two
    reader :class:`~repro.service.supervisor._Worker`\\ s over one snapshot
    file, each built from the file the way a fork or a respawn builds it."""

    def __init__(self, path: Path) -> None:
        super().__init__()
        self.path = path

    def spawn(self, worker_id, writer):
        generation, restore = snapshot_mod._read(self.path)
        return _Worker(self.path, restore(None), generation, writer, worker_id, 3, None)

    def answers(self, worker):
        return leaf_answers(worker.service.executor, self.leaves)

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        rng = np.random.default_rng(seed)
        arrays = synthetic_data_lake(N0, DIM, rng, median_size=60)
        pool = batched_query_workload(POOL // 2, DIM, rng, duplicate_leaf_rate=0.6)
        self.leaves = list(plan_batch(pool).unique_leaves.values())
        service = QueryService(
            repository=Repository.from_arrays(arrays), n_shards=1, eps=0.1,
            sample_size=24, seed=seed, capacity=4 * N0,
        )
        service.warm()
        service.save(self.path)
        self.workers = [self.spawn(i, writer=i == 0) for i in range(3)]
        # The writer's answers at each generation it published.
        self.published = {0: self.answers(self.workers[0])}
        self.n, self.removed = N0, set()  # the acknowledged history
        self.highest = [0, 0, 0]  # each slot's generation so far
        self.counted = [counter_samples(w.service) for w in self.workers]

    @property
    def writer(self):
        (writer,) = [w for w in self.workers if w.writer]
        return writer

    def publish(self, writer):
        answers = self.answers(writer)  # first: the trees it builds are saved
        writer.mutated()
        assert writer.generation == generation_of(self.path)
        assert writer.generation == max(self.published) + 1
        self.published[writer.generation] = answers

    @rule(seed=st.integers(0, 2**16), count=st.integers(1, 2))
    def add(self, seed, count):
        rng = np.random.default_rng(seed)
        arrays = [rng.uniform(0.0, 1.0, size=(int(rng.integers(30, 70)), DIM))
                  for _ in range(count)]
        writer = self.writer
        receipt = writer.service.add_datasets(arrays)
        assert receipt["indexes"] == list(range(self.n, self.n + count))
        self.n += count
        self.publish(writer)

    @precondition(lambda self: self.n - len(self.removed) > 2)
    @rule(pick=st.integers(0, 2**16))
    def remove(self, pick):
        live = sorted(set(range(self.n)) - self.removed)
        victim = live[pick % len(live)]
        writer = self.writer
        assert writer.service.remove_datasets([victim])["removed"] == [victim]
        self.removed.add(victim)
        self.publish(writer)

    @rule(pick=st.integers(0, 1))
    def poll_reader(self, pick):
        reader = [w for w in self.workers if not w.writer][pick]
        before = reader.generation
        reader.follow()
        assert reader.generation == max(self.published)
        assert self.answers(reader) == self.published[reader.generation]
        event("a reader swapped" if reader.generation > before else "a reader kept")

    @rule()
    def kill_writer_and_promote(self):
        dead = self.writer
        lowest = next(w for w in self.workers if not w.writer)  # by worker id
        if lowest.generation < max(self.published):
            event("promoted behind the file")
        lowest.promote()
        # The dead slot respawns as a reader from the current file.
        self.workers[dead.worker_id] = self.spawn(dead.worker_id, writer=False)
        self.counted[dead.worker_id] = {}  # a new process counts from 0
        service = lowest.service
        assert (service.n_datasets, service.n_live) == (
            self.n, self.n - len(self.removed)
        )
        assert lowest.generation == max(self.published)
        assert self.answers(lowest) == self.published[lowest.generation]

    @invariant()
    def generations_never_fall(self):
        for worker in self.workers:
            assert worker.generation >= self.highest[worker.worker_id]
            self.highest[worker.worker_id] = worker.generation
        assert sum(w.writer for w in self.workers) == 1

    @invariant()
    def counters_never_fall(self):
        for worker in self.workers:
            now = counter_samples(worker.service)
            fell = fallen(self.counted[worker.worker_id], now)
            assert not fell, (worker.worker_id, fell)
            self.counted[worker.worker_id] = now


def test_the_fleet_swaps_generations_forward(tmp_path):
    """No worker's generation or counter sample falls; a reader that
    polled after publish ``g`` answers the leaf pool bit for bit as the
    writer did at ``g``; a promoted reader serves every acknowledged add
    and remove."""
    run_state_machine_as_test(
        lambda: FleetMachine(tmp_path / "fleet.snap"), settings=PROFILE
    )


TestOneShard = ServiceMachine.TestCase
TestThreeShards = ThreeShardMachine.TestCase
TestFederated = FederatedMachine.TestCase
TestOneShard.settings = TestThreeShards.settings = PROFILE
# Two nodes have four up/down states: half-length histories reach each.
TestFederated.settings = settings(
    PROFILE, stateful_step_count=PROFILE.stateful_step_count // 2
)
