"""Lock-discipline regressions the analyzer must keep catching.

The acceptance bar for the guarded-by rule is concrete: reverting the PR-2
telemetry fix (snapshotting counters under the lock) must light the rule
up again.  These tests simulate that revert textually — on
``observability.py``, which owns those counters — and also pin the
behaviour of the genuine findings fixed in this PR (the unlocked
``__len__`` readers).
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.analysis import lint_source
from repro.core.bitset import DatasetBitmap
from repro.service.cache import LeafResultCache
from repro.service.observability import MetricsRegistry
from repro.service.planner import PlanCache

SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"


def _lint_file(name: str, mutate=None):
    source = (SRC / name).read_text()
    if mutate is not None:
        source = mutate(source)
    return lint_source(source, path=name, rules=["guarded-by"])


# -- the PR-2 bug class stays detectable --------------------------------


def test_service_modules_currently_clean():
    for name in ("cache.py", "observability.py"):
        assert _lint_file(name) == [], name


def test_reverting_pr2_telemetry_fix_is_caught():
    # The PR-2 bug: the /stats telemetry block read the counters without
    # their lock, tearing ratios like qps. Simulate the revert by stripping
    # the lock acquisitions; every annotated counter access must now flag.
    def strip_locks(source: str) -> str:
        assert "with self._lock:" in source
        return source.replace("with self._lock:", "if True:")

    findings = _lint_file("observability.py", mutate=strip_locks)
    assert findings, "guarded-by must flag the reverted telemetry fix"
    assert any(
        "_latencies" in f.message and "_telemetry()" in f.message for f in findings
    )
    assert any(
        "_out_total" in f.message and "record_query()" in f.message for f in findings
    )


def test_unlocking_cache_len_is_caught():
    def unlock_len(source: str) -> str:
        locked = "with self._lock:\n            return len(self._entries)"
        assert locked in source
        return source.replace(locked, "return len(self._entries)")

    findings = _lint_file("cache.py", mutate=unlock_len)
    assert any("_entries" in f.message and "__len__()" in f.message for f in findings)


# -- behaviour pins for the fixes applied in this PR --------------------


def test_leaf_cache_len_counts_entries():
    cache = LeafResultCache(capacity=4, registry=MetricsRegistry())
    assert len(cache) == 0
    cache.put("a", DatasetBitmap.from_indices([1, 2], 8))
    cache.put("b", DatasetBitmap.from_indices([3], 8))
    assert len(cache) == 2
    assert "a" in cache and "c" not in cache


def test_plan_cache_len_counts_plans():
    from repro.core.measures import PercentileMeasure
    from repro.core.predicates import pred
    from repro.geometry.rectangle import Rectangle

    cache = PlanCache(capacity=8, registry=MetricsRegistry())
    assert len(cache) == 0
    cache.plan(pred(PercentileMeasure(Rectangle([0.0], [0.5])), 0.2))
    assert len(cache) == 1


def test_len_safe_during_concurrent_churn():
    # The bug being prevented: OrderedDict len/iteration racing a
    # concurrent insert-evict. With the lock in __len__ this loop is
    # steady under churn.
    cache = LeafResultCache(capacity=8, registry=MetricsRegistry())
    stop = threading.Event()
    errors = []

    def churn() -> None:
        value = DatasetBitmap.zeros(8)
        i = 0
        while not stop.is_set():
            cache.put(i % 16, value)
            i += 1

    def measure() -> None:
        try:
            for _ in range(2000):
                n = len(cache)
                assert 0 <= n <= 8
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    t1 = threading.Thread(target=churn)
    t2 = threading.Thread(target=measure)
    t1.start()
    t2.start()
    t2.join()
    stop.set()
    t1.join()
    assert errors == []


# -- PR-10 federation module stays inside the lint disciplines ----------


def _lint_federation(mutate=None, rules=("failpoint-discipline",)):
    source = (SRC / "federation.py").read_text()
    if mutate is not None:
        source = mutate(source)
    return lint_source(source, path="federation.py", rules=list(rules))


def test_federation_currently_clean():
    assert _lint_federation(rules=["failpoint-discipline", "guarded-by"]) == []


def test_stripping_node_rpc_guard_is_caught():
    # The coordinator's node_rpc touchpoint must stay zero-cost: removing
    # the `faults.ARMED is not None` guard re-introduces an unconditional
    # call on every RPC attempt, and the rule must light up.
    def strip_guard(source: str) -> str:
        guarded = (
            "if faults.ARMED is not None:\n"
            "                    faults.hit(\"node_rpc\")"
        )
        assert guarded in source
        return source.replace(guarded, "faults.hit(\"node_rpc\")")

    findings = _lint_federation(mutate=strip_guard)
    assert findings, "failpoint-discipline must flag the unguarded hit"
    assert any(
        "faults.hit()" in f.message and "run()" in f.message
        for f in findings
    )


def test_unlocking_breaker_state_is_caught():
    # CircuitBreaker._state is read under _lock everywhere; stripping the
    # lock from allow() must trip guarded-by.
    def unlock_allow(source: str) -> str:
        locked = (
            "    def allow(self) -> bool:\n"
            '        """May a request go out now?  Half-open admits '
            'exactly one probe."""\n'
            "        with self._lock:\n"
        )
        assert locked in source
        return source.replace(
            locked,
            locked.replace("with self._lock:", "if True:"),
        )

    findings = _lint_federation(mutate=unlock_allow, rules=["guarded-by"])
    assert any("_state" in f.message and "allow()" in f.message for f in findings)


# -- the wire table stays the only reader of a request body --------------


def test_reading_a_body_field_around_the_table_is_caught():
    # PR 21: every inbound field goes through wire.decode.  Re-insert the
    # hand-read of one flag into the node's /search route.
    def hand_read(source: str) -> str:
        decoded = "        fields = parse_batch_body(body, single)\n"
        assert decoded in source
        return source.replace(
            decoded, decoded + '        fields["degrade"] = body.get("degrade")\n', 1
        )

    assert lint_source((SRC / "server.py").read_text(), path="server.py",
                       rules=["wire-schema"]) == []
    (finding,) = lint_source(
        hand_read((SRC / "server.py").read_text()), path="server.py",
        rules=["wire-schema"],
    )
    assert "_search() reads 'body' directly" in finding.message
