"""Paired flag/pass fixtures for every lint rule.

Each rule gets at least one fixture that must FLAG (the seeded violation)
and one that must PASS (the idiomatic repo shape), so a rule that silently
stops firing — or starts firing on clean code — fails here.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source


def run(source: str, rule: str):
    return lint_source(textwrap.dedent(source), path="fix.py", rules=[rule])


# -- guarded-by ---------------------------------------------------------


GUARDED_CLASS = """
    import threading

    class Counter:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self) -> None:
            {body}
"""


def test_guarded_by_flags_unlocked_write():
    src = GUARDED_CLASS.format(body="self.count += 1")
    findings = run(src, "guarded-by")
    assert len(findings) == 1
    f = findings[0]
    assert f.rule == "guarded-by"
    assert "Counter.count" in f.message
    assert "bump()" in f.message
    assert "_lock" in f.message


def test_guarded_by_flags_unlocked_read():
    src = GUARDED_CLASS.format(body="return self.count")
    (finding,) = run(src, "guarded-by")
    assert "read" in finding.message


def test_guarded_by_passes_locked_access():
    src = GUARDED_CLASS.format(
        body="with self._lock:\n                self.count += 1"
    )
    assert run(src, "guarded-by") == []


def test_guarded_by_wrong_lock_still_flags():
    src = """
    import threading

    class Counter:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._other = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self) -> None:
            with self._other:
                self.count += 1
    """
    assert len(run(src, "guarded-by")) == 1


def test_guarded_by_exempts_init_and_locked_suffix():
    src = """
    import threading

    class Counter:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock
            self.count = 1

        def _bump_locked(self) -> None:
            self.count += 1
    """
    assert run(src, "guarded-by") == []


def test_guarded_by_writes_qualifier_allows_reads():
    src = """
    import threading

    class Holder:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.executor = object()  # guarded-by: _lock [writes]

        def read(self):
            return self.executor

        def swap(self) -> None:
            self.executor = object()
    """
    (finding,) = run(src, "guarded-by")
    assert "written in swap()" in finding.message


def test_guarded_by_nested_def_resets_held_locks():
    # A nested function may run on a pool thread; the enclosing `with`
    # does not protect its body.
    src = """
    import threading

    class Counter:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self) -> None:
            with self._lock:
                def task() -> None:
                    self.count += 1
                self.pool.submit(task)
    """
    (finding,) = run(src, "guarded-by")
    assert "task()" in finding.message


# -- hot-path -----------------------------------------------------------


def test_hot_path_flags_alloc_in_loop():
    src = """
    def f(xs):  # lint: hot-path
        out = []
        for x in xs:
            out.append([x, x])
        return out
    """
    (finding,) = run(src, "hot-path")
    assert "allocates" in finding.message and "inside a loop" in finding.message


def test_hot_path_flags_comprehension_in_loop():
    src = """
    def f(xs):  # lint: hot-path
        out = []
        for x in xs:
            out.extend(y for y in x)
        return out
    """
    assert len(run(src, "hot-path")) == 1


def test_hot_path_flags_lock_in_loop():
    src = """
    def f(self, xs):  # lint: hot-path
        for x in xs:
            with self._lock:
                self.total += x
    """
    (finding,) = run(src, "hot-path")
    assert "acquires a lock inside a loop" in finding.message


def test_hot_path_flags_logging():
    src = """
    def f(xs):  # lint: hot-path
        logger.debug("called with %d items", len(xs))
        return sum(xs)
    """
    (finding,) = run(src, "hot-path")
    assert "logs on the hot path" in finding.message


def test_hot_path_flags_scalar_extraction_in_loop():
    src = """
    def f(arr, n):  # lint: hot-path
        total = 0.0
        for i in range(n):
            total += float(arr[i])
        return total
    """
    (finding,) = run(src, "hot-path")
    assert "vectorise" in finding.message


def test_hot_path_flags_item_in_loop():
    src = """
    def f(arr, n):  # lint: hot-path
        total = 0.0
        for i in range(n):
            total += arr[i].item()
        return total
    """
    (finding,) = run(src, "hot-path")
    assert ".item()" in finding.message


def test_hot_path_passes_clean_shapes():
    # Single lock acquisition, top-level comprehension, preallocated list:
    # all idiomatic warm-path shapes.
    src = """
    def f(self, xs):  # lint: hot-path
        squares = [x * x for x in xs]
        with self._lock:
            for s in squares:
                self.total += s
        return squares
    """
    assert run(src, "hot-path") == []


def test_hot_path_ignores_unmarked_functions():
    src = """
    def cold(xs):
        out = []
        for x in xs:
            out.append([x])
        return out
    """
    assert run(src, "hot-path") == []


def test_hot_path_marker_on_multiline_signature():
    src = """
    def f(
        xs,
        ys,
    ):  # lint: hot-path
        for x in xs:
            ys.append([x])
    """
    assert len(run(src, "hot-path")) == 1


# -- wire-schema --------------------------------------------------------


WIRE_HEADER = """
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        pass
"""


def test_wire_schema_flags_absolute_stamp_key():
    src = WIRE_HEADER + """
    def payload(result):
        return {"start_time": result.start_time}
    """
    (finding,) = run(src, "wire-schema")
    assert "absolute clock stamp" in finding.message


def test_wire_schema_flags_raw_emit_times():
    src = WIRE_HEADER + """
    def payload(result):
        out = {}
        out["emit_times"] = list(result.emit_times)
        return out
    """
    (finding,) = run(src, "wire-schema")
    assert "raw .emit_times" in finding.message


def test_wire_schema_passes_relative_times():
    src = WIRE_HEADER + """
    def payload(result, start):
        return {
            "emit_times": [t - start for t in result.emit_times],
            "duration_s": result.end_time - start,
        }
    """
    assert run(src, "wire-schema") == []


def test_wire_schema_follows_the_shared_envelope_base():
    # federation.py and supervisor.py subclass server.JsonRequestHandler,
    # never BaseHTTPRequestHandler by name: they are handler modules too.
    src = """
    from repro.service.server import JsonRequestHandler

    class _Handler(JsonRequestHandler):
        def _search(self, body):
            self._send_json({"end_time": self.result.end_time})
    """
    (finding,) = run(src, "wire-schema")
    assert "absolute clock stamp" in finding.message


ROUTED = """
    from repro.service.server import JsonRequestHandler
    from repro.wire import SEARCH, decode

    class _Handler(JsonRequestHandler):
        def _healthz(self):
            self._send_json({"status": "ok"})

        def _search(self, body):
            %s

        def _helper(self, body):
            return body["not-a-route"]

        routes = {("GET", "/healthz"): _healthz, ("POST", "/search"): _search}
"""


def test_wire_schema_flags_a_route_reading_its_body():
    for read in ('body.get("degrade")', 'body["expression"]'):
        (finding,) = run(ROUTED % f"self._send_json({{'x': {read}}})", "wire-schema")
        assert "_search() reads 'body' directly" in finding.message


def test_wire_schema_passes_a_route_decoding_through_the_table():
    src = ROUTED % 'self._send_json(decode(SEARCH, body, ""))'
    assert run(src, "wire-schema") == []


def test_wire_schema_ignores_non_handler_modules():
    src = """
    def payload(result):
        return {"start_time": result.start_time}
    """
    assert run(src, "wire-schema") == []


# -- snapshot-schema ----------------------------------------------------


SNAPSHOT_PATH = "src/repro/service/snapshot.py"


def run_at(source: str, rule: str, path: str):
    return lint_source(textwrap.dedent(source), path=path, rules=[rule])


def test_snapshot_schema_flags_pickle_import():
    src = """
    import pickle

    def save_state(obj, path):
        with open(path, "wb") as f:
            pickle.dump(obj, f)
    """
    findings = run_at(src, "snapshot-schema", SNAPSHOT_PATH)
    assert findings and "pickle" in findings[0].message


def test_snapshot_schema_flags_np_save():
    src = """
    import numpy as np

    def save_state(arr, path):
        np.save(path, arr)
    """
    (finding,) = run_at(src, "snapshot-schema", SNAPSHOT_PATH)
    assert "np.save" in finding.message


def test_snapshot_schema_flags_service_module_importing_snapshot():
    src = """
    import pickle
    from repro.service import snapshot

    def side_channel(obj, path):
        with open(path, "wb") as f:
            pickle.dump(obj, f)
    """
    findings = run_at(
        src, "snapshot-schema", "src/repro/service/supervisor.py"
    )
    assert findings and "pickle" in findings[0].message


def test_snapshot_schema_passes_container_io():
    src = """
    import numpy as np

    def read_segment(path, dtype, count, offset):
        buf = np.memmap(path, dtype=np.uint8, mode="r")
        return np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    """
    assert run_at(src, "snapshot-schema", SNAPSHOT_PATH) == []


def test_snapshot_schema_flags_computed_segment_hints():
    src = """
    _HINTS = {"codes": "mapped_codes", "levels": "mapped_levels"}
    _BAD = {"codes": "mapped#codes"}

    def state(index, writer, add_array, name):
        return [
            add_array("coreset", index.coresets),
            add_array(_HINTS[name], index.codes),
            writer.add_array("dataset", index.points),
            add_array(f"mapped_{name}", index.codes),
            add_array("mapped#codes", index.codes),
            add_array(_BAD[name], index.codes),
            add_array(_UNKNOWN[name], index.codes),
        ]
    """
    findings = run_at(src, "snapshot-schema", SNAPSHOT_PATH)
    assert [f.line for f in findings] == [10, 11, 12, 13]
    assert all("segment hint" in f.message for f in findings)


def test_snapshot_schema_ignores_unrelated_modules():
    src = """
    import pickle

    def cache_to_disk(obj, path):
        with open(path, "wb") as f:
            pickle.dump(obj, f)
    """
    assert run_at(src, "snapshot-schema", "src/repro/workloads/io.py") == []


# -- failpoint-discipline -----------------------------------------------


def test_failpoint_discipline_flags_unguarded_hit():
    src = """
    from repro.service import faults

    def eval_shard(unit):
        faults.hit("shard_eval")
        return unit
    """
    (finding,) = run(src, "failpoint-discipline")
    assert finding.rule == "failpoint-discipline"
    assert "eval_shard()" in finding.message
    assert "ARMED is not None" in finding.message


def test_failpoint_discipline_passes_guarded_hit():
    src = """
    from repro.service import faults

    def eval_shard(unit):
        if faults.ARMED is not None:
            faults.hit("shard_eval")
        return unit
    """
    assert run(src, "failpoint-discipline") == []


def test_failpoint_discipline_guard_survives_with_and_try():
    # The repo's real shape: the guard sits inside `with lock:` /
    # `try:` blocks, which must not launder the domination analysis.
    src = """
    from repro.service import faults

    def eval_shard(unit, lock):
        with lock:
            try:
                if faults.ARMED is not None:
                    faults.hit("shard_eval")
            finally:
                pass
        return unit
    """
    assert run(src, "failpoint-discipline") == []


def test_failpoint_discipline_early_return_guard():
    src = """
    from repro.service import faults

    def maybe_inject():
        if faults.ARMED is None:
            return
        faults.hit("handler")
    """
    assert run(src, "failpoint-discipline") == []


def test_failpoint_discipline_negative_guard_without_return_still_flags():
    src = """
    from repro.service import faults

    def maybe_inject():
        if faults.ARMED is None:
            pass
        faults.hit("handler")
    """
    (finding,) = run(src, "failpoint-discipline")
    assert "maybe_inject()" in finding.message


def test_failpoint_discipline_passes_ifexp_and_boolop_guards():
    src = """
    from repro.service import faults

    def eval_shard(unit):
        fired = faults.hit("a") if faults.ARMED is not None else None
        armed = faults.ARMED is not None and faults.hit("b")
        return unit, fired, armed
    """
    assert run(src, "failpoint-discipline") == []


def test_failpoint_discipline_guard_survives_for_with_and_try():
    # A guard nested inside a loop, a `with` or a `try` body (or handler)
    # dominates what follows it there, early-return shape included.
    src = """
    from repro.service import faults

    def eval_shard(units, lock):
        for unit in units:
            if faults.ARMED is not None:
                faults.hit("loop")
        with lock:
            if faults.ARMED is not None:
                faults.hit("locked")
        try:
            if faults.ARMED is None:
                return units
            faults.hit("tried")
        except ValueError:
            if faults.ARMED is not None:
                faults.hit("handled")
        return units
    """
    assert run(src, "failpoint-discipline") == []


def test_failpoint_discipline_flags_unguarded_hits_in_nested_bodies():
    src = """
    from repro.service import faults

    def eval_shard(units, lock):
        for unit in units:
            faults.hit("loop")
        with lock:
            if faults.ARMED is None:
                pass
            faults.hit("locked")
    """
    findings = run(src, "failpoint-discipline")
    assert [f.line for f in findings] == [6, 10]


def test_failpoint_discipline_flags_hot_path_touchpoint():
    src = """
    from repro.service import faults

    def leaf_loop(leaves):  # lint: hot-path
        if faults.ARMED is not None:
            faults.hit("shard_eval")
        return leaves
    """
    findings = run(src, "failpoint-discipline")
    assert findings, "hot-path touchpoint must be flagged even when guarded"
    assert all("hot-path" in f.message for f in findings)


def test_failpoint_discipline_exempts_faults_module():
    src = """
    def hit(point):
        return point
    """
    assert (
        run_at(src, "failpoint-discipline", "src/repro/service/faults.py")
        == []
    )
