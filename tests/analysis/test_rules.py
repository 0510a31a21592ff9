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


# -- zero-cost ----------------------------------------------------------


def test_zero_cost_flags_unguarded_tracer():
    src = """
    def f(x, tracer=None):
        with tracer.span("f"):
            return x
    """
    (finding,) = run(src, "zero-cost")
    assert "tracer.span" in finding.message
    assert "pointer check" in finding.message


def test_zero_cost_passes_positive_guard():
    src = """
    def f(x, tracer=None):
        if tracer is not None:
            with tracer.span("f"):
                return x
        return x
    """
    assert run(src, "zero-cost") == []


def test_zero_cost_passes_early_return_guard():
    src = """
    def f(x, tracer=None):
        if tracer is None:
            return x
        with tracer.span("f"):
            return x
    """
    assert run(src, "zero-cost") == []


def test_zero_cost_passes_ifexp_and_boolop():
    src = """
    from contextlib import nullcontext

    def f(x, tracer=None):
        cm = tracer.span("f") if tracer is not None else nullcontext()
        flag = tracer is not None and tracer.enabled
        with cm:
            return x, flag
    """
    assert run(src, "zero-cost") == []


def test_zero_cost_passes_the_no_span_with_item():
    # The one spelling of a traced stage in service/: the conditional
    # context is the guard, and `span` (None when untraced) is not the
    # tracer — its own None check is the body's business.
    src = """
    from repro.service.observability import NO_SPAN

    def f(x, tracer=None):
        with (tracer.span("x") if tracer is not None else NO_SPAN) as span:
            if span is not None:
                span.meta.update(n=x)
            return x
    """
    assert run(src, "zero-cost") == []
    unconditional = src.replace(' if tracer is not None else NO_SPAN', "")
    (finding,) = run(unconditional, "zero-cost")
    assert "tracer.span" in finding.message


def test_zero_cost_guard_survives_for_with_and_try():
    # The guard-dominance walker is shared with failpoint-discipline
    # (analysis/context.py): a guard nested inside a loop, a `with` or a
    # `try` body dominates there too.  The zero-cost copy used to lose it.
    src = """
    def f(xs, lock, tracer=None):
        for x in xs:
            if tracer is not None:
                tracer.span("loop")
        with lock:
            if tracer is not None:
                tracer.span("locked")
        try:
            if tracer is None:
                return xs
            tracer.span("tried")
        except ValueError:
            if tracer is not None:
                tracer.span("handled")
        return xs
    """
    assert run(src, "zero-cost") == []


def test_zero_cost_still_flags_unguarded_touch_in_nested_bodies():
    src = """
    def f(xs, lock, tracer=None):
        for x in xs:
            tracer.span("loop")
        with lock:
            if tracer is None:
                pass
            tracer.span("locked")
    """
    findings = run(src, "zero-cost")
    assert [f.line for f in findings] == [4, 8]


def test_zero_cost_allows_bare_passthrough():
    src = """
    def f(x, tracer=None):
        return g(x, tracer=tracer)
    """
    assert run(src, "zero-cost") == []


def test_zero_cost_ignores_functions_without_tracer_param():
    src = """
    def f(x, tracer):
        return tracer.span(x)
    """
    assert run(src, "zero-cost") == []


# -- backend-protocol ---------------------------------------------------


PROTOCOL_HEADER = """
    from typing import Protocol

    class RangeSearchBackend(Protocol):
        def report(self, box): ...
        def count(self, box): ...

        @property
        def nbytes(self) -> int: ...

    DYNAMIC_ENGINES = ("dyn",)
"""


CONFORMANT_DYNAMIC_BACKEND = """
    class DynBackend:
        def report(self, box, out=None):
            return []

        def count(self, box):
            return 0

        @property
        def nbytes(self):
            return 0
    {persistence}
    def build_backend(engine, data):
        if engine == "dyn":
            return DynBackend(data)
        raise ValueError(engine)
"""

PERSISTENCE_PAIR = """
        def to_arrays(self):
            return {}

        @classmethod
        def from_arrays(cls, arrays):
            return cls()
"""


def test_backend_protocol_passes_conformant_backend():
    # The persistence pair is the dynamic engines' contract, not the
    # protocol's: a conformant dynamic backend carries both halves.
    src = PROTOCOL_HEADER + CONFORMANT_DYNAMIC_BACKEND.replace(
        "{persistence}", PERSISTENCE_PAIR
    )
    assert run(src, "backend-protocol") == []


def test_backend_protocol_flags_dynamic_engine_without_to_arrays():
    src = PROTOCOL_HEADER + CONFORMANT_DYNAMIC_BACKEND.replace("{persistence}", "")
    (finding,) = run(src, "backend-protocol")
    assert "listed in DYNAMIC_ENGINES but defines no to_arrays" in finding.message


def test_backend_protocol_asks_no_persisted_form_of_a_static_engine():
    src = (
        PROTOCOL_HEADER
        + CONFORMANT_DYNAMIC_BACKEND.replace("{persistence}", "")
        .replace('"dyn"', '"static"')
    )
    assert run(src, "backend-protocol") == []


def test_backend_protocol_flags_missing_method():
    src = PROTOCOL_HEADER + """
    class DynBackend:
        def report(self, box):
            return []

        @property
        def nbytes(self):
            return 0

    def build_backend(engine, data):
        if engine == "dyn":
            return DynBackend(data)
    """
    findings = run(src, "backend-protocol")
    assert any("missing RangeSearchBackend.count" in f.message for f in findings)


def test_backend_protocol_flags_arg_name_mismatch():
    src = PROTOCOL_HEADER + """
    class DynBackend:
        def report(self, rectangle):
            return []

        def count(self, box):
            return 0

        @property
        def nbytes(self):
            return 0

    def build_backend(engine, data):
        if engine == "dyn":
            return DynBackend(data)
    """
    findings = run(src, "backend-protocol")
    assert any("not call-compatible" in f.message for f in findings)


def test_backend_protocol_flags_non_property():
    src = PROTOCOL_HEADER + """
    class DynBackend:
        def report(self, box):
            return []

        def count(self, box):
            return 0

        def nbytes(self):
            return 0

    def build_backend(engine, data):
        if engine == "dyn":
            return DynBackend(data)
    """
    findings = run(src, "backend-protocol")
    assert any("must be a @property" in f.message for f in findings)


def test_backend_protocol_flags_to_arrays_without_from_arrays():
    backend = """
    class DynBackend:
        def report(self, box):
            return []

        def count(self, box):
            return 0

        @property
        def nbytes(self):
            return 0

        def to_arrays(self):
            return {}
    {restore}
    def build_backend(engine, data):
        if engine == "dyn":
            return DynBackend(data)
    """
    plain_method = """
        def from_arrays(self, arrays):
            return self
    """
    classmethod_ = """
        @classmethod
        def from_arrays(cls, arrays):
            return cls()
    """
    for restore in ("", plain_method):
        findings = run(PROTOCOL_HEADER + backend.replace("{restore}", restore),
                       "backend-protocol")
        assert any("no from_arrays classmethod" in f.message for f in findings)
    src = PROTOCOL_HEADER + backend.replace("{restore}", classmethod_)
    assert run(src, "backend-protocol") == []


def test_backend_protocol_ignores_non_registry_modules():
    assert run("class Unrelated:\n    pass\n", "backend-protocol") == []


# -- pool-capture -------------------------------------------------------


def test_pool_capture_flags_closure_mutation():
    src = """
    def run(pool, xs):
        out = []

        def task(x):
            out.append(x * 2)

        for x in xs:
            pool.submit(task, x)
    """
    (finding,) = run(src, "pool-capture")
    assert "mutates out via .append()" in finding.message


# The fixtures below mimic the one pool left in the tree: the federation
# coordinator scattering one RPC task per node.


def test_pool_capture_flags_self_state_write():
    src = """
    class Coordinator:
        def scatter(self, nodes):
            def call_node(i, node):
                self.answers[i] = node.ask()

            for i, node in enumerate(nodes):
                self.pool.submit(call_node, i, node)
    """
    (finding,) = run(src, "pool-capture")
    assert "writes self.answers[...]" in finding.message


def test_pool_capture_flags_span_without_parent():
    src = """
    class Coordinator:
        def scatter(self, tracer, node):
            def call_node():
                with tracer.span("rpc"):
                    node.ask()

            self.pool.submit(call_node)
    """
    (finding,) = run(src, "pool-capture")
    assert "opens a span" in finding.message


def test_pool_capture_passes_locked_mutation_and_parented_span():
    # "Parented": the one span is opened by the submitting thread, around
    # the fan-out; the pool-run callable opens none.
    src = """
    class Coordinator:
        def scatter(self, tracer, nodes):
            answers = []

            def call_node(node):
                local = [node.ask()]
                with self._lock:
                    answers.extend(local)

            with tracer.span("scatter"):
                for node in nodes:
                    self.pool.submit(call_node, node)
    """
    assert run(src, "pool-capture") == []


def test_pool_capture_passes_local_mutation():
    src = """
    def run(pool, xs):
        def task(x):
            acc = []
            acc.append(x)
            return acc

        for x in xs:
            pool.submit(task, x)
    """
    assert run(src, "pool-capture") == []


def test_pool_capture_resolves_self_methods():
    src = """
    class Coordinator:
        def _call_node_safe(self, node):
            self.contacted.add(node)

        def scatter(self, nodes):
            for node in nodes:
                self.pool.submit(self._call_node_safe, node)
    """
    (finding,) = run(src, "pool-capture")
    assert "mutates self.contacted" in finding.message


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
