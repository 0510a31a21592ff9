"""Server child of the e2e benchmark: build, report READY, serve, obey stdin.

Started by ``procs.Child`` as ``launcher.py SPEC.json``.  The spec names
the role (``node`` or ``coordinator``) and hands over only generated
inputs: the lake as two ``.npy`` files, or a snapshot path to restart
from.  Accuracy knobs come from the spec (they are pinned by the
benchmark); serving knobs are whatever ``repro serve`` / ``repro
federate`` default to today, read from the CLI parser, so a later change
of a default moves the numbers.

Protocol: one JSON object per line.  The child prints ``{"event":
"ready", ...}`` once every shard is built and the socket is bound, then
answers each stdin command with one line:

``spans``        recorded spans so far (and forget them)
``trace_serve``  swap the installed recorders for the request-path set
                 (refused if one of their targets no longer exists)
``trace_off``    remove every recorder
``save``         ``QueryService.save(path)``; replies seconds and bytes
``exit`` / EOF   shut the server down and leave
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from spans import ROOT, SpanRecorder  # noqa: E402


def serving_defaults() -> dict:
    """What ``repro serve`` and ``repro federate`` would run with today."""
    from repro.cli import build_parser

    parser = build_parser()
    serve = parser.parse_args(["serve"])
    fed = parser.parse_args(["federate"])
    return {
        "serve": {
            "shards": serve.shards,
            "engine": serve.engine,
            "cache_capacity": serve.cache_capacity,
            "trace": serve.trace,
            "max_inflight": serve.max_inflight,
            "max_queue": serve.max_queue,
        },
        "federate": {
            "rpc_timeout": fed.rpc_timeout,
            "max_retries": fed.max_retries,
            "hedge_delay": fed.hedge_delay,
            "breaker_threshold": fed.breaker_threshold,
            "breaker_reset": fed.breaker_reset,
            "merge_margin": fed.merge_margin,
            "trace": fed.trace,
        },
    }


def load_lake(spec: dict) -> list:
    points = np.load(spec["points"])
    sizes = np.load(spec["sizes"])
    return np.split(points, np.cumsum(sizes)[:-1])


def build_node(spec: dict, serve: dict):
    """A warmed ``QueryService`` from the lake files or from a snapshot."""
    from repro.core.framework import Repository
    from repro.geometry.rectangle import Rectangle
    from repro.service import QueryService
    from repro.service.federation import federated_node_service

    if spec.get("snapshot"):
        service = QueryService.load(spec["snapshot"], mmap=True)
    else:
        lake = load_lake(spec)
        box = spec.get("bounding_box")
        kwargs = dict(
            n_shards=serve["shards"],
            engine=serve["engine"],
            cache_capacity=serve["cache_capacity"],
            tracing=serve["trace"],
            eps=spec["eps"],
            sample_size=spec["sample_size"],
            seed=spec["service_seed"],
            bounding_box=Rectangle(*box) if box else None,
        )
        if spec.get("slice"):
            lo, hi = spec["slice"]
            service = federated_node_service(
                lake[lo:hi], offset=lo, total=len(lake), **kwargs
            )
        else:
            service = QueryService(
                repository=Repository.from_arrays(lake),
                capacity=spec.get("capacity"),
                **kwargs,
            )
    service.warm()
    return service


def build_coordinator(spec: dict, fed: dict):
    """Mirrors ``repro.cli.cmd_federate``."""
    from repro.service.federation import FederatedCoordinator

    coordinator = FederatedCoordinator(
        rpc_timeout_s=fed["rpc_timeout"],
        max_retries=fed["max_retries"],
        hedge_delay_s=fed["hedge_delay"] if fed["hedge_delay"] > 0 else None,
        breaker_threshold=fed["breaker_threshold"],
        breaker_reset_s=fed["breaker_reset"],
        merge_margin=fed["merge_margin"],
        tracing=fed["trace"],
    )
    for url in spec["nodes"]:
        coordinator.add_node(url)
    return coordinator


# ----------------------------------------------------------------------
# Recorder targets: (owner, attribute, span name[, n_in[, n_out]]).  An
# owner is "module" or "module:Class".  One that no longer resolves fails
# the traced run: a layer metric that silently read 0 after a rename
# would pass for an improvement.
# ----------------------------------------------------------------------
def _len_arg1(_self, items, *args, **kwargs) -> int:
    return len(items)


def _total_len(result) -> int:
    return sum(len(r) for r in result)


def _rows(result) -> int:
    return len(result[-1])


BUILD_TARGETS = [
    ("repro.core.ptile_range", "generalized_pairs_arrays", "geometry.enum", None, _rows),
    ("repro.core.ptile_threshold", "rectangles_arrays", "geometry.enum", None, _rows),
    ("repro.core.ptile_range", "build_engine", "index.build"),
    ("repro.core.ptile_range:PtileRangeIndex", "__init__", "core.ptile_build"),
    ("repro.core.pref_index:PrefIndex", "__init__", "core.pref_build"),
    ("repro.service.sharding:ShardedBatchExecutor", "warm", "sharding.warm"),
]

_SERVICE = "repro.service.service"
_EXECUTOR = "repro.service.sharding:ShardedBatchExecutor"
NODE_TARGETS = [
    ("repro.service.server", "expression_from_json", "server.decode"),
    (_SERVICE + ":QueryService", "search_batch", "service.search_batch", _len_arg1),
    (_SERVICE + ":QueryService", "add_datasets", "service.add_datasets"),
    (_SERVICE + ":QueryService", "remove_datasets", "service.remove_datasets"),
    (_SERVICE, "plan_batch", "planner.plan"),
    (_SERVICE, "evaluate_with_leaf_results", "planner.combine"),
    (_SERVICE + ":SynopsisScreen", "screen_leaf", "degrade.screen"),
    ("repro.service.cache:LeafResultCache", "get_entry", "cache.lookup"),
    (_EXECUTOR, "eval_leaves", "sharding.eval_leaves", _len_arg1),
    (_EXECUTOR, "eval_delta_leaves", "sharding.eval_leaves", _len_arg1),
    (_EXECUTOR, "add_synopses", "sharding.add_synopses", _len_arg1),
    ("repro.core.engine:DatasetSearchEngine", "eval_leaf_batch_bits",
     "core.eval_leaf_batch", _len_arg1),
]
for _backend in (
    "repro.index.kd_tree:DynamicKDTree",
    "repro.index.columnar:ColumnarStore",
    "repro.index.range_tree:RangeTree",
):
    # Two names: kd's report_groups_many calls its own report_many, and the
    # inner count (ids before the group-by) is the wasted-work side of
    # index.ids_per_result.
    NODE_TARGETS.append(
        (_backend, "report_groups_many", "index.report_groups_many",
         _len_arg1, _total_len)
    )
    NODE_TARGETS.append(
        (_backend, "report_many", "index.report_many", _len_arg1, _total_len)
    )

_FEDERATION = "repro.service.federation"
COORDINATOR_TARGETS = [
    (_FEDERATION, "expression_from_json", "server.decode"),
    (_FEDERATION + ":FederatedCoordinator", "search_batch",
     "federation.search_batch", _len_arg1),
    # The coordinator's RPC transport, as its module calls it.
    ("urllib.request", "urlopen", "federation.rpc"),
]


class MissingTargets(LookupError):
    """Recorder targets that the program no longer has."""


def resolve(targets: list) -> list:
    """Turn owner paths into objects; raises if any no longer exists."""
    resolved, missing = [], []
    for owner, attr, *rest in targets:
        if isinstance(owner, str):
            module, _, cls = owner.partition(":")
            try:
                obj = importlib.import_module(module)
                owner_obj = getattr(obj, cls) if cls else obj
                getattr(owner_obj, attr)
            except (ImportError, AttributeError):
                missing.append(f"{owner}.{attr}")
                continue
            owner = owner_obj
        resolved.append((owner, attr, *rest))
    if missing:
        raise MissingTargets(f"recorder targets not found: {', '.join(missing)}")
    return resolved


# ----------------------------------------------------------------------
def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    defaults = serving_defaults()
    recorder = SpanRecorder()
    if spec.get("trace_build"):
        try:
            recorder.install(resolve(BUILD_TARGETS))
        except MissingTargets as exc:
            sys.exit(f"launcher.py: {exc}")

    t0 = time.perf_counter()
    if spec["role"] == "coordinator":
        from repro.service.federation import make_federation_server

        service = build_coordinator(spec, defaults["federate"])
        make = make_federation_server
        contract = {}
    else:
        from repro.service.admission import AdmissionGate
        from repro.service.server import make_server

        service = build_node(spec, defaults["serve"])
        serve = defaults["serve"]
        gate = (
            AdmissionGate(
                max_inflight=serve["max_inflight"], max_queue=serve["max_queue"]
            )
            if serve["max_inflight"] is not None
            else None
        )

        def make(svc, host, port):
            return make_server(svc, host, port, gate=gate)

        contract = {
            "eps": service.executor.eps,
            "eps_effective": service.executor.eps_effective,
            "n_datasets": service.n_datasets,
        }
    build_s = time.perf_counter() - t0

    httpd = make(service, "127.0.0.1", spec.get("port", 0))
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ready = {
        "event": "ready",
        "port": httpd.server_address[1],
        "build_s": build_s,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "defaults": defaults,
        "contract": contract,
    }
    print(json.dumps(ready), flush=True)

    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        reply: dict = {"ok": True}
        if name == "exit":
            break
        if name == "spans":
            reply["spans"] = recorder.drain()
        elif name == "trace_off":
            recorder.uninstall()
        elif name == "trace_serve":
            recorder.uninstall()
            handler = httpd.RequestHandlerClass
            if spec["role"] == "coordinator":
                roots = [(handler, "do_POST", ROOT)]
                layers = COORDINATOR_TARGETS
            else:
                roots = [(handler, "do_POST", ROOT), (handler, "do_DELETE", ROOT)]
                layers = NODE_TARGETS
            try:
                recorder.install(resolve(roots + layers))
            except MissingTargets as exc:
                reply = {"ok": False, "error": str(exc)}
        elif name == "save":
            t0 = time.perf_counter()
            info = service.save(command["path"])
            reply["save_s"] = time.perf_counter() - t0
            reply["bytes"] = info["file_bytes"]
            reply["n_datasets"] = service.n_datasets
        else:
            reply = {"ok": False, "error": f"unknown command {name!r}"}
        print(json.dumps(reply), flush=True)

    httpd.shutdown()
    httpd.server_close()
    service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
