"""The four workloads: every input generated here, from the seed.

A workload is a lake, a deployment shape, a warm-up, and one request
stream per client connection.  Requests are fully encoded before any
timing starts, so the load generator only moves bytes.  Accuracy knobs are
the repo's bench convention and never vary; see README.md for why each
workload exists and which layers it leans on.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.core.measures import PreferenceMeasure
from repro.core.predicates import Predicate
from repro.geometry.interval import Interval
from repro.geometry.rectangle import Rectangle
from repro.service.server import expression_to_json
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import (
    batched_query_workload,
    mutation_workload,
    random_unit_vectors,
)

#: Pinned accuracy configuration (the repo's bench convention).
ACCURACY = {"eps": 0.2, "sample_size": 12, "service_seed": 1}
LAKE = {"family": "clustered", "median_size": 150, "size_sigma": 0.4}
PREF_KS = (3, 5)  # batched_query_workload's default ranks

#: Datasets per workload.  The 2-D lake is small because its build and its
#: snapshot restore cost seconds per 10 datasets and every run sets up
#: three times; ``--smoke`` divides all of these by 10.
N_DATASETS = {
    "warm_point": 2000,
    "cold_2d": 64,
    "ingest_churn": 1000,
    "federated_batch": 1200,
}
WORKLOADS = tuple(N_DATASETS)

INGEST_CAPACITY_FACTOR = 2  # accuracy contract sized for twice the lake
INGEST_EVENTS = 1200  # at most 240 adds x 2 datasets: stays under capacity
COLD_BATCHES = 2048  # ~12k distinct leaves, 3x the default leaf-cache capacity
FEDERATION_NODES = 2


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    body: bytes
    kind: str  # "query" | "add" | "remove"
    exprs: tuple = ()  # expressions a query carries, in answer order
    payload: object = None  # arrays of an add, indexes of a remove


@dataclass
class Workload:
    name: str
    lake: list
    warmup: list
    streams: list  # one Request iterator per client connection
    capacity: Optional[int] = None
    bounding_box: Optional[list] = None  # [lo, hi] pinned Ptile box
    nodes: int = 0  # > 0: federated over this many node processes
    #: Per-layer metrics whose layer must not run here.  They read an
    #: explicit 0; a span or sample of theirs means the workload is broken,
    #: and any other metric without one means the benchmark lost it.
    idle: tuple = ()


_LEAF_EVAL = (
    "sharding.eval_leaves_ms", "core.eval_leaf_batch_ms", "core.leaves_per_call",
    "index.report_many_ms", "index.boxes_per_call", "index.ids_per_result",
)
_INGEST = ("sharding.add_synopses_ms", "ingest.p50_ms", "ingest.p95_ms", "ingest.samples")
_DEGRADE = ("degrade.screen_ms", "degrade.maybe_fraction")
_PRODUCT_TRACE = ("observability.trace_overhead_ratio",)
_NODE_SPANS = (  # only the front child is traced: behind a coordinator, none
    "service.search_batch_ms", "planner.plan_ms", "planner.combine_ms", "cache.lookup_ms",
)
_FEDERATION = (
    "federation.search_batch_ms", "federation.rpc_p50_ms", "federation.overhead_ratio",
    "federation.retries", "federation.hedges", "federation.degraded_fraction",
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def search(expr, **flags) -> Request:
    body = json.dumps({"expression": expression_to_json(expr), **flags}).encode()
    return Request("POST", "/search", body, "query", (expr,))


def batch(exprs, fmt: str = "indexes", **flags) -> Request:
    payload = {"expressions": [expression_to_json(e) for e in exprs], **flags}
    if fmt != "indexes":
        payload["format"] = fmt
    return Request(
        "POST", "/search/batch", json.dumps(payload).encode(), "query", tuple(exprs)
    )


def _pref_touch(dim: int, rng: np.random.Generator) -> Request:
    """One Pref leaf per rank, so no timed request pays a lazy Pref build."""
    vectors = random_unit_vectors(len(PREF_KS), dim, rng)
    leaves = [
        Predicate(PreferenceMeasure(v, k=k), Interval.at_least(0.5))
        for v, k in zip(vectors, PREF_KS)
    ]
    return batch(leaves, "bitset")


def _lake(name: str, dim: int, seed: int, scale: int) -> list:
    n = max(4, N_DATASETS[name] // scale)
    return synthetic_data_lake(n, dim, _rng(seed, 0), **LAKE)


def _connections(wanted: int) -> int:
    """Never more client threads/connections than the host has cores."""
    return max(1, min(wanted, os.cpu_count() or 1))


def _chunks(items: list, size: int) -> Iterator[list]:
    for i in range(0, len(items), size):
        yield items[i : i + size]


def warm_point(seed: int, scale: int) -> Workload:
    lake = _lake("warm_point", 1, seed, scale)
    pool = batched_query_workload(
        256, 1, _rng(seed, 1),
        pref_fraction=0.25, duplicate_leaf_rate=0.5, max_leaves=4,
    )
    requests = [search(e) for e in pool]
    n_conn = _connections(2)
    return Workload(
        name="warm_point",
        lake=lake,
        # The whole pool once: fills the leaf cache, and the plan cache is
        # keyed by the submitted expression whichever endpoint carries it.
        warmup=[batch(chunk, "bitset") for chunk in _chunks(pool, 32)],
        streams=[itertools.cycle(requests[c::n_conn]) for c in range(n_conn)],
        # The product's own tracer is probed here, where nothing else costs.
        idle=_LEAF_EVAL + _INGEST + _DEGRADE + _FEDERATION,
    )


def cold_2d(seed: int, scale: int) -> Workload:
    lake = _lake("cold_2d", 2, seed, scale)
    exprs = batched_query_workload(
        4 * COLD_BATCHES, 2, _rng(seed, 1), duplicate_leaf_rate=0.0, max_leaves=3
    )
    requests = [batch(chunk) for chunk in _chunks(exprs, 4)]
    return Workload(
        name="cold_2d",
        lake=lake,
        warmup=[_pref_touch(2, _rng(seed, 2))],
        # One connection: two handler threads plus four shard threads
        # fighting over one GIL made identical runs differ by 20 %.
        # Wrapping around stays cold: the pool holds more leaves than the
        # leaf cache, so the LRU has dropped a leaf long before it recurs.
        streams=[itertools.cycle(requests)],
        # Uncached leaves: the only place a synopsis screen has work.
        idle=_INGEST + _PRODUCT_TRACE + _FEDERATION,
    )


def ingest_churn(seed: int, scale: int) -> Workload:
    lake = _lake("ingest_churn", 1, seed, scale)
    events = mutation_workload(
        INGEST_EVENTS, 1, _rng(seed, 1), n_initial=len(lake),
        add_fraction=0.2, remove_fraction=0.1, batch_size=8,
        datasets_per_add=2, dataset_size=LAKE["median_size"],
        ambient=Rectangle([0.0], [1.0]),
    )
    requests = []
    for kind, payload in events:
        if kind == "queries":
            requests.append(batch(payload, "bitset"))
        elif kind == "add":
            body = json.dumps({"datasets": [a.tolist() for a in payload]}).encode()
            requests.append(Request("POST", "/datasets", body, "add", payload=payload))
        else:
            body = json.dumps({"indexes": payload}).encode()
            requests.append(
                Request("DELETE", "/datasets", body, "remove", payload=payload)
            )
    queries = [r for r in requests if r.kind == "query"]
    return Workload(
        name="ingest_churn",
        lake=lake,
        warmup=[_pref_touch(1, _rng(seed, 2))],
        # One connection: event order, and so the oracle's lake, is fixed.
        # Past the generated stream only its query batches repeat, which
        # keeps the lake under the capacity the contract was sized for.
        streams=[itertools.chain(requests, itertools.cycle(queries))],
        capacity=INGEST_CAPACITY_FACTOR * len(lake),
        bounding_box=[[0.0], [1.0]],
        idle=_DEGRADE + _PRODUCT_TRACE + _FEDERATION,
    )


def federated_batch(seed: int, scale: int) -> Workload:
    lake = _lake("federated_batch", 1, seed, scale)
    pool = batched_query_workload(256, 1, _rng(seed, 1), duplicate_leaf_rate=0.5)
    requests = [batch(chunk, "bitset") for chunk in _chunks(pool, 8)]
    return Workload(
        name="federated_batch",
        lake=lake,
        warmup=list(requests),  # node caches hot, Pref ranks built
        streams=[itertools.cycle(requests)],
        nodes=FEDERATION_NODES,
        idle=_NODE_SPANS + _LEAF_EVAL + _INGEST + _DEGRADE + _PRODUCT_TRACE,
    )


BUILDERS = {
    "warm_point": warm_point,
    "cold_2d": cold_2d,
    "ingest_churn": ingest_churn,
    "federated_batch": federated_batch,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, 10 if smoke else 1)
