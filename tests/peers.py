"""Reference peers and running servers, built one way for every test.

The paper's contract — recall 1, precision slack within
``eps_effective + 2·delta``, and ``must ⊆ exact ⊆ must ∪ maybe`` for a
degraded answer — has to hold on every path that produces an answer.  Each
recipe here builds one of those paths the way the product builds it, so a
test that compares two answers compares two paths, not two hand-written
setups:

- :func:`serving` — a server on a daemon thread for the length of a
  ``with`` block (a short shutdown poll, so closing it costs milliseconds);
- :func:`rebuilt` — the executor a :meth:`QueryService.rebuild` would build
  from the service's current state, at any shard count;
- :func:`bare_engine` — one unsharded :class:`DatasetSearchEngine` under an
  executor's frozen contract;
- :func:`leaf_answers` / :func:`answers` — what an executor or an engine
  answers for leaves (tombstones masked on request) or expressions;
- :class:`Node` / :func:`federation` — in-process federated nodes in the
  global frame and their coordinator; :func:`single_service` — one service
  over the whole lake, the federation's reference.

``tests/service/test_stateful.py`` checks these same peers on random
histories.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from repro.core.bitset import DatasetBitmap
from repro.core.engine import DatasetSearchEngine
from repro.core.framework import Repository
from repro.core.predicates import Expression, Predicate
from repro.geometry.epsilon_sample import epsilon_of_sample_size
from repro.service import QueryService
from repro.service.federation import FederatedCoordinator, federated_node_service
from repro.service.observability import MetricsRegistry
from repro.service.planner import evaluate_with_leaf_results, plan_batch
from repro.service.server import make_server
from repro.service.sharding import ShardedBatchExecutor, partition_indices

#: ``serve_forever``'s shutdown poll: ``shutdown()`` waits up to one poll.
POLL_S = 0.002


@contextlib.contextmanager
def serving(httpd: Any) -> Iterator[str]:
    """Serve ``httpd`` on a daemon thread; yields its URL, and on exit shuts
    it down and closes its socket."""
    threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": POLL_S}, daemon=True
    ).start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()


def rebuilt(service: QueryService, n_shards: int) -> ShardedBatchExecutor:
    """The executor ``service.rebuild()`` would publish, at ``n_shards``:
    the same synopses, repository, tombstones and construction keywords."""
    executor = service.executor
    return ShardedBatchExecutor(
        synopses=executor.synopses,
        repository=executor.repository,
        n_shards=n_shards,
        removed=executor.removed,
        registry=MetricsRegistry(),
        **executor._rebuild_kwargs(),
    )


def bare_engine(executor: ShardedBatchExecutor) -> DatasetSearchEngine:
    """One engine over every seeded synopsis of ``executor`` (tombstoned
    ones included) under its frozen contract, its Ptile slack widened to
    the executor's ``eps_effective`` as every shard unit's is.  Mask
    ``executor.removed_bits()`` out of its answers before comparing.

    The engine's own slack is resolved for the live count, not for every
    synopsis it holds: an answer never contains a tombstoned dataset, so
    the union bound runs over the live ones, as the executor's does."""
    engine = DatasetSearchEngine(
        synopses=executor.synopses,
        eps=executor.eps,
        phi=executor.phi_eff,
        delta=executor._delta_param,
        sample_size=executor.sample_size,
        bounding_box=executor.bounding_box,
        engine=executor.engine_kind,
        rng=np.random.default_rng(executor.seed),
    )
    index = engine.build().ptile_index
    index.eps_effective = max(
        index.eps,
        epsilon_of_sample_size(executor.sample_size, executor.phi_eff, executor.n_live),
        executor.eps_effective,
    )
    return engine


Peer = Union[ShardedBatchExecutor, DatasetSearchEngine]


def leaf_answers(
    peer: Peer,
    leaves: Sequence[Predicate],
    removed: Optional[DatasetBitmap] = None,
) -> list[DatasetBitmap]:
    """Each leaf's answer on an executor or an engine, ``removed`` masked."""
    if isinstance(peer, ShardedBatchExecutor):
        answers = peer.eval_leaves(leaves)
    else:
        answers = peer.eval_leaf_batch_bits(leaves, np.arange(peer.n_datasets))
    if removed is None:
        return answers
    return [bits.andnot(removed) for bits in answers]


def answers(peer: Peer, expressions: Sequence[Expression]) -> list[list[int]]:
    """Each expression's sorted answer on a peer, as a service assembles
    it: the batch's unique leaves once, then And/Or over their bitsets."""
    batch = plan_batch(expressions)
    bits = dict(zip(
        batch.unique_leaves, leaf_answers(peer, list(batch.unique_leaves.values()))
    ))
    return [
        evaluate_with_leaf_results(plan.expression, bits).to_list()
        for plan in batch.plans
    ]


class Node:
    """One in-process federated node: a service behind a real HTTP server
    that can be killed and restarted on the same port."""

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self.port = 0
        self.restart()

    def restart(self) -> None:
        """Serve again; after a :meth:`kill`, on the same port (a healed
        node at the same address)."""
        httpd = make_server(self.service, host="127.0.0.1", port=self.port)
        self._stack = contextlib.ExitStack()
        self.url = self._stack.enter_context(serving(httpd))
        self.port = httpd.server_address[1]

    def kill(self) -> None:
        """Stop serving (idempotent): the port refuses connections."""
        self._stack.close()

    def close(self) -> None:
        self.kill()
        self.service.close()


def single_service(
    arrays: Sequence[np.ndarray], **service_kwargs: Any
) -> QueryService:
    """One service over the whole lake, in the frame a federation over it
    shares (the lake's bounding box, its size as capacity): what healthy
    federated answers equal bit for bit."""
    return QueryService(
        repository=Repository.from_arrays(arrays),
        capacity=len(arrays),
        **service_kwargs,
    )


@contextlib.contextmanager
def federation(
    arrays: Sequence[np.ndarray],
    n_nodes: int,
    coordinator: Optional[FederatedCoordinator] = None,
    **service_kwargs: Any,
) -> Iterator[tuple[list[Node], FederatedCoordinator, QueryService]]:
    """``n_nodes`` nodes over contiguous slices of ``arrays``, each built by
    ``federated_node_service`` in the lake's global frame (one bounding
    box, global-index coresets, the whole lake's capacity); yields
    ``(nodes, coordinator, reference)``.  The nodes are registered in
    order on ``coordinator`` (a default one when omitted); ``reference``
    is the :func:`single_service` with the same ``service_kwargs``."""
    box = Repository.from_arrays(arrays).bounding_box()
    total = len(arrays)
    nodes = [
        Node(
            federated_node_service(
                [arrays[i] for i in part],
                offset=part[0],
                total=total,
                bounding_box=box,
                **service_kwargs,
            )
        )
        for part in partition_indices(total, n_nodes)
    ]
    coordinator = coordinator if coordinator is not None else FederatedCoordinator()
    reference = single_service(arrays, **service_kwargs)
    try:
        for node in nodes:
            coordinator.add_node(node.url)
        yield nodes, coordinator, reference
    finally:
        coordinator.close()
        reference.close()
        for node in nodes:
            node.close()
