"""Fork-gated tests for the pre-forked multi-process supervisor.

Covers the ISSUE-8 serving contract: N workers on one load-balanced
port over a shared mmap snapshot, single-writer ingest at worker 0
(siblings answer 409), and generation-bump propagation through the
snapshot file itself.  Skipped cleanly on platforms without ``os.fork``
or ``SO_REUSEPORT``.
"""

import json
import os
import random
import signal
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.framework import Repository
from repro.errors import CapabilityError, SnapshotError
from repro.service import QueryService, supervisor
from repro.service.server import expression_to_json
from repro.service.snapshot import generation_of, inspect
from repro.service import snapshot as snapshot_mod
from repro.service.supervisor import (
    ServiceSupervisor,
    _Worker,
    _WorkerSlot,
    fork_available,
)
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import batched_query_workload

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="multi-process serving needs os.fork and SO_REUSEPORT",
)

SEED = 23
DIM = 1


def _request(url, payload=None, method=None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=15) as resp:
        return json.loads(resp.read())


def _until(predicate, timeout=15.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


@pytest.fixture(scope="module")
def workload():
    lake = synthetic_data_lake(
        10, DIM, np.random.default_rng(SEED), median_size=60
    )
    queries = batched_query_workload(5, DIM, np.random.default_rng(SEED + 1))
    return lake, queries


@pytest.fixture()
def snapshot(workload, tmp_path):
    lake, queries = workload
    svc = QueryService(
        repository=Repository.from_arrays(lake),
        n_shards=2,
        seed=SEED,
        eps=0.2,
        sample_size=12,
        capacity=24,
    )
    expected = [r.indexes for r in svc.search_batch(queries)]
    path = tmp_path / "svc.snap"
    svc.save(path)
    svc.close()
    return path, queries, expected


class TestSupervisor:
    def test_serves_identical_answers_across_workers(self, snapshot):
        path, queries, expected = snapshot
        with ServiceSupervisor(path, workers=2, poll_interval=0.1) as sup:
            host, port = sup.start()
            url = f"http://{host}:{port}"
            payload = {"expressions": [expression_to_json(q) for q in queries]}
            worker_ids = set()
            for _ in range(12):
                out = _request(f"{url}/search/batch", payload)
                assert [r["indexes"] for r in out["results"]] == expected
                health = _request(f"{url}/healthz")
                worker_ids.add(health["worker_id"])
                assert health["worker_count"] == 2
                assert health["snapshot_generation"] == 0
            # SO_REUSEPORT load-balancing should reach both workers; the
            # kernel hashes per-connection, so 12 fresh connections
            # essentially always spread (this would only flake if the
            # kernel pinned every connection to one worker).
            assert len(worker_ids) == 2

    def test_ingest_bumps_generation_on_every_worker(self, snapshot):
        path, queries, expected = snapshot
        with ServiceSupervisor(path, workers=2, poll_interval=0.1) as sup:
            host, port = sup.start()
            url = f"http://{host}:{port}"
            new = np.random.default_rng(SEED + 2).normal(size=(30, DIM))
            payload = {"datasets": [new.tolist()]}
            receipt = None
            for _ in range(40):  # public port round-robins; find the writer
                try:
                    receipt = _request(f"{url}/datasets", payload)
                    break
                except urllib.error.HTTPError as exc:
                    if exc.code != 409:
                        raise
                    time.sleep(0.05)
            assert receipt is not None, "never reached the writer worker"
            assert receipt["indexes"] == [10]

            deadline = time.time() + 15
            stats = sup.aggregate_stats()
            while time.time() < deadline:
                stats = sup.aggregate_stats()
                if all(g >= 1 for g in stats["generations"]):
                    break
                time.sleep(0.1)
            assert all(g >= 1 for g in stats["generations"]), (
                f"generation bump did not propagate: {stats['generations']}"
            )
            assert stats["worker_count"] == 2
            # The reloaded sibling serves the post-ingest dataset count.
            for w in stats["workers"]:
                assert w["n_datasets"] == 11
            assert generation_of(path) >= 1
            # The snapshot is the one hand-off: nothing is written beside it.
            assert os.listdir(path.parent) == [path.name]

    def test_a_sibling_never_rolls_back(self, snapshot):
        """A sibling loads the file at the snapshot path only when its
        header generation is newer than the one it serves: an equal or
        older file put in its place leaves it as it was."""
        path, _queries, _expected = snapshot
        original = QueryService.load(path, mmap=False)

        def put(generation):
            tmp = path.parent / "replacement.snap"
            original.save(tmp, generation=generation)
            os.replace(tmp, path)

        def serving(worker):
            stats = _request(f"http://{host}:{sup.worker_ports[worker]}/stats")
            return stats["serving"]["snapshot_generation"], stats["n_datasets"]

        with ServiceSupervisor(path, workers=2, poll_interval=0.05) as sup:
            host, _port = sup.start()
            new = np.random.default_rng(SEED + 2).normal(size=(30, DIM))
            writer = f"http://{host}:{sup.worker_ports[0]}/datasets"
            assert _request(writer, {"datasets": [new.tolist()]})["indexes"] == [10]
            assert _until(lambda: serving(1) == (1, 11)), serving(1)
            for generation in (1, 0):  # equal, then older: 10 datasets each
                put(generation)
                time.sleep(0.5)  # ten polls
                assert serving(1) == (1, 11)
            put(2)  # newer: taken up
            assert _until(lambda: serving(1) == (2, 10)), serving(1)

    def test_failover_keeps_every_acknowledged_write(self, snapshot):
        """A sibling promoted before its next poll first takes up the file
        the dead writer published, so the writer's last acknowledged index
        is never handed out again and no generation is written twice."""
        path, _queries, _expected = snapshot
        rng = np.random.default_rng(SEED + 3)
        with ServiceSupervisor(path, workers=2, poll_interval=30.0) as sup:
            host, _port = sup.start()

            def add(worker):
                new = rng.normal(size=(30, DIM))
                url = f"http://{host}:{sup.worker_ports[worker]}/datasets"
                return _request(url, {"datasets": [new.tolist()]})["indexes"]

            assert add(0) == [10]
            assert generation_of(path) == 1
            os.kill(sup.pids[0], signal.SIGKILL)
            assert _until(lambda: sup.health()["writer_id"] == 1), sup.health()
            assert add(1) == [11]
        assert generation_of(path) == 2
        assert inspect(path)["executor"]["n_datasets"] == 12

    def test_non_writer_rejects_mutations(self, snapshot):
        path, queries, expected = snapshot
        with ServiceSupervisor(path, workers=2, poll_interval=0.5) as sup:
            sup.start()
            # Worker admin ports are direct (not load-balanced): worker 0
            # is the writer, worker 1 must refuse with 409.
            reader_port = sup.worker_ports[1]
            payload = {"indexes": [0]}
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _request(
                    f"http://{sup.host}:{reader_port}/datasets",
                    payload,
                    method="DELETE",
                )
            assert exc_info.value.code == 409
            body = json.loads(exc_info.value.read())
            assert "read-only" in body["error"]

    def test_aggregate_metrics_one_block_per_worker(self, snapshot):
        """One valid exposition for the fleet: a family is typed once and
        holds one block of samples per worker, told apart by a ``worker``
        label (a scrape rejects a second ``# TYPE`` or a repeated series)."""
        path, queries, expected = snapshot
        with ServiceSupervisor(path, workers=2, poll_interval=0.5) as sup:
            sup.start()
            text = sup.aggregate_metrics()
        lines = text.splitlines()
        typed = [ln.split(" ")[2] for ln in lines if ln.startswith("# TYPE ")]
        assert typed and len(typed) == len(set(typed))
        series = [ln.rsplit(" ", 1)[0] for ln in lines if not ln.startswith("#")]
        assert len(series) == len(set(series))
        assert all('worker="' in s for s in series)
        queries_total = [s for s in series if s.startswith("repro_queries_total{")]
        assert queries_total == [
            'repro_queries_total{worker="0"}', 'repro_queries_total{worker="1"}'
        ]
        # Samples sit under their own family's header, relabelled in place.
        at = lines.index("# TYPE repro_shard_size gauge")
        assert lines[at + 1] == 'repro_shard_size{shard="0",worker="0"} 5'

    def test_stop_is_idempotent_and_reaps_workers(self, snapshot):
        path, _queries, _expected = snapshot
        sup = ServiceSupervisor(path, workers=2, poll_interval=0.5)
        sup.start()
        pids = list(sup.pids)
        sup.stop()
        sup.stop()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: fully reaped, not a zombie

    def test_stop_safe_when_workers_already_died(self, snapshot):
        path, _queries, _expected = snapshot
        # A backoff no respawn falls due within: the fleet stays dead.
        sup = ServiceSupervisor(
            path, workers=2, poll_interval=0.5, backoff_base=3600.0,
            monitor_interval=0.05,
        )
        sup.start()
        for pid in list(sup.pids):
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.3)  # let the monitor reap them first
        sup.stop()  # must not raise on the already-gone fleet
        sup.stop()

    def test_dead_worker_flagged_not_fatal_in_aggregates(
        self, snapshot, monkeypatch
    ):
        path, _queries, _expected = snapshot
        monkeypatch.setattr(supervisor, "FETCH_TIMEOUT", 2.0)
        # A backoff no respawn falls due within: the fleet stays degraded.
        with ServiceSupervisor(
            path, workers=2, poll_interval=0.5, backoff_base=3600.0,
            monitor_interval=0.05,
        ) as sup:
            sup.start()
            os.kill(sup.pids[1], signal.SIGKILL)
            deadline = time.time() + 10
            while time.time() < deadline:
                if not sup.health()["workers"][1]["alive"]:
                    break
                time.sleep(0.05)
            health = sup.health()
            assert health["status"] == "degraded"
            assert health["workers"][0]["alive"]
            assert not health["workers"][1]["alive"]
            stats = sup.aggregate_stats()
            assert stats["worker_count"] == 2
            assert stats["unreachable"] == [1]
            assert stats["workers"][1]["status"] == "unreachable"
            text = sup.aggregate_metrics()
            assert "# supervisor worker 1 unreachable" in text
            assert 'repro_queries_total{worker="0"}' in text
            assert 'worker="1"' not in text

    def test_parent_admin_endpoint_reports_fleet_health(self, snapshot):
        path, queries, _expected = snapshot
        with ServiceSupervisor(path, workers=2, poll_interval=0.5) as sup:
            host, _port = sup.start()
            assert sup.admin_port is not None
            url = f"http://{host}:{sup.admin_port}"
            health = _request(f"{url}/healthz")
            assert health["status"] == "ok"
            assert [w["worker_id"] for w in health["workers"]] == [0, 1]
            assert health["writer_id"] == 0
            stats = _request(f"{url}/stats")
            assert stats["worker_count"] == 2

    def test_fetch_timeout_knob(self, snapshot, monkeypatch):
        path, _queries, _expected = snapshot
        seen = []

        def fake_call(url, body=None, timeout=None):
            seen.append(timeout)
            return 200, b"{}"

        monkeypatch.setattr(supervisor, "http_call", fake_call)
        monkeypatch.setattr(supervisor, "FETCH_TIMEOUT", 3.5)
        sup = ServiceSupervisor(path, workers=2)
        sup._call(1, "/stats")
        sup._call(1, "/healthz", timeout=1.0)
        assert seen == [3.5, 1.0]


    def test_the_fetch_retry_follows_a_respawned_worker(self, monkeypatch):
        """The aggregate's one retry asks the slot's current admin port: a
        worker respawned on a new port between the two tries answers."""
        sup = ServiceSupervisor("unused.snap", workers=2)
        sup._slots = [
            _WorkerSlot(worker_id, pid=0, admin_port=1000 + worker_id, backoff=0.25)
            for worker_id in range(2)
        ]
        asked = []

        def fake_call(port, path, body=None, timeout=None):
            asked.append(port)
            if port == 1001:  # worker 1 died; its respawn listens on 2001
                sup._slots[1].admin_port = 2001
                raise OSError("connection refused")
            worker_id = 0 if port == 1000 else 1
            return json.dumps(
                {"worker_id": worker_id, "serving": {"snapshot_generation": 0}}
            ).encode()

        monkeypatch.setattr(sup, "_call", fake_call)
        stats = sup.aggregate_stats()
        assert stats["unreachable"] == []
        assert [w["worker_id"] for w in stats["workers"]] == [0, 1]
        assert asked == [1000, 1001, 2001]


def put(path, generation, extra=0):
    """Atomically replace ``path`` with its service at ``generation``,
    ``extra`` random datasets added."""
    svc = QueryService.load(path, mmap=False)
    if extra:
        rng = np.random.default_rng(SEED + 4)
        svc.add_datasets([rng.normal(size=(30, DIM)) for _ in range(extra)])
    tmp = path.parent / "replacement.snap"
    svc.save(tmp, generation=generation)
    svc.close()
    os.replace(tmp, path)


def worker(path, generation, writer=False):
    """Worker 0 of 1 over ``path``, serving the file's service as
    ``generation``."""
    return _Worker(path, QueryService.load(path), generation, writer, 0, 1, None)


def count_opens(monkeypatch):
    """Record every container a worker opens from here on: a worker maps
    its files, while :func:`put` reads its copy privately."""
    calls = []
    real = snapshot_mod._open_container

    def counting(path, mmap):
        if mmap:
            calls.append(path)
        return real(path, mmap)

    monkeypatch.setattr(snapshot_mod, "_open_container", counting)
    return calls


class TestWorkerFollow:
    """A reader's poll over the snapshot file, without forking: a stat
    per poll, one container read per replaced file, a swap per newer
    generation, and an unreadable file is an error the watcher retries."""

    def test_an_unchanged_file_costs_a_stat_only(self, snapshot, monkeypatch):
        path, _queries, _expected = snapshot
        reader = worker(path, 0)
        served = reader.service
        opens = count_opens(monkeypatch)
        for _ in range(5):
            reader.follow()
        assert len(opens) == 1  # the first poll has no identity yet
        put(path, 0)
        reader.follow()
        assert len(opens) == 2  # replaced: read once, then stat only
        reader.follow()
        assert len(opens) == 2
        assert reader.service is served and reader.generation == 0

    def test_a_newer_file_is_loaded_once(self, snapshot, monkeypatch):
        path, _queries, _expected = snapshot
        reader = worker(path, 0)
        opens = count_opens(monkeypatch)
        put(path, 3, extra=1)
        reader.follow()
        assert reader.service.stats()["n_datasets"] == 11
        assert reader.generation == 3
        fresh = reader.service
        reader.follow()
        assert reader.service is fresh
        assert len(opens) == 1  # one read both decided and loaded the file

    def test_a_readers_counts_survive_a_follow(self, snapshot):
        """The counters belong to the process: a follow swaps the service,
        not the observability it counts into."""
        path, queries, _expected = snapshot
        reader = worker(path, 0)
        for _ in range(2):
            reader.service.search_batch(queries)
        before = reader.service.stats()
        assert before["cache"]["hits"] > 0
        put(path, 1, extra=1)
        reader.follow()
        assert reader.generation == 1
        after = reader.service.stats()
        assert after["n_datasets"] == 11
        for section, key in (("telemetry", "n_queries"), ("cache", "hits")):
            assert after[section][key] == before[section][key], (section, key)

    def test_batches_racing_follows_are_each_counted_once(self, snapshot):
        """A batch still running on the replaced service counts into the
        same registry as the new one: none is lost across the swaps."""
        path, queries, _expected = snapshot
        reader = worker(path, 0)
        stop = threading.Event()
        ran = [0] * 4

        def serve(i):
            while not stop.is_set():
                reader.service.search_batch(queries)
                ran[i] += 1

        threads = [threading.Thread(target=serve, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for generation in (1, 2, 3):
                put(path, generation)
                reader.follow()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reader.generation == 3 and all(ran), ran
        telemetry = reader.service.stats()["telemetry"]
        assert telemetry["n_batches"] == sum(ran)
        assert telemetry["n_queries"] == sum(ran) * len(queries)

    @pytest.mark.parametrize("generation", [2, 1], ids=["equal", "older"])
    def test_an_equal_or_older_file_is_never_loaded(self, snapshot, generation):
        path, _queries, _expected = snapshot
        reader = worker(path, 2)
        served = reader.service
        put(path, generation, extra=1)
        reader.follow()
        assert reader.service is served and reader.generation == 2
        put(path, 3)  # the same data stamped newer is taken up
        reader.follow()
        assert reader.service.stats()["n_datasets"] == 11
        assert reader.generation == 3

    @pytest.mark.parametrize(
        "garbage",
        [
            None,                                         # file removed
            b"",                                          # zero-length file
            b"NOTASNAP" + b"\x00" * 64,                   # bad magic
            b"\x00\xff\xfe\x8b random binary \x01\x02",  # torn binary write
            "prefix",                                     # truncated snapshot
            "header",                                     # header bytes flipped
        ],
        ids=["missing", "empty", "bad-magic", "binary", "truncated", "corrupt-header"],
    )
    def test_an_unreadable_file_raises_and_is_retried(self, snapshot, garbage):
        path, _queries, _expected = snapshot
        reader = worker(path, 0)
        good = path.read_bytes()
        if garbage is None:
            path.unlink()
        elif garbage == "prefix":
            path.write_bytes(good[:100])
        elif garbage == "header":
            path.write_bytes(good[:40] + b"\xff" * 16 + good[56:])
        else:
            path.write_bytes(garbage)
        # Exactly what the watcher catches, so a bad file never kills it.
        with pytest.raises((OSError, SnapshotError)):
            reader.follow()
        assert reader.generation == 0
        path.write_bytes(good)
        put(path, 1, extra=1)
        reader.follow()
        assert reader.service.stats()["n_datasets"] == 11
        assert reader.generation == 1

    def test_a_failed_read_is_retried_on_the_same_file(
        self, snapshot, monkeypatch
    ):
        """The identity is recorded only after a read succeeds, so one
        transient failure does not hide a newer file until it is
        replaced again."""
        path, _queries, _expected = snapshot
        put(path, 1, extra=1)
        reader = worker(path, 0)
        real = snapshot_mod._open_container
        failures = [SnapshotError("transient")]

        def flaky(p, mmap):
            if failures:
                raise failures.pop()
            return real(p, mmap)

        monkeypatch.setattr(snapshot_mod, "_open_container", flaky)
        with pytest.raises(SnapshotError):
            reader.follow()
        reader.follow()  # same inode and mtime: read again
        assert reader.service.stats()["n_datasets"] == 11
        assert reader.generation == 1

    def test_a_writer_never_follows(self, snapshot, monkeypatch):
        """The writer's live service is the newest state: a file put in
        its place, however new, is not read."""
        path, _queries, _expected = snapshot
        writer = worker(path, 0, writer=True)
        served = writer.service
        opens = count_opens(monkeypatch)
        put(path, 3, extra=1)
        writer.follow()
        assert writer.service is served and writer.generation == 0
        assert opens == []

    def test_promote_takes_up_a_newer_file_before_its_first_publish(
        self, snapshot
    ):
        """A reader promoted before its next poll serves what the dead
        writer published last, and publishes the next generation."""
        path, _queries, _expected = snapshot
        reader = worker(path, 0)
        put(path, 3, extra=1)
        reader.promote()
        assert reader.writer and reader.generation == 3
        assert reader.service.stats()["n_datasets"] == 11
        rng = np.random.default_rng(SEED + 5)
        assert reader.service.add_datasets([rng.normal(size=(30, DIM))])[
            "indexes"
        ] == [11]
        reader.mutated()
        assert reader.generation == generation_of(path) == 4
        assert inspect(path)["executor"]["n_datasets"] == 12

    def test_a_failed_catch_up_leaves_the_worker_a_reader(self, snapshot):
        """A promotion whose catch-up raises is refused, so the parent
        tries the next sibling; this worker stays a reader."""
        path, _queries, _expected = snapshot
        reader = worker(path, 0)
        good = path.read_bytes()
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotError):
            reader.promote()
        assert not reader.writer and reader.generation == 0
        path.write_bytes(good)
        put(path, 1, extra=1)
        reader.promote()
        assert reader.writer and reader.generation == 1


def test_bad_snapshot_fails_start(tmp_path):
    bogus = tmp_path / "bogus.snap"
    bogus.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotError):
        ServiceSupervisor(bogus, workers=2).start()


def test_a_platform_without_reuseport_is_refused_before_any_fork(
    snapshot, monkeypatch
):
    """Workers share the port through ``SO_REUSEPORT`` only: without it
    ``start()`` refuses up front, with the error a fork-less platform
    gets, instead of forking workers onto an inherited socket."""
    path, _queries, _expected = snapshot

    def fork():
        raise AssertionError("forked a worker")

    monkeypatch.delattr(socket, "SO_REUSEPORT")
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(CapabilityError, match="SO_REUSEPORT"):
        ServiceSupervisor(path, workers=2).start()


class TestRespawnJitter:
    """Respawn scheduling stretches each backoff by a random factor in
    [1, 1 + BACKOFF_JITTER] so a fleet that died together does not
    re-fork (and potentially re-crash) in lockstep."""

    def _supervisor(self, seed=None, **kw):
        # Constructor only; never started, so no snapshot file is needed.
        sup = ServiceSupervisor("unused.snap", workers=2, **kw)
        if seed is not None:
            sup._backoff_rng = random.Random(seed)
        return sup

    def _slot(self, sup, worker_id=0):
        slot = _WorkerSlot(worker_id, pid=0, admin_port=0,
                           backoff=sup.backoff_base)
        slot.alive = False
        return slot

    def test_simultaneous_crashes_get_distinct_respawn_times(self):
        sup = self._supervisor(seed=123)
        now = 100.0
        times = []
        for wid in range(8):
            slot = self._slot(sup, wid)
            sup._schedule_respawn_locked(slot, now)
            times.append(slot.next_respawn)
        assert len(set(times)) == len(times)  # no lockstep
        lo = now + sup.backoff_base
        hi = now + sup.backoff_base * (1.0 + supervisor.BACKOFF_JITTER)
        assert all(lo <= t <= hi for t in times)

    def test_zero_jitter_restores_deterministic_delays(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_JITTER", 0.0)
        sup = self._supervisor()
        slot = self._slot(sup)
        sup._schedule_respawn_locked(slot, 50.0)
        assert slot.next_respawn == 50.0 + sup.backoff_base
        assert slot.backoff == sup.backoff_base * 2.0

    def test_seed_pins_the_schedule(self):
        a, b = (self._supervisor(seed=7) for _ in range(2))
        sa, sb = self._slot(a), self._slot(b)
        for now in (10.0, 20.0, 30.0):
            a._schedule_respawn_locked(sa, now)
            b._schedule_respawn_locked(sb, now)
            assert sa.next_respawn == sb.next_respawn
            assert sa.backoff == sb.backoff

    def test_backoff_still_doubles_to_cap_under_jitter(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_MAX", 1.0)
        sup = self._supervisor(seed=1, backoff_base=0.25)
        slot = self._slot(sup)
        ladder = []
        for _ in range(5):
            ladder.append(slot.backoff)
            sup._schedule_respawn_locked(slot, 0.0)
        assert ladder == [0.25, 0.5, 1.0, 1.0, 1.0]

    def test_rejects_out_of_range_jitter(self):
        # No longer a keyword a caller could get wrong: the constant itself
        # has to sit in the range the constructor used to enforce (a factor
        # outside [1, 2] respawns a slot early or stalls it).
        assert 0.0 <= supervisor.BACKOFF_JITTER <= 1.0
