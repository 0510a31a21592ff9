"""Pre-forked multi-process serving over one mmap-backed snapshot.

CPython's GIL caps a single serving process at one core of query
throughput no matter how many threads the HTTP server spawns.  The
supervisor gets past that the classic Unix way: the parent ``load()``\\ s
the snapshot once with ``mmap=True`` and then **forks** ``N`` workers —
every immutable page (mapped-point matrices, coresets, raw datasets) is
shared read-only between all workers through the page cache, so warm
aggregate QPS scales with cores while resident memory stays flat in the
worker count.

Socket strategy
---------------
Each worker binds its own listening socket to the same address with
``SO_REUSEPORT`` (the kernel load-balances new connections across
workers).  A platform without ``SO_REUSEPORT`` is refused up front, like
one without ``fork``.

Single-writer ingest
--------------------
Exactly one worker is writable at a time (its siblings answer ``409``
for ``POST/DELETE /datasets``; see :mod:`repro.service.server`).  A
worker's service, generation and writer role live in one object, the node
its handlers bind (``_Worker``), and one lock orders their changes.  After
each successful mutation the writer bumps the generation and rewrites the
snapshot atomically (temp file + rename); that file is the only hand-off.
Sibling workers ``os.stat`` it every poll; when its identity (inode,
mtime) changes they read the container once, and when its generation is
newer than the one they serve they swap its service (again mmap-backed)
in between requests.  An equal or older file is never loaded: a sibling
does not roll back.

Self-healing
------------
A monitor thread in the parent keeps the fleet at strength:

- **Reaping**: crashed workers are noticed via ``waitpid(WNOHANG)``
  within one monitor tick.
- **Respawn**: a dead slot is always re-forked, from the *current*
  snapshot file and the generation in its header, after a
  per-slot exponential backoff (``backoff_base`` doubling up to
  :data:`BACKOFF_MAX`, each delay stretched by up to
  :data:`BACKOFF_JITTER`).  A slot that crashes
  :data:`CRASH_LOOP_THRESHOLD` times inside :data:`CRASH_LOOP_WINDOW`
  seconds trips a circuit breaker and stays down — a deterministic
  crasher must not burn CPU in a fork loop.
- **Writer failover**: when the writer dies, the lowest-id live worker
  is promoted via ``POST /admin/promote`` on its private admin port (the
  public port never exposes that endpoint), and the dead slot respawns
  as a plain reader.  Before it takes a write the promoted worker loads
  the file if the dead writer published past what it serves, so no
  acknowledged write is lost.  Single-writer stays invariant throughout.
- **Liveness probes**: workers that stop answering ``/healthz`` on the
  admin port for :data:`PROBE_FAILURES` consecutive probes are killed
  (SIGKILL) and recycled through the respawn path — a hung process is
  as dead as a crashed one.

The parent also runs a tiny admin server of its own (``admin_port``)
whose ``/healthz`` reports per-worker liveness and whose ``/stats`` /
``/metrics`` aggregate the fleet, tolerating unreachable workers.

Everything here is gated on :func:`fork_available`: on platforms without
``os.fork`` or ``SO_REUSEPORT`` the supervisor raises
:class:`~repro.errors.CapabilityError` up front and the single-process
``repro serve`` path still works.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import sys
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Optional

from repro.errors import CapabilityError, SnapshotError
from repro.service import snapshot as snapshot_mod
from repro.service.admission import AdmissionGate
from repro.service.server import (
    JsonRequestHandler,
    _handler,
    _Node,
    _ServiceRequestHandler,
    http_call,
)
from repro.service.service import QueryService
from repro.wire import READY_REPORT, decode

#: Liveness probing: each live worker's admin ``/healthz`` is hit every
#: ``PROBE_INTERVAL`` seconds; ``PROBE_FAILURES`` consecutive misses get the
#: worker SIGKILLed (and recycled via respawn).
PROBE_INTERVAL = 1.0
PROBE_FAILURES = 3

#: Timeout of one parent -> worker admin exchange (stats and metrics
#: aggregation, promotion), seconds.  A liveness probe waits 1 s, not this.
FETCH_TIMEOUT = 10.0

#: Respawn backoff: a slot's delay doubles per consecutive crash from the
#: supervisor's ``backoff_base`` up to ``BACKOFF_MAX`` seconds, and each
#: scheduled delay is stretched by a uniform random factor in
#: ``[1, 1 + BACKOFF_JITTER]`` (``BACKOFF_JITTER`` in ``[0, 1]``) so workers
#: that died together — a poison query fanned to the whole fleet — don't
#: respawn in lockstep and re-crash as one thundering herd.
BACKOFF_MAX = 4.0
BACKOFF_JITTER = 0.5

#: Crash-loop circuit breaker: a slot crashing ``CRASH_LOOP_THRESHOLD``
#: times within ``CRASH_LOOP_WINDOW`` seconds stays down until the
#: supervisor restarts.
CRASH_LOOP_THRESHOLD = 5
CRASH_LOOP_WINDOW = 30.0


def fork_available() -> bool:
    """Whether this platform can run the pre-forked supervisor: it forks
    workers that share one port through ``SO_REUSEPORT``."""
    return hasattr(os, "fork") and hasattr(socket, "SO_REUSEPORT")


class _Worker(_Node):
    """A forked worker's node over the snapshot file, the fleet's one
    hand-off.  One lock orders the three ways its state moves:

    - :meth:`follow` (a reader's poll) costs one ``os.stat`` while the file
      is unchanged.  When its identity (inode, mtime) changes the container
      is read once, and its service swaps in only when its generation is
      newer than :attr:`generation` (never a rollback), adopting the
      process's observability, so no counter falls.  A read that raises
      leaves the identity unrecorded, so the next poll retries it.  A
      writer never follows: its live service is the newest state.
    - :meth:`mutated` (the writer, after each mutation) saves the service
      as the next generation over the file (temp file + rename).
    - :meth:`promote` catches up with the file, then sets :attr:`writer`.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        service: QueryService,
        generation: int,
        writer: bool,
        worker_id: int,
        worker_count: int,
        gate: Optional[AdmissionGate],
    ) -> None:
        super().__init__(service, gate)
        self.path = path
        self.service = service  # guarded-by: _lock [writes]
        self.generation = generation  # guarded-by: _lock [writes]
        self.writer = writer  # guarded-by: _lock [writes]
        self.worker_id = worker_id
        self.worker_count = worker_count
        self._seen: Optional[tuple[int, int]] = None  # guarded-by: _lock
        self._lock = threading.Lock()

    def follow(self) -> None:
        """Take up a newer file at :attr:`path` (a reader's poll)."""
        with self._lock:
            if not self.writer:
                self._follow_locked()

    def _follow_locked(self) -> None:
        st = os.stat(self.path)
        file = (st.st_ino, st.st_mtime_ns)
        if file == self._seen:
            return
        generation, restore = snapshot_mod._read(self.path)
        if generation > self.generation:
            service = restore(self.service.observability)
            self.service, self.generation = service, generation
        self._seen = file

    def watch(self, interval: float) -> None:
        """Follow every ``interval`` seconds until promoted; a read that
        raises (a torn or missing file) is retried by the next poll."""
        while not self.writer:
            time.sleep(interval)
            try:
                self.follow()
            except (OSError, SnapshotError):  # pragma: no cover
                pass

    def mutated(self) -> None:
        with self._lock:
            generation = self.generation + 1
            self.service.save(self.path, generation=generation)
            self.generation = generation

    def promote(self) -> None:
        """Become the writer.  First take up whatever the dead writer
        published since the last poll, or its acknowledged writes would be
        overwritten; a catch-up that raises leaves this worker a reader
        and answers the promotion with an error, so the parent tries the
        next sibling."""
        with self._lock:
            if not self.writer:
                self._follow_locked()
                self.writer = True


class _AdminHandler(_ServiceRequestHandler):
    """A worker's private admin port: the node's routes plus
    ``/admin/promote``.  Whoever can reach that route can mint a writer,
    so only this table has it; the load-balanced public port 404s it."""

    def _promote(self, body: dict) -> None:
        self.node.promote()
        self._send_json({"promoted": True, **self._serving_fields()})

    routes = {
        **_ServiceRequestHandler.routes,
        ("POST", "/admin/promote"): _promote,
    }


class _ReuseportHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that sets ``SO_REUSEPORT`` before binding."""

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _WorkerSlot:
    """The parent's mutable record of one worker process (one per id)."""

    __slots__ = (
        "worker_id", "pid", "admin_port", "alive", "restarts",
        "crash_times", "probe_misses", "last_probe", "spawned_at",
        "backoff", "next_respawn", "disabled", "exit_code",
    )

    def __init__(
        self, worker_id: int, pid: int, admin_port: int, backoff: float
    ) -> None:
        self.worker_id = worker_id
        self.pid = pid
        self.admin_port = admin_port
        self.alive = True
        self.restarts = 0
        self.crash_times: list[float] = []
        self.probe_misses = 0
        self.last_probe = 0.0
        self.spawned_at = time.monotonic()
        self.backoff = backoff
        self.next_respawn = 0.0
        self.disabled = False
        self.exit_code: Optional[int] = None


class _SupervisorAdminHandler(JsonRequestHandler):
    """The parent's own admin endpoint: fleet health and aggregates."""

    supervisor: "ServiceSupervisor"

    def _healthz(self) -> None:
        health = self.supervisor.health()
        self._send_json(health, status=200 if health["status"] == "ok" else 503)

    def _stats(self) -> None:
        self._send_json(self.supervisor.aggregate_stats())

    def _metrics(self) -> None:
        self._send_text(self.supervisor.aggregate_metrics())

    routes = {
        ("GET", "/healthz"): _healthz,
        ("GET", "/stats"): _stats,
        ("GET", "/metrics"): _metrics,
    }


class ServiceSupervisor:
    """Pre-fork ``workers`` serving processes over one snapshot file.

    Parameters
    ----------
    snapshot_path:
        A container written by :func:`repro.service.snapshot.save` (a
        :class:`QueryService`, the only thing a container holds).
    workers:
        Number of serving processes.  Worker 0 starts as the single
        writer; writership migrates on writer death (see module docs).
    host, port:
        Public listening address; ``port=0`` picks an ephemeral port
        (resolved before forking so every worker binds the same one).
    poll_interval:
        How often, in seconds, a sibling checks the snapshot file for a
        newer generation.
    monitor_interval:
        Monitor tick (reap + respawn + probe scheduling), seconds.
    backoff_base:
        Respawn backoff: first respawn after ``backoff_base`` seconds
        (jittered), doubling per consecutive crash up to
        :data:`BACKOFF_MAX`.
    max_inflight, max_queue:
        Per-worker admission control knobs (see
        :class:`~repro.service.admission.AdmissionGate`); None disables.

    Examples
    --------
    ::

        sup = ServiceSupervisor("engine.snap", workers=4, port=0)
        host, port = sup.start()
        ...  # serve traffic on http://host:port
        sup.stop()
    """

    def __init__(
        self,
        snapshot_path: "str | os.PathLike[str]",
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.25,
        quiet: bool = True,
        monitor_interval: float = 0.2,
        backoff_base: float = 0.25,
        max_inflight: Optional[int] = None,
        max_queue: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.snapshot_path = os.fspath(snapshot_path)
        self.workers = int(workers)
        self.host = host
        self.port = int(port)
        self.poll_interval = float(poll_interval)
        self.quiet = quiet
        self.monitor_interval = float(monitor_interval)
        self.backoff_base = float(backoff_base)
        self._backoff_rng = random.Random()  # guarded-by: _lock
        self.max_inflight = max_inflight
        self.max_queue = int(max_queue)
        self.admin_port: Optional[int] = None  # the parent's own admin port
        self._slots: list[_WorkerSlot] = []  # guarded-by: _lock
        self._writer_id = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._admin_httpd: Optional[ThreadingHTTPServer] = None
        self._placeholder: Optional[socket.socket] = None
        self._started = False

    @property
    def pids(self) -> list[int]:
        """``pids[i]`` is worker ``i``'s current incarnation (a respawn
        shows as soon as its slot is updated)."""
        with self._lock:
            return [s.pid for s in self._slots]

    @property
    def worker_ports(self) -> list[int]:
        """The private per-worker admin ports, by worker id."""
        with self._lock:
            return [s.admin_port for s in self._slots]

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"supervisor: {message}", file=sys.stderr, flush=True)

    # -- parent side ---------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Load, fork, wait for every worker to bind; returns (host, port)."""
        if not fork_available():
            raise CapabilityError(
                "multi-process serving needs os.fork() and SO_REUSEPORT; "
                "this platform lacks one — use single-process 'repro serve' "
                "instead"
            )
        if self._started:
            raise RuntimeError("supervisor already started")
        # Load BEFORE forking: the mmap'ed pages and every Python object
        # built from the header are shared copy-on-write with all workers.
        generation, restore = snapshot_mod._read(self.snapshot_path)
        service = restore(None)  # each fork is a new process: fresh counters

        # Resolve an ephemeral port without listening: a bound placeholder
        # reserves the number, workers bind the same port with
        # SO_REUSEPORT, and only *listening* sockets receive connections,
        # so the placeholder never steals one.  Held open for the
        # supervisor's whole life, not just startup: were every worker to
        # die at once, the port must still be ours when the respawns
        # re-bind it.
        self._placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._placeholder.bind((self.host, self.port))
        self.port = self._placeholder.getsockname()[1]

        try:
            for worker_id in range(self.workers):
                pid, admin_port = self._fork_worker(
                    worker_id, service, generation, writer=(worker_id == 0)
                )
                with self._lock:
                    self._slots.append(
                        _WorkerSlot(
                            worker_id, pid, admin_port, self.backoff_base
                        )
                    )
        except SnapshotError:
            self.stop()
            raise
        del service, restore  # the parent's copy served its purpose at fork time

        self._admin_httpd = ThreadingHTTPServer(
            (self.host, 0), _handler(_SupervisorAdminHandler, True, supervisor=self)
        )
        self.admin_port = self._admin_httpd.server_address[1]
        threading.Thread(
            target=self._admin_httpd.serve_forever,
            name="repro-supervisor-admin",
            daemon=True,
        ).start()

        self._stop_event.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor-monitor",
            daemon=True,
        )
        self._monitor.start()
        self._started = True
        return self.host, self.port

    def _fork_worker(
        self,
        worker_id: int,
        service: QueryService,
        generation: int,
        writer: bool,
    ) -> tuple[int, int]:
        """Fork one worker and wait for its ready report: (pid, admin_port)."""
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: never returns.
            os.close(r)
            try:
                self._worker_main(worker_id, service, generation, w, writer)
            finally:
                os._exit(0)
        os.close(w)
        with os.fdopen(r, "r", encoding="utf-8") as f:
            line = f.readline()
        try:
            report = decode(READY_REPORT, json.loads(line), "ready report")
        except ValueError:  # not JSON, or refused by the table
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            raise SnapshotError(
                "a supervisor worker failed to start "
                f"(bad ready report {line!r})"
            )
        return pid, report["admin_port"]

    def stop(self) -> None:
        """Stop the monitor, SIGTERM every live worker, reap (idempotent).

        Safe when workers already died on their own: signalling a gone
        pid and reaping an already-reaped child are both swallowed.
        """
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        if self._admin_httpd is not None:
            self._admin_httpd.shutdown()
            self._admin_httpd.server_close()
            self._admin_httpd = None
            self.admin_port = None
        with self._lock:
            targets = [s.pid for s in self._slots if s.alive]
            self._slots = []
        for pid in targets:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in targets:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        if self._placeholder is not None:
            self._placeholder.close()
        self._placeholder = None
        self._started = False

    def __enter__(self) -> "ServiceSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- self-healing monitor ------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.monitor_interval):
            now = time.monotonic()
            try:
                self._reap(now)
                self._respawn_due(now)
                self._probe(now)
            except Exception as exc:  # pragma: no cover - keep monitoring
                self._log(f"monitor tick failed: {exc}")

    def _reap(self, now: float) -> None:
        """Notice exited workers; writer death triggers promotion."""
        with self._lock:
            live = [s for s in self._slots if s.alive]
        for slot in live:
            try:
                pid, status = os.waitpid(slot.pid, os.WNOHANG)
            except ChildProcessError:
                # Reaped elsewhere (a racing stop()): treat as exited.
                pid, status = slot.pid, None
            if pid == 0:
                continue
            with self._lock:
                slot.alive = False
                slot.exit_code = (
                    os.waitstatus_to_exitcode(status)
                    if status is not None
                    else None
                )
                if now - slot.spawned_at > CRASH_LOOP_WINDOW:
                    # It ran healthily for a full window; forget the
                    # escalation and start the backoff ladder over.
                    slot.backoff = self.backoff_base
                cutoff = now - CRASH_LOOP_WINDOW
                slot.crash_times = [
                    t for t in slot.crash_times if t >= cutoff
                ]
                slot.crash_times.append(now)
                if len(slot.crash_times) >= CRASH_LOOP_THRESHOLD:
                    slot.disabled = True
                self._schedule_respawn_locked(slot, now)
                slot.probe_misses = 0
                was_writer = slot.worker_id == self._writer_id
                disabled = slot.disabled
            self._log(
                f"worker {slot.worker_id} (pid {pid}) exited "
                f"(code {slot.exit_code!r})"
                + ("; circuit breaker tripped" if disabled else "")
            )
            if was_writer:
                self._promote_new_writer(exclude=slot.worker_id)

    def _schedule_respawn_locked(self, slot: "_WorkerSlot", now: float) -> None:
        """Set the slot's next respawn time and escalate its backoff.

        Caller holds ``_lock``.  The delay is the slot's current backoff
        stretched by a uniform factor in ``[1, 1 + BACKOFF_JITTER]`` —
        workers that crashed in the same instant get de-correlated
        respawn times instead of re-forking (and potentially re-crashing
        on the same poison input) in lockstep.
        """
        jitter = 1.0 + BACKOFF_JITTER * self._backoff_rng.random()
        slot.next_respawn = now + slot.backoff * jitter
        slot.backoff = min(slot.backoff * 2.0, BACKOFF_MAX)

    def _promote_new_writer(self, exclude: int) -> None:
        """Hand writership to the lowest-id live worker (if any).

        If no sibling can take it, the dead slot keeps writership and
        its respawn comes back as the writer.
        """
        with self._lock:
            candidates = sorted(
                (s for s in self._slots if s.alive and s.worker_id != exclude),
                key=lambda s: s.worker_id,
            )
        for cand in candidates:
            try:
                self._call(cand.admin_port, "/admin/promote", b"{}")
            except OSError as exc:
                self._log(
                    f"promoting worker {cand.worker_id} failed: {exc}"
                )
                continue
            with self._lock:
                self._writer_id = cand.worker_id
            self._log(f"worker {cand.worker_id} promoted to writer")
            return
        self._log(
            f"no live worker to promote; slot {exclude} respawns as writer"
        )

    def _respawn_due(self, now: float) -> None:
        with self._lock:
            due = [
                s
                for s in self._slots
                if not s.alive and not s.disabled and now >= s.next_respawn
            ]
            writer_id = self._writer_id
        for slot in due:
            try:
                # Respawn from the CURRENT file, not the one the fleet
                # booted with (a publish between these two reads is taken
                # up by the respawn's first poll).
                generation, restore = snapshot_mod._read(self.snapshot_path)
                pid, admin_port = self._fork_worker(
                    slot.worker_id,
                    restore(None),
                    generation,
                    writer=(slot.worker_id == writer_id),
                )
            except (OSError, SnapshotError) as exc:
                self._log(
                    f"respawn of worker {slot.worker_id} failed: {exc}"
                )
                with self._lock:
                    self._schedule_respawn_locked(slot, now)
                continue
            with self._lock:
                slot.pid = pid
                slot.admin_port = admin_port
                slot.alive = True
                slot.restarts += 1
                slot.spawned_at = time.monotonic()
                slot.probe_misses = 0
                slot.exit_code = None
            self._log(
                f"respawned worker {slot.worker_id} (pid {pid}, "
                f"generation {generation})"
            )

    def _probe(self, now: float) -> None:
        """Kill workers that stopped answering their admin ``/healthz``."""
        with self._lock:
            due = [
                s
                for s in self._slots
                if s.alive and now - s.last_probe >= PROBE_INTERVAL
            ]
        for slot in due:
            slot.last_probe = now
            try:
                self._call(slot.admin_port, "/healthz", timeout=1.0)
                slot.probe_misses = 0
            except OSError:
                slot.probe_misses += 1
                if slot.probe_misses >= PROBE_FAILURES:
                    self._log(
                        f"worker {slot.worker_id} missed "
                        f"{slot.probe_misses} health probes; killing"
                    )
                    try:
                        os.kill(slot.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    slot.probe_misses = 0

    def health(self) -> dict:
        """Fleet liveness: per-worker state plus an overall verdict."""
        with self._lock:
            writer_id = self._writer_id
            workers = [
                {
                    "worker_id": s.worker_id,
                    "pid": s.pid,
                    "alive": s.alive,
                    "writer": s.worker_id == writer_id,
                    "restarts": s.restarts,
                    "disabled": s.disabled,
                    "exit_code": s.exit_code,
                }
                for s in self._slots
            ]
        alive = sum(1 for w in workers if w["alive"])
        if alive == len(workers):
            status = "ok"
        elif alive:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "alive": alive,
            "worker_count": len(workers),
            "writer_id": writer_id,
            "respawn": True,
            "workers": workers,
        }

    # -- aggregation ---------------------------------------------------
    def _call(
        self,
        port: int,
        path: str,
        body: Optional[bytes] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """One exchange with a worker's admin port (POST when ``body`` is
        given); any answer but ``200`` is an ``OSError`` like a dead port."""
        status, raw = http_call(
            f"http://{self.host}:{port}{path}",
            body,
            timeout=FETCH_TIMEOUT if timeout is None else timeout,
        )
        if status != 200:
            raise OSError(f"worker admin port {port} answered {path} with {status}")
        return raw

    def _fetch(self, worker_id: int, path: str) -> bytes:
        """GET from a worker's admin port, with one bounded retry.

        The retry looks the slot's admin port up again, so it rides out
        the tiny window where a worker is being respawned on a new one;
        anything longer belongs to the caller (the aggregators tolerate
        per-worker failure).
        """
        try:
            return self._call(self.worker_ports[worker_id], path)
        except OSError:
            time.sleep(0.1)
            return self._call(self.worker_ports[worker_id], path)

    def aggregate_stats(self) -> dict:
        """Per-worker ``/stats`` fanned out over the private admin ports,
        plus summed request counters for the fleet.

        A dead or hung worker does not fail the aggregate: its entry is
        replaced with an ``unreachable`` marker and the sums cover the
        workers that answered.
        """
        workers = []
        for worker_id in range(len(self.worker_ports)):
            try:
                workers.append(json.loads(self._fetch(worker_id, "/stats")))
            except (OSError, ValueError) as exc:
                workers.append(
                    {
                        "worker_id": worker_id,
                        "status": "unreachable",
                        "error": str(exc),
                    }
                )
        total_queries = sum(
            w.get("telemetry", {}).get("n_queries", 0) for w in workers
        )
        return {
            "worker_count": len(workers),
            "generations": [
                w["serving"]["snapshot_generation"]
                for w in workers
                if "serving" in w
            ],
            "unreachable": [
                w["worker_id"] for w in workers if w.get("status") == "unreachable"
            ],
            "total_queries": total_queries,
            "workers": workers,
        }

    def aggregate_metrics(self) -> str:
        """The fleet's Prometheus exposition: each family's ``# HELP`` /
        ``# TYPE`` once, every reachable worker's samples grouped under it
        with a ``worker="<id>"`` label added.

        Unreachable workers contribute a comment line instead of failing
        the whole scrape.
        """
        out = []
        # family -> ({"HELP" | "TYPE": first line seen}, relabelled samples)
        families: dict[str, tuple[dict[str, str], list[str]]] = {}
        for worker_id in range(len(self.worker_ports)):
            try:
                text = self._fetch(worker_id, "/metrics").decode("utf-8")
            except OSError:
                out.append(f"# supervisor worker {worker_id} unreachable")
                continue
            # A worker's text is MetricsRegistry.render(): every sample
            # follows the header of the family it belongs to.
            samples: list[str] = []
            for line in text.splitlines():
                if line.startswith("# "):
                    _hash, tag, name, _rest = line.split(" ", 3)
                    head, samples = families.setdefault(name, ({}, []))
                    head.setdefault(tag, line)
                elif line:
                    series, value = line.rsplit(" ", 1)
                    labels = series[:-1] + "," if series.endswith("}") else series + "{"
                    samples.append(f'{labels}worker="{worker_id}"}} {value}')
        for name in sorted(families):
            head, samples = families[name]
            out.extend(head.values())
            out.extend(samples)
        return "\n".join(out) + "\n"

    # -- child side ----------------------------------------------------
    def _worker_main(
        self,
        worker_id: int,
        service: QueryService,
        generation: int,
        ready_fd: int,
        writer: bool,
    ) -> None:
        signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
        gate = (
            AdmissionGate(
                max_inflight=self.max_inflight, max_queue=self.max_queue
            )
            if self.max_inflight is not None
            else None
        )
        worker = _Worker(
            self.snapshot_path, service, generation, writer,
            worker_id, self.workers, gate,
        )
        httpd = _ReuseportHTTPServer(
            (self.host, self.port),
            _handler(_ServiceRequestHandler, self.quiet, node=worker),
        )
        # Private admin endpoint: the parent aggregates /stats + /metrics
        # across workers and promotes a writer here, bypassing the
        # load-balanced public port.
        admin = ThreadingHTTPServer(
            (self.host, 0), _handler(_AdminHandler, self.quiet, node=worker)
        )
        threading.Thread(target=admin.serve_forever, daemon=True).start()
        threading.Thread(
            target=worker.watch, args=(self.poll_interval,), daemon=True
        ).start()

        with os.fdopen(ready_fd, "w", encoding="utf-8") as f:
            f.write(
                json.dumps(
                    {
                        "worker_id": worker_id,
                        "pid": os.getpid(),
                        "admin_port": admin.server_address[1],
                    }
                )
                + "\n"
            )
        try:
            httpd.serve_forever()
        except Exception:  # pragma: no cover - fatal worker error
            os._exit(1)


def serve_forked(
    snapshot_path: "str | os.PathLike[str]",
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = False,
    max_inflight: Optional[int] = None,
    max_queue: int = 0,
) -> None:
    """Run the supervisor until interrupted; the ``repro serve --workers``
    entry point."""
    sup = ServiceSupervisor(
        snapshot_path, workers=workers, host=host, port=port, quiet=quiet,
        max_inflight=max_inflight, max_queue=max_queue,
    )
    host, port = sup.start()
    print(
        f"repro supervisor serving on http://{host}:{port} "
        f"({workers} workers, snapshot {snapshot_path}, "
        f"admin http://{host}:{sup.admin_port})"
    )
    sys.stdout.flush()
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down workers")
    finally:
        sup.stop()
