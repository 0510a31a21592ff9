"""Closed-loop load generator over persistent HTTP/1.1 connections.

One ``http.client.HTTPConnection`` per stream, one thread per connection
(the first stream runs on the calling thread), each sending its next
request only after the previous reply was read in full.  Replies are kept
as raw bytes and decoded after the phase, so checking never competes with
the server for a core.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.bitset import bitmap_from_wire

from workloads import Request

HOST = "127.0.0.1"
#: A reply slower than this is a failed operation, not a latency sample.
REQUEST_TIMEOUT_S = 30.0
_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    request: Request
    phase: str
    start: float
    end: float
    status: int  # HTTP status, or -1 for a transport error / timeout
    data: bytes

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def json(self) -> dict:
        return json.loads(self.data)


class Connection:
    """One keep-alive connection and the log of everything sent on it."""

    def __init__(self, port: int, persistent: bool = True) -> None:
        self.port = port
        self.persistent = persistent
        self.log: list[Sample] = []
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request, phase: str) -> Sample:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                HOST, self.port, timeout=REQUEST_TIMEOUT_S
            )
        start = time.perf_counter()
        try:
            self._conn.request(request.method, request.path, request.body, _HEADERS)
            response = self._conn.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            status, data = -1, repr(exc).encode()
            self.close()
        end = time.perf_counter()
        if not self.persistent:
            self.close()
        sample = Sample(request, phase, start, end, status, data)
        self.log.append(sample)
        return sample

    def drive(
        self,
        stream: Iterator[Request],
        phase: str,
        seconds: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[Sample]:
        """Send from ``stream`` until ``seconds`` passed or ``limit`` sent."""
        first = len(self.log)
        stop_at = time.perf_counter() + seconds if seconds is not None else None
        while (stop_at is None or time.perf_counter() < stop_at) and (
            limit is None or len(self.log) - first < limit
        ):
            self.send(next(stream), phase)
        return self.log[first:]

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def drive_all(
    connections: list[Connection], streams: list, phase: str, seconds: float
) -> list[Sample]:
    """One timed phase on every connection at once; samples of all of them."""
    out: list[list[Sample]] = [[] for _ in connections]

    def work(i: int) -> None:
        out[i] = connections[i].drive(streams[i], phase, seconds=seconds)

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(1, len(connections))
    ]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    return [s for samples in out for s in samples]


def get(port: int, path: str) -> bytes:
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        return conn.getresponse().read()
    finally:
        conn.close()


def answers(sample: Sample) -> list[dict]:
    """The per-expression result objects of a query reply."""
    payload = sample.json()
    return [payload] if sample.request.path == "/search" else payload["results"]


def indexes(result: dict) -> np.ndarray:
    """One result's dataset indexes, whichever wire format carried them."""
    if "bitset" in result:
        return bitmap_from_wire(result["bitset"]).to_array()
    return np.asarray(result["indexes"], dtype=np.int64)


def take_queries(stream: Iterable[Request], n: int) -> list[Request]:
    """The next ``n`` query requests of a stream.

    Mutations in between are dropped, which leaves a churn stream
    inconsistent: only the stream's last consumer may call this.
    """
    out = []
    for request in stream:
        if request.kind == "query":
            out.append(request)
            if len(out) == n:
                break
    return out
