"""Server child processes: spawn, READY handshake, commands, sure death.

Every child runs ``launcher.py`` in its own session (process group), with
its stderr in a file under the run's scratch directory.  :class:`Fleet`
owns all of them: leaving its ``with`` block — normally, on an oracle
failure, or on Ctrl-C / SIGTERM — kills each group and waits for it, so
no run leaves a server behind.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

LAUNCHER = Path(__file__).with_name("launcher.py")

#: A child that has not reported READY (or answered a command) by then
#: fails its workload; the slowest build in the suite takes a few seconds.
READY_TIMEOUT_S = 120.0


class ChildError(RuntimeError):
    """A child died, timed out, or refused a command."""


class Child:
    def __init__(self, name: str, spec: dict, scratch: Path) -> None:
        self.name = name
        self.scratch = scratch
        spec_path = scratch / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec))
        self._stderr_path = scratch / f"{name}.stderr"
        self._buffer = b""
        self.spawned_at = time.perf_counter()
        with open(self._stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), str(spec_path)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=err,
                start_new_session=True,
            )
        self.ready: dict = {}

    # -- line protocol -------------------------------------------------
    def _fail(self, what: str) -> ChildError:
        tail = self._stderr_path.read_text(errors="replace")[-2000:]
        return ChildError(f"child {self.name!r} {what}; stderr tail:\n{tail}")

    def read_reply(self, timeout: float = READY_TIMEOUT_S) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise self._fail(f"did not answer within {timeout:.0f} s")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise self._fail(f"exited with code {self.proc.wait()}")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def wait_ready(self) -> dict:
        self.ready = self.read_reply()
        self.ready["wall_s"] = time.perf_counter() - self.spawned_at
        return self.ready

    def command(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}).encode() + b"\n")
        self.proc.stdin.flush()
        reply = self.read_reply()
        if not reply.get("ok"):
            raise self._fail(f"refused {cmd!r}: {reply.get('error')}")
        return reply

    # -- accounting ----------------------------------------------------
    @property
    def port(self) -> int:
        return self.ready["port"]

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child, the kernel's own high-water mark."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise self._fail("has no VmHWM line in /proc status")

    # -- death ---------------------------------------------------------
    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


class Fleet:
    """All children of one run; kills and reaps them on the way out."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.children: list[Child] = []
        self._old_sigterm: Optional[object] = None

    def spawn(self, name: str, spec: dict) -> Child:
        child = Child(f"{len(self.children)}-{name}", spec, self.scratch)
        self.children.append(child)
        return child

    def kill(self, child: Child) -> None:
        child.kill()
        self.children.remove(child)

    def __enter__(self) -> "Fleet":
        def on_sigterm(signum, frame):
            raise SystemExit(128 + signum)

        self._old_sigterm = signal.signal(signal.SIGTERM, on_sigterm)
        return self

    def __exit__(self, *exc: object) -> None:
        for child in list(self.children):
            self.kill(child)
        signal.signal(signal.SIGTERM, self._old_sigterm)
