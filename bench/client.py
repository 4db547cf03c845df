"""The client side: the server child's lifecycle and timed HTTP calls."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: The checkout root: the benchmark package's parent directory.
CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class CheckFailed(Exception):
    """An output check failed: the run records no metrics."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_ok(status: int, body: object, what: str) -> None:
    """*what* must have returned 200; the message quotes its body if not."""
    if status != 200:
        raise CheckFailed(f"{what} returned {status}: {body!r:.500}")


@dataclass
class Sample:
    """One timed request."""

    kind: str
    #: When the request was due (open loop) or sent (closed loop).
    due: float
    sent: float
    done: float
    status: int
    request_bytes: int
    response_bytes: int
    #: Pairs the request with its facade span in a traced run.
    key: object = None
    #: The connection that sent it (``id`` of the :class:`Connection`).
    lane: int = 0

    @property
    def ms(self) -> float:
        """Latency as the user sees it: from due time to response."""
        return (self.done - self.due) * 1000.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class Connection:
    """One keep-alive HTTP/1.1 connection that records every call."""

    def __init__(self, port: int, samples: list[Sample]) -> None:
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.samples = samples
        #: When the last response arrived: the connection is free from then.
        self.last_done = time.perf_counter()

    def call(
        self,
        kind: str,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        due: float | None = None,
        key: object = None,
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        sent = time.perf_counter()
        self._http.request(method, path, body=body, headers=headers)
        response = self._http.getresponse()
        payload = response.read()
        done = self.last_done = time.perf_counter()
        self.samples.append(
            Sample(
                kind=kind,
                due=sent if due is None else due,
                sent=sent,
                done=done,
                status=response.status,
                request_bytes=len(body or b""),
                response_bytes=len(payload),
                key=key,
                lane=id(self),
            )
        )
        return response.status, payload

    def json(self, kind: str, method: str, path: str, body=None, **kw):
        status, payload = self.call(kind, method, path, body, **kw)
        return status, json.loads(payload) if payload else None

    def close(self) -> None:
        self._http.close()


class Child:
    """The server child process: spawn, wait ready, stop, kill."""

    def __init__(
        self,
        root: Path,
        *,
        preload: Path | None = None,
        spans: Path | None = None,
        log: Path,
    ) -> None:
        command = [sys.executable, "-m", "bench.server", "--root", str(root)]
        if preload is not None:
            command += ["--preload", str(preload)]
        if spans is not None:
            command += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(CHECKOUT)])
        # SQLite spills large sorts to TMPDIR: keep them in the checkout.
        env["TMPDIR"] = str(root.parent)
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            command,
            cwd=CHECKOUT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._await_ready()
            #: Child start to its first served request, preload included.
            self.setup_s = self._first_request() - self.started
        except BaseException:
            self.kill()
            raise

    def _await_ready(self) -> int:
        deadline = self.started + READY_TIMEOUT_S
        stdout = self.proc.stdout
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise RuntimeError("server child did not become ready")
            readable, _, _ = select.select([stdout], [], [], min(left, 1.0))
            if readable:
                line = stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"server child exited with {self.proc.wait()}"
                    )
                ready = json.loads(line)
                self.workers = ready["workers"]
                return ready["port"]

    def _first_request(self) -> float:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"health probe returned {response.status}")
            return time.perf_counter()
        finally:
            connection.close()

    def cpu_s(self) -> float:
        """CPU seconds the child has used so far, all threads, user + system."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Clean stop: SIGTERM, the child flushes, closes and exits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("server child ignored SIGTERM") from None
            except BaseException:
                self.kill()
                raise
            if code != 0:
                raise RuntimeError(f"server child stopped with {code}")
        self._close()

    def kill(self) -> None:
        """SIGKILL and reap: nothing the child buffered survives."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def disk_bytes(root: Path) -> int:
    """Bytes of every file under *root*."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
