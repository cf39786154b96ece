"""The ``serve --http`` process and a single-process HTTP load generator.

The server runs in its own process, started with ``--http 127.0.0.1:0``
so the kernel picks the port at bind time; the benchmark reads the
bound port from the server's own ``serving HTTP on HOST:PORT`` line, so
there is no window in which another process could take it.  The server
is always stopped and reaped (SIGTERM, then SIGKILL), on failures too.

The client is one asyncio loop with at most ``connections`` keep-alive
connections.  Connection errors, timeouts and non-200 answers are
counted as failures with their request, never dropped.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import process_peak_mb

_READY = re.compile(r"serving HTTP on (\S+):(\d+)")


class ServerProcess:
    """``python -m repro.cli serve --http`` from a registry artifact."""

    def __init__(self, src: Path, repository: Path, registry: Path) -> None:
        self.command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--http", "127.0.0.1:0",
            "--repository", str(repository),
            "--registry", str(registry),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.process = None
        self.port = None
        self.stderr_lines: list[str] = []
        self._ready = threading.Event()
        self._reader = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait until ``/healthz`` answers; returns seconds."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(
                "server not listening: " + " | ".join(self.stderr_lines[-5:])
            )
        if self.port is None:
            raise RuntimeError(
                "server exited: " + " | ".join(self.stderr_lines[-5:])
            )
        status, _ = asyncio.run(_get("127.0.0.1", self.port, "/healthz"))
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return time.perf_counter() - started

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr_lines.append(line.rstrip("\n"))
            match = _READY.search(line)
            if match and self.port is None:
                self.port = int(match.group(2))
                self._ready.set()
        self._ready.set()

    def peak_mb(self) -> float:
        """The live server's peak resident set, MB."""
        return process_peak_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM, wait; SIGKILL if it does not drain; always reap."""
        process = self.process
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=15)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            if self._reader is not None:
                self._reader.join(timeout=5)
            process.stderr.close()
            self.process = None


async def _get(host: str, port: int, path: str):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


async def _read_response(reader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


def extract_request(body: bytes) -> bytes:
    """One keep-alive ``POST /extract`` request carrying ``body``."""
    return (
        "POST /extract HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


class _Connection:
    """One keep-alive connection, reopened after any failure."""

    def __init__(self, port: int, timeout: float) -> None:
        self.port = port
        self.timeout = timeout
        self._streams = None

    async def send(self, request: bytes) -> tuple[int, bytes]:
        """Status and body; ``(0, reason)`` on error or timeout."""
        try:
            return await asyncio.wait_for(self._send(request), self.timeout)
        except (OSError, ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, ValueError, IndexError) as exc:
            await self.close()
            return 0, f"{type(exc).__name__}: {exc}".encode()

    async def _send(self, request: bytes) -> tuple[int, bytes]:
        if self._streams is None:
            self._streams = await asyncio.open_connection("127.0.0.1", self.port)
        reader, writer = self._streams
        writer.write(request)
        await writer.drain()
        return await _read_response(reader)

    async def close(self) -> None:
        """Close the connection (it reopens on the next send)."""
        if self._streams is not None:
            _, writer = self._streams
            self._streams = None
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass


def closed_loop(port: int, requests, connections: int, seconds: float,
                timeout: float):
    """Back-to-back requests on every connection for ``seconds``.

    ``requests`` are ``(id, bytes)``, taken in order and cycled.
    Returns ``(results, wall)`` with results ``(id, status, body,
    sent, round_trip_s)`` in completion order (``sent`` on the
    ``time.perf_counter`` clock).
    """
    return asyncio.run(_closed_loop(port, requests, connections, seconds, timeout))


async def _closed_loop(port, requests, connections, seconds, timeout):
    loop = asyncio.get_running_loop()
    results = []
    counter = 0
    started = loop.time()
    deadline = started + seconds

    async def client():
        nonlocal counter
        conn = _Connection(port, timeout)
        try:
            while loop.time() < deadline:
                request_id, request = requests[counter % len(requests)]
                counter += 1
                sent = time.perf_counter()
                status, body = await conn.send(request)
                results.append(
                    (request_id, status, body, sent, time.perf_counter() - sent)
                )
        finally:
            await conn.close()

    await asyncio.gather(*(client() for _ in range(connections)))
    return results, loop.time() - started


def open_loop(port: int, requests, connections: int, rate: float,
              count: int, timeout: float):
    """``count`` requests due at a fixed ``rate``, sent whatever the load.

    Requests wait for a free connection when all are busy; that wait is
    part of their latency, which runs from the due time.  Returns
    ``(results, late)``: per scheduled request ``(id, status, body,
    latency_s)`` in schedule order, and how late the generator noticed
    each due time (seconds).
    """
    return asyncio.run(_open_loop(port, requests, connections, rate, count, timeout))


async def _open_loop(port, requests, connections, rate, count, timeout):
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    results: list = [None] * count
    late: list[float] = []
    start = loop.time() + 0.05

    async def scheduler():
        for i in range(count):
            due = start + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - due))
            queue.put_nowait((i, due))
        for _ in range(connections):
            queue.put_nowait(None)

    async def client():
        conn = _Connection(port, timeout)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, due = item
                request_id, request = requests[i % len(requests)]
                status, body = await conn.send(request)
                results[i] = (request_id, status, body, loop.time() - due)
        finally:
            await conn.close()

    await asyncio.gather(scheduler(), *(client() for _ in range(connections)))
    return results, late
