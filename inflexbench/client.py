"""Open-loop HTTP/1.1 load generator over a fixed pool of connections.

Requests are sent in schedule order.  Each one waits until it is due
and then for a free connection; with every connection busy the backlog
builds here, in the client, which is how a caller with a bounded
connection pool sees a slow server.  Latency is measured from the due
time, so a stall also counts against the requests queued behind it.

Two delays are kept apart for every request:

* ``conn_wait``: due time to the moment a connection was free, which
  the server causes by not answering;
* ``client_late``: from when both the request was due and a
  connection was free to the moment it was written, which only a
  busy client causes.  A run whose client fell behind is invalid.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field


@dataclass
class Request:
    """One scheduled request; ``body`` is pre-encoded JSON."""

    offset: float
    kind: str
    path: str
    body: bytes
    phase: int = 0


@dataclass
class Outcome:
    request: Request
    status: int = 0
    latency: float = 0.0
    conn_wait: float = 0.0
    client_late: float = 0.0
    sent: bool = False
    payload: dict | None = field(default=None, repr=False)


def encode(path: str, body: bytes, request_id: int) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nX-Request-Id: {request_id}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(reader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


class Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None
        self.free_at = 0.0

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def call(self, raw: bytes) -> tuple[int, bytes]:
        self.writer.write(raw)
        await self.writer.drain()
        return await read_response(self.reader)

    def close(self) -> None:
        self.writer.close()


async def connect(port: int, count: int) -> list[Connection]:
    conns = [Connection(port) for _ in range(count)]
    for conn in conns:
        await conn.open()
    return conns


async def get_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status, body = await read_response(reader)
    finally:
        writer.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


async def post_json(port: int, path: str, payload: dict) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode(path, json.dumps(payload).encode(), 0))
        await writer.drain()
        status, body = await read_response(reader)
    finally:
        writer.close()
    return status, json.loads(body) if body else {}


async def run_phase(
    conns: list[Connection],
    schedule: list[Request],
    *,
    duration: float,
    grace: float,
    timeout: float,
    first_id: int = 1,
) -> list[Outcome]:
    """Send ``schedule`` (offsets within ``[0, duration)``) open loop.

    Requests still unsent ``grace`` seconds after the phase ends are
    not sent and count as failed; in-flight ones get ``timeout``.
    """
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        conn.free_at = loop.time()
        free.put_nowait(conn)
    outcomes = [Outcome(request) for request in schedule]
    pending: set = set()
    start = loop.time()
    cutoff = start + duration + grace

    async def exchange(conn, outcome, raw, due):
        try:
            status, body = await asyncio.wait_for(conn.call(raw), timeout)
            payload = json.loads(body) if status == 200 else None
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError,
                ValueError):
            # A failed exchange counts as failed (status stays 0); the
            # connection is replaced so the pool keeps its size.
            conn.close()
            try:
                await conn.open()
            except OSError:
                return
            conn.free_at = loop.time()
            free.put_nowait(conn)
            return
        outcome.latency = loop.time() - due
        outcome.status = status
        outcome.payload = payload
        conn.free_at = loop.time()
        free.put_nowait(conn)

    for number, outcome in enumerate(outcomes):
        due = start + outcome.request.offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        remaining = cutoff - loop.time()
        if remaining <= 0:
            break
        try:
            conn = await asyncio.wait_for(free.get(), remaining)
        except asyncio.TimeoutError:
            break
        now = loop.time()
        outcome.conn_wait = max(0.0, conn.free_at - due)
        outcome.client_late = now - max(due, conn.free_at)
        outcome.sent = True
        raw = encode(
            outcome.request.path, outcome.request.body, first_id + number
        )
        task = loop.create_task(exchange(conn, outcome, raw, due))
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        await asyncio.wait(set(pending), timeout=timeout + 1.0)
    return outcomes
