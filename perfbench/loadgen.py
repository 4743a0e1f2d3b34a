"""Load generator for the serve workloads: one process, one thread.

Everything runs on one asyncio loop.  Sockets are connected with a
blocking call on a numeric address, so asyncio starts no resolver or
executor thread.  Responses are kept as raw lines and checked after each
phase; only the receive time is taken while the clock runs.
"""

from __future__ import annotations

import asyncio
import collections
import json
import socket
from time import perf_counter

#: Largest response line accepted (responses carry ~100 bytes per vertex).
_LINE_LIMIT = 8 * 1024 * 1024


class Phase:
    """What one load phase recorded, indexed like its request list."""

    def __init__(self, count: int) -> None:
        self.due = [0.0] * count
        self.sent = [0.0] * count
        self.done = [0.0] * count
        self.raw: list = [None] * count
        self.issued = 0
        self.start = 0.0
        self.end = 0.0
        #: Open loop only: requests due but not yet answered when the
        #: schedule ended.
        self.backlog_end = 0


async def _connect(port: int):
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setblocking(False)
    return await asyncio.open_connection(sock=sock, limit=_LINE_LIMIT)


async def connect_all(port: int, count: int) -> list:
    return [await _connect(port) for _ in range(count)]


async def close_all(conns: list) -> None:
    for _reader, writer in conns:
        writer.close()
    for _reader, writer in conns:
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def rpc(conn, obj: dict) -> dict:
    """One request on an idle connection; the decoded response."""
    reader, writer = conn
    writer.write(json.dumps(obj).encode("utf-8") + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionResetError("daemon closed the connection")
    return json.loads(line)


async def open_loop(conns: list, lines: list, rate: float) -> Phase:
    """Send ``lines[k]`` at ``start + k / rate`` whatever the replies do.

    Requests go round-robin over the connections; the daemon answers each
    connection in order, so replies are matched first in, first out.
    Latency is counted from each request's due time, so a stall is also
    charged to the requests queued behind it.
    """
    n, width = len(lines), len(conns)
    ph = Phase(n)
    ph.start = perf_counter() + 0.05
    for k in range(n):
        ph.due[k] = ph.start + k / rate

    async def sender(c: int, fifo: collections.deque) -> None:
        writer = conns[c][1]
        for k in range(c, n, width):
            delay = ph.due[k] - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            ph.sent[k] = perf_counter()
            fifo.append(k)
            writer.write(lines[k])
            await writer.drain()

    async def receiver(c: int, fifo: collections.deque) -> None:
        reader = conns[c][0]
        for _ in range(c, n, width):
            line = await reader.readline()
            if not line:
                raise ConnectionResetError("daemon closed the connection")
            k = fifo.popleft()
            ph.done[k] = perf_counter()
            ph.raw[k] = line

    async def backlog_probe() -> None:
        await asyncio.sleep(max(ph.due[-1] - perf_counter(), 0.0))
        ph.backlog_end = sum(1 for k in range(n) if ph.done[k] == 0.0)

    fifos = [collections.deque() for _ in conns]
    await asyncio.gather(
        backlog_probe(),
        *(sender(c, fifos[c]) for c in range(width)),
        *(receiver(c, fifos[c]) for c in range(width)),
    )
    ph.issued = n
    ph.end = max(ph.done)
    return ph


async def closed_loop(conns: list, lines: list, depth: int,
                      seconds: float) -> Phase:
    """Keep ``depth`` requests in flight per connection for ``seconds``.

    Stops issuing at the deadline (or when ``lines`` runs out) and waits
    for every issued request; ``issued`` says how many were used.
    """
    n = len(lines)
    ph = Phase(n)
    ph.start = perf_counter()
    stop_at = ph.start + seconds
    nxt = 0

    async def worker(conn) -> None:
        nonlocal nxt
        reader, writer = conn
        fifo: asyncio.Queue = asyncio.Queue()
        slots = asyncio.Semaphore(depth)

        async def receive() -> None:
            while (k := await fifo.get()) is not None:
                line = await reader.readline()
                if not line:
                    raise ConnectionResetError("daemon closed the connection")
                ph.done[k] = perf_counter()
                ph.raw[k] = line
                slots.release()

        recv = asyncio.ensure_future(receive())
        try:
            while True:
                await slots.acquire()
                now = perf_counter()
                if now >= stop_at or nxt >= n:
                    break
                k, nxt = nxt, nxt + 1
                ph.due[k] = ph.sent[k] = now
                fifo.put_nowait(k)
                writer.write(lines[k])
                await writer.drain()
            fifo.put_nowait(None)
            await recv
        finally:
            if not recv.done():
                recv.cancel()

    await asyncio.gather(*(worker(c) for c in conns))
    ph.issued = nxt
    ph.end = max(ph.done[:nxt], default=ph.start)
    return ph
