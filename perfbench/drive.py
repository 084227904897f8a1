"""Load generation: one scheduler loop for open-loop traffic, plus a
pipelined NDJSON client whose request bytes are encoded before timing.

Open loop: every operation has a due time fixed before the run (seeded
Poisson arrivals, or a fixed period).  One loop sleeps until the next due
time and fires everything due, so no coroutine waits per scheduled
request and a stalled system still receives its load.  Latency is timed
from the due time, so a stall is charged to every operation it delayed;
the loop's own slip behind the schedule is reported as ``max_lag``.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np


def poisson_offsets(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds after start) of ``n`` Poisson arrivals at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


async def run_schedule(offsets, fire) -> tuple[float, float]:
    """Call ``fire(index, due_time)`` for each offset at its due time.

    Returns ``(start, max_lag)``: the ``perf_counter`` time the schedule
    started and the worst slip, in seconds, of a fire behind its due time.
    ``offsets`` must be non-decreasing.
    """
    clock = time.perf_counter
    start = clock()
    worst = 0.0
    index, n = 0, len(offsets)
    while index < n:
        now = clock() - start
        due = offsets[index]
        if now < due:
            await asyncio.sleep(due - now)
            continue
        while index < n and offsets[index] <= now:
            worst = max(worst, now - offsets[index])
            fire(index, start + offsets[index])
            index += 1
        await asyncio.sleep(0)  # let responses in before the next burst
    return start, worst


class WireClient:
    """Pipelined NDJSON client: many requests in flight on one connection.

    Request bodies are pre-encoded bytes without their ``id`` (everything
    after the opening brace); :meth:`send` prepends the id, so the timed
    path does no JSON encoding.  Each response is handed to
    ``on_response(message, arrival_time)``.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, on_response):
        self.reader = reader
        self.writer = writer
        self.on_response = on_response
        self._reader_task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def connect(cls, host: str, port: int, on_response) -> "WireClient":
        reader, writer = await asyncio.open_connection(host, port, limit=2**22)
        return cls(reader, writer, on_response)

    def send(self, request_id: int, body: bytes) -> None:
        self.writer.write(b'{"id":%d,' % request_id + body)

    async def _read(self) -> None:
        clock = time.perf_counter
        while True:
            line = await self.reader.readline()
            if not line:
                return
            self.on_response(json.loads(line), clock())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass


def request_body(fields: dict) -> bytes:
    """Encode a request without its id, for :meth:`WireClient.send`."""
    return json.dumps(fields, separators=(",", ":")).encode()[1:] + b"\n"


async def call(host: str, port: int, request: dict, timeout: float = 30.0) -> dict:
    """One request on its own connection (admin and health ops)."""
    reader, writer = await asyncio.open_connection(host, port, limit=2**24)
    try:
        writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), timeout))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
