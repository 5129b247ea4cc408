"""HTTP load generator for ``/ask``: open loop at a fixed rate, closed loop.

One process, one asyncio loop, at most ``connections`` requests in
flight (the server closes every connection after its answer, so each
request opens a fresh one).

*Open loop*: requests are due at seeded exponential inter-arrival
times regardless of how the server keeps up.  Each latency is timed
from the request's **due** time, so a stall also charges the requests
queued behind it.  The generator's own lateness — how long after its
due time the generator got round to issuing a request — is recorded
separately; a run whose generator fell behind is not a latency result.

*Closed loop*: ``connections`` callers each send their next request as
soon as the previous answer arrives; the answer rate is the capacity.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

#: Seconds one request may take before it counts as a timeout.
REQUEST_TIMEOUT = 10.0


@dataclass
class PhaseStats:
    """What one phase measured."""

    latencies_ms: List[float] = field(default_factory=list)  # from due time
    service_ms: List[float] = field(default_factory=list)  # from send time
    late_ms: List[float] = field(default_factory=list)  # generator lateness
    attempted: int = 0
    failed: int = 0
    refine_answers: int = 0
    wall_s: float = 0.0  # closed loop only
    problems: List[str] = field(default_factory=list)


async def http_request(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> Tuple[int, bytes]:
    """One HTTP/1.1 request on a fresh connection; ``(status, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
    head, _, payload = response.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2:
        raise ConnectionError("malformed response")
    return int(status_line[1]), payload


class Target:
    """A running ``/ask`` endpoint plus the answer checker for it."""

    def __init__(self, url: str, check: Callable[[dict, dict], Optional[str]]):
        host_port = url.split("://", 1)[1].rstrip("/")
        host, _, port = host_port.rpartition(":")
        self.host, self.port = host, int(port)
        self.check = check

    async def ask(self, query: dict, stats: PhaseStats) -> Optional[float]:
        """Send one query; record failure; return the send time or None."""
        stats.attempted += 1
        sent = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(
                http_request(
                    self.host, self.port, "POST", "/ask",
                    json.dumps(query["document"]).encode("utf-8"),
                ),
                REQUEST_TIMEOUT,
            )
        except (OSError, asyncio.TimeoutError) as error:
            stats.failed += 1
            stats.problems.append(f"{type(error).__name__}: {error}")
            return None
        problem = None
        if status != 200:
            problem = f"HTTP {status}: {payload[:200]!r}"
        else:
            try:
                answer = json.loads(payload)
            except ValueError:
                answer, problem = None, "unparseable answer"
            if answer is not None:
                problem = self.check(query, answer)
                stats.refine_answers += bool(answer.get("refine"))
        if problem is not None:
            stats.failed += 1
            stats.problems.append(problem)
            return None
        return sent


async def open_loop(
    target: Target,
    queries: List[dict],
    rate: float,
    rng: random.Random,
    connections: int = 2,
    stall: Optional[Callable[[int], None]] = None,
) -> PhaseStats:
    """Issue ``queries`` at ``rate`` per second (Poisson arrivals).

    ``stall`` (self-tests only) runs before each request is issued, to
    make the generator itself late.
    """
    stats = PhaseStats()
    slots = asyncio.Semaphore(connections)

    async def one(query: dict, due: float) -> None:
        async with slots:
            sent = await target.ask(query, stats)
            if sent is not None:
                done = time.perf_counter()
                stats.latencies_ms.append((done - due) * 1000.0)
                stats.service_ms.append((done - sent) * 1000.0)

    tasks = []
    due = time.perf_counter()
    for index, query in enumerate(queries):
        due += rng.expovariate(rate)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if stall is not None:
            stall(index)
        stats.late_ms.append(max(0.0, time.perf_counter() - due) * 1000.0)
        tasks.append(asyncio.ensure_future(one(query, due)))
    await asyncio.gather(*tasks)
    return stats


async def closed_loop(
    target: Target, queries: List[dict], connections: int = 2
) -> PhaseStats:
    """Answer every query on ``connections`` back-to-back callers."""
    stats = PhaseStats()
    pending = iter(queries)

    async def caller() -> None:
        for query in pending:
            sent = await target.ask(query, stats)
            if sent is not None:
                elapsed = (time.perf_counter() - sent) * 1000.0
                stats.latencies_ms.append(elapsed)
                stats.service_ms.append(elapsed)

    began = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(connections)))
    stats.wall_s = time.perf_counter() - began
    return stats


async def wait_healthy(url: str, deadline: float) -> bool:
    """Poll ``GET /health`` until it answers 200 or ``deadline`` passes."""
    host_port = url.split("://", 1)[1].rstrip("/")
    host, _, port = host_port.rpartition(":")
    while time.monotonic() < deadline:
        try:
            status, _ = await asyncio.wait_for(
                http_request(host, int(port), "GET", "/health"), 1.0
            )
            if status == 200:
                return True
        except (OSError, asyncio.TimeoutError):
            pass
        await asyncio.sleep(0.002)
    return False
