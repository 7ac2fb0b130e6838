"""Load generators for the TCP workloads: one process, one event loop.

Requests go out over at most two :class:`AsyncServiceClient`
connections; no extra threads.  The untraced path is the client's
default ``submit()`` (decode included); the traced path makes the same
work visible as ``submit(decode=False)`` followed by
``report_from_dict``, timing each.  The closed loop times the host-speed
probe on every CPU as it goes and scales each request by it
(``hostspeed.py``).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Sequence

from repro.api.request import report_from_dict
from repro.errors import ReproError
from repro.service.client import AsyncServiceClient

import hostspeed
from common import Record

#: A request still unanswered this long after the window is lost.
ANSWER_TIMEOUT_S = 60.0
#: The closed loop probes the host this often (seconds).
PROBE_INTERVAL_S = 0.1


def _probe(samples: list[tuple[float, float]]) -> None:
    samples.append((time.perf_counter(), hostspeed.probe_cpus()))


async def connect(port: int) -> AsyncServiceClient:
    return await AsyncServiceClient.connect("127.0.0.1", port)


async def submit(client: AsyncServiceClient, record: Record, traced: bool) -> None:
    record.sent = time.perf_counter()
    try:
        if traced:
            frame = await client.submit(record.request, decode=False)
            received = time.perf_counter()
            record.spans["rtt"] = received - record.sent
            record.frame = frame
            record.report = report_from_dict(frame["report"])
            record.spans["client_decode"] = time.perf_counter() - received
        else:
            record.report = await client.submit(record.request)
    except ReproError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = time.perf_counter()
    record.answers += 1


async def _settle(tasks: Sequence[asyncio.Future], timeout_s: float = ANSWER_TIMEOUT_S) -> None:
    """Wait for every answer; whatever is still pending is lost, not awaited."""
    if not tasks:
        return
    _, pending = await asyncio.wait(tasks, timeout=timeout_s)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)


async def open_loop(
    clients: Sequence[AsyncServiceClient],
    arrivals: Sequence[tuple[float, Any]],
    traced: bool,
    first_index: int = 0,
) -> tuple[list[Record], float]:
    """Send each request when due, regardless of answers; time from due."""
    start = time.perf_counter()
    records: list[Record] = []
    tasks = []
    for i, (offset, request) in enumerate(arrivals):
        record = Record(index=first_index + i, request=request, due=start + offset)
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        records.append(record)
        tasks.append(asyncio.ensure_future(submit(clients[i % len(clients)], record, traced)))
    await _settle(tasks)
    for record in records:
        record.spans["late"] = record.sent - record.due
    elapsed = max((r.done for r in records if r.answers), default=start) - start
    return records, elapsed


async def closed_loop(
    clients: Sequence[AsyncServiceClient],
    items: Sequence[Any],
    depth: int,
    seconds: float,
    traced: bool,
) -> list[Record]:
    """Keep *depth* requests in flight until *seconds* have passed.

    The host is probed every :data:`PROBE_INTERVAL_S` while the window
    lasts, and once more after the last answer.
    """
    start = time.perf_counter()
    deadline = start + seconds
    records: list[Record] = []
    samples: list[tuple[float, float]] = []
    cursor = iter(range(len(items)))

    async def prober() -> None:
        while time.perf_counter() < deadline:
            _probe(samples)
            await asyncio.sleep(PROBE_INTERVAL_S)

    async def caller(slot: int) -> None:
        client = clients[slot % len(clients)]
        previous = time.perf_counter()
        for index in cursor:
            if time.perf_counter() >= deadline:
                return
            item = items[index]
            now = time.perf_counter()
            record = Record(index=index, request=item.request, due=now)
            record.tags["repeat"] = item.repeat_of is not None
            records.append(record)
            await submit(client, record, traced)
            record.spans["gap"] = record.sent - previous
            previous = record.done

    await _settle(
        [asyncio.ensure_future(caller(slot)) for slot in range(depth)]
        + [asyncio.ensure_future(prober())],
        seconds + ANSWER_TIMEOUT_S,
    )
    _probe(samples)
    records.sort(key=lambda r: r.index)
    hostspeed.scale(records, samples)
    return records
