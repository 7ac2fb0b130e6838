"""The shared wire endpoint, pinned on both of its front ends.

:class:`~repro.service.endpoint.FrameEndpoint` owns the connection loop
of ``repro serve`` (:class:`ScheduleServer`) and ``repro route``
(:class:`FleetRouter`).  These tests drive raw bytes at a live server
and at a router in front of one live shard, and require both to treat
the wire the same way: blank lines, undecodable lines, oversized lines
and clients that vanish mid-submit.
"""

from __future__ import annotations

import asyncio
import json
from contextlib import AsyncExitStack

import pytest

from repro.api import ScheduleRequest
from repro.service import (
    AsyncServiceClient,
    FleetRouter,
    ScheduleServer,
    ScheduleService,
    encode_frame,
    ping_frame,
    submit_frame,
)
from repro.service import endpoint
from repro.service.endpoint import FrameEndpoint
from repro.service.fleet.health import ShardHealth

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)

#: Deadline for any single wire read: a wedged connection fails fast.
READ_TIMEOUT_S = 10.0


@pytest.fixture(params=["server", "router"])
def kind(request):
    return request.param


def run_endpoint(kind, scenario, monkeypatch=None, frame_cap=None):
    """Run *scenario(port)* against a live endpoint of *kind*.

    ``"server"`` is a :class:`ScheduleServer`; ``"router"`` is a
    :class:`FleetRouter` in front of one such server.  *frame_cap*
    lowers the endpoint's line limit for the endpoint under test only
    (the router's shard keeps the default).
    """

    async def main():
        async with AsyncExitStack() as stack:
            service = await stack.enter_async_context(
                ScheduleService(backend="thread", max_workers=2)
            )
            server = ScheduleServer(service, host="127.0.0.1", port=0)
            if kind == "router":
                await stack.enter_async_context(server)
            if frame_cap is not None:
                monkeypatch.setattr(endpoint, "MAX_FRAME_BYTES", frame_cap)
            if kind == "router":
                under_test = FleetRouter(
                    [f"127.0.0.1:{server.port}"], probe_interval_s=None
                )
            else:
                under_test = server
            await stack.enter_async_context(under_test)
            return await scenario(under_test.port)

    return asyncio.run(main())


async def read_frame(reader: asyncio.StreamReader) -> dict:
    line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT_S)
    assert line, "endpoint closed the connection"
    return json.loads(line)


async def close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def assert_answers_a_new_connection(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_frame(ping_frame("alive")))
    writer.write(encode_frame(submit_frame("fresh", REQUEST)))
    await writer.drain()
    answers = {}
    for _ in range(2):
        frame = await read_frame(reader)
        answers[frame["id"]] = frame["type"]
    assert answers == {"alive": "pong", "fresh": "report"}
    await close(writer)


class TestBothEndpoints:
    def test_blank_lines_get_no_answer(self, kind):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"\n   \n\t\r\n")
            writer.write(encode_frame(ping_frame("p1")))
            await writer.drain()
            # The first answer on the wire is the pong: nothing was
            # said about the blank lines.
            assert await read_frame(reader) == {"type": "pong", "id": "p1"}
            await close(writer)

        run_endpoint(kind, scenario)

    def test_oversized_line_drops_only_its_connection(
        self, kind, monkeypatch
    ):
        cap = 4096

        async def scenario(port):
            bystander_reader, bystander = await asyncio.open_connection(
                "127.0.0.1", port
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"x" * (4 * cap) + b"\n")
            try:
                await writer.drain()
                tail = await asyncio.wait_for(
                    reader.read(), READ_TIMEOUT_S
                )
            except (ConnectionResetError, BrokenPipeError):
                tail = b""
            # Dropped without an answer: the frame boundary is lost.
            assert tail == b""
            await close(writer)
            # A connection opened before the oversized line still works.
            bystander.write(encode_frame(ping_frame("still-here")))
            await bystander.drain()
            assert await read_frame(bystander_reader) == {
                "type": "pong",
                "id": "still-here",
            }
            await close(bystander)
            await assert_answers_a_new_connection(port)

        run_endpoint(kind, scenario, monkeypatch=monkeypatch, frame_cap=cap)

    def test_client_leaving_mid_submit_leaves_the_endpoint_serving(
        self, kind
    ):
        async def scenario(port):
            for index in range(3):
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                request = ScheduleRequest(
                    soc="alpha15", tl_c=160.0 + index, stcl=60.0
                )
                writer.write(encode_frame(submit_frame(f"gone{index}", request)))
                await writer.drain()
                if index == 2:
                    writer.transport.abort()  # RST, not a FIN
                else:
                    await close(writer)
            await assert_answers_a_new_connection(port)

        run_endpoint(kind, scenario)


    def test_fleet_stats_answers_as_a_fleet_of_one(self, kind):
        # A plain server answers as a healthy fleet of one, so a client
        # can ask a shard and a router the same question.
        async def scenario(port):
            async with await AsyncServiceClient.connect(port=port) as client:
                await client.submit(REQUEST)
                fleet = await client.fleet_stats()
            assert fleet["shard_count"] == fleet["healthy_shards"] == 1
            ((name, shard),) = fleet["shards"].items()
            if kind == "server":
                assert name == f"127.0.0.1:{port}"
            assert shard == dict(ShardHealth(name).to_dict(), stats=shard["stats"])
            assert shard["stats"]["solves_started"] == 1
            assert fleet["aggregate"]["solves_started"] == 1

        run_endpoint(kind, scenario)


class TestRouterEndpoint:
    def test_undecodable_line_gets_protocol_error_and_connection_survives(
        self,
    ):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            frame = await read_frame(reader)
            assert frame["type"] == "error"
            assert frame["id"] is None
            assert frame["error_type"] == "ProtocolError"
            writer.write(encode_frame(submit_frame("ok1", REQUEST)))
            await writer.drain()
            frame = await read_frame(reader)
            assert frame["type"] == "report"
            assert frame["id"] == "ok1"
            await close(writer)

        run_endpoint("router", scenario)


class _LateAnswerer(FrameEndpoint):
    """Answers each frame only once released, until ``send`` says no."""

    def __init__(self) -> None:
        super().__init__()
        self.received = asyncio.Event()
        self.release = asyncio.Event()
        self.results: "asyncio.Queue[list[bool]]" = asyncio.Queue()

    async def _handle_frame(self, frame, connection):
        self.received.set()
        connection.spawn(self._answer(frame, connection))

    async def _answer(self, frame, connection):
        await self.release.wait()
        results = []
        for _ in range(200):
            results.append(
                await connection.send({"type": "pong", "id": frame["id"]})
            )
            if not results[-1]:
                break
            await asyncio.sleep(0.01)
        await self.results.put(results)


class TestFrameConnection:
    def test_send_returns_false_once_the_client_is_gone(self):
        async def main():
            async with _LateAnswerer() as answerer:
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", answerer.port
                )
                writer.write(encode_frame(ping_frame("late")))
                await writer.drain()
                await asyncio.wait_for(answerer.received.wait(), READ_TIMEOUT_S)
                writer.transport.abort()
                answerer.release.set()
                results = await asyncio.wait_for(
                    answerer.results.get(), READ_TIMEOUT_S
                )
                # No exception escaped the answer task: send said False.
                assert results[-1] is False
                assert all(results[:-1])

        asyncio.run(main())
