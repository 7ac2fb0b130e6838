"""TCP server + client tests, driving a real in-process server over localhost."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api import ScheduleRequest
from repro.api.request import report_to_dict, request_to_dict
from repro.engine import ScenarioSpec
from repro.engine.cache import MODEL_CACHE_ENTRIES
from repro.errors import ProtocolError, ServiceError
from repro.service import (
    AsyncServiceClient,
    ScheduleServer,
    ScheduleService,
    ServiceClient,
    encode_frame,
    submit_frame,
)

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
GRID_REQUEST = ScheduleRequest(
    scenario=ScenarioSpec(kind="grid", rows=2, cols=2), tl_c=120.0, stcl=60.0
)
INFEASIBLE = ScheduleRequest(soc="worked_example6", tl_c=30.0, stcl=60.0)


def run_with_server(test_coro, **service_kwargs):
    """Start service + TCP server, run *test_coro(server, service)*, tear down."""

    async def main():
        service_kwargs.setdefault("backend", "thread")
        service_kwargs.setdefault("max_workers", 2)
        async with ScheduleService(**service_kwargs) as service:
            server = ScheduleServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                return await test_coro(server, service)
            finally:
                await server.stop()

    return asyncio.run(main())


class TestAsyncClient:
    def test_submit_decodes_a_report(self):
        async def scenario(server, service):
            async with await AsyncServiceClient.connect(port=server.port) as client:
                report = await client.submit(REQUEST)
                assert report.solver == "thermal_aware"
                assert report.request == REQUEST
                assert report.request_hash == REQUEST.content_hash()
                assert report.max_temperature_c < 80.0

        run_with_server(scenario)

    def test_raw_frames_carry_hash_and_report(self):
        async def scenario(server, service):
            async with await AsyncServiceClient.connect(port=server.port) as client:
                frame = await client.submit(REQUEST, decode=False)
                assert frame["type"] == "report"
                assert frame["request_hash"] == REQUEST.content_hash()
                assert frame["report"]["solver"] == "thermal_aware"

        run_with_server(scenario)

    def test_solve_failure_raises_with_origin_type(self):
        async def scenario(server, service):
            async with await AsyncServiceClient.connect(port=server.port) as client:
                with pytest.raises(ServiceError, match="CoreThermalViolation"):
                    await client.submit(INFEASIBLE)

        run_with_server(scenario)

    def test_ping_and_stats(self):
        async def scenario(server, service):
            async with await AsyncServiceClient.connect(port=server.port) as client:
                assert await client.ping() < 5.0
                await client.submit(REQUEST)
                stats = await client.stats()
                assert stats["submitted"] == 1
                assert stats["completed"] == 1
                assert stats["backend"] == "thread"
                assert stats["cache"]["entries"] == 1

        run_with_server(scenario)

    def test_model_cache_stays_at_its_default_bound(self):
        """More networks than the bound: entries stay at it, the oldest is
        evicted, and re-requesting it rebuilds the model, same report."""
        requests = [
            ScheduleRequest(
                scenario=ScenarioSpec(
                    kind="grid",
                    rows=2,
                    cols=2,
                    power_seed=1,
                    convection_resistance=0.3 + 1e-3 * i,
                ),
                tl_headroom=1.5,
                stcl_headroom=2.0,
            )
            for i in range(MODEL_CACHE_ENTRIES + 4)
        ]

        async def scenario(server, service):
            async with await AsyncServiceClient.connect(port=server.port) as client:
                first = [await client.submit(request) for request in requests]
                stats = await client.stats()
                metrics = await client.metrics_text()
                again = await client.submit(requests[0])
                after = await client.stats()
            return first, stats, metrics, again, after

        first, stats, metrics, again, after = run_with_server(
            scenario, answer_cache_size=0
        )
        assert stats["cache"]["entries"] == MODEL_CACHE_ENTRIES
        assert stats["cache"]["evictions"] == 4
        evictions = next(
            line for line in metrics.splitlines()
            if line.startswith("repro_model_cache_evictions")
        )
        assert float(evictions.split()[-1]) > 0
        assert not again.cache_hit
        assert after["cache"]["misses"] == stats["cache"]["misses"] + 1

        def comparable(report):
            data = report_to_dict(report)
            for key in ("elapsed_s", "timings", "cache_hit"):
                del data[key]
            return data

        assert comparable(again) == comparable(first[0])

    def test_stream_yields_in_completion_order(self):
        async def scenario(server, service):
            requests = [
                ScheduleRequest(soc="worked_example6", tl_c=80.0 + i, stcl=60.0)
                for i in range(3)
            ]
            async with await AsyncServiceClient.connect(port=server.port) as client:
                seen = {}
                async for index, result in client.stream(requests):
                    seen[index] = result
                assert sorted(seen) == [0, 1, 2]
                assert all(r.n_sessions >= 1 for r in seen.values())

        run_with_server(scenario)

    def test_submit_after_connection_loss_reconnects(self):
        async def scenario(server, service):
            from repro.errors import ServiceConnectionError

            client = await AsyncServiceClient.connect(port=server.port)
            await client.submit(REQUEST)
            # Sever the connection abruptly (a dead network path, a
            # killed server box): in-flight calls at the moment of loss
            # fail fast with the typed retryable error — not a hang on
            # a write the dead transport buffers silently.
            pending = asyncio.ensure_future(client.submit(INFEASIBLE))
            await asyncio.sleep(0)  # let the submit reach the wire
            client._writer.transport.abort()
            with pytest.raises(ServiceConnectionError, match="closed"):
                await asyncio.wait_for(pending, 10)
            assert client.connection_lost
            # The client object is not poisoned: with the server still
            # alive, the next call re-dials transparently (even with no
            # retry policy) and completes.
            report = await asyncio.wait_for(client.submit(REQUEST), 10)
            assert report.n_sessions >= 1
            assert not client.connection_lost
            await client.close()

        run_with_server(scenario)

    def test_submit_against_a_dead_server_raises_typed_retryable(self):
        async def scenario(server, service):
            from repro.errors import ServiceConnectionError

            client = await AsyncServiceClient.connect(port=server.port)
            await client.submit(REQUEST)
            # Kill the listener too: the reconnect attempt must surface
            # the typed, retryable connection error, not a raw OSError.
            await server.stop()
            client._writer.transport.abort()
            await asyncio.sleep(0.05)  # let the loss reach the read loop
            with pytest.raises(ServiceConnectionError, match="cannot connect"):
                await asyncio.wait_for(client.submit(REQUEST), 10)
            assert ServiceConnectionError("x").retryable
            await client.close()

        run_with_server(scenario)

    def test_busy_resolved_job_yields_an_error_frame_not_a_hang(self):
        """A job future resolved with ServiceBusyError (a dedup waiter
        whose originating submission was cancelled) must come back as
        an error frame — the answer task dying silently would leave
        the client waiting forever."""

        async def scenario(server, service):
            from repro.errors import ServiceBusyError
            from repro.service import ServiceJob

            loop = asyncio.get_running_loop()

            async def pre_failed_submit(request, *, timeout_s=None, stream=False):
                job = ServiceJob(
                    request, request.content_hash(), None, loop.create_future()
                )
                job.future.set_exception(
                    ServiceBusyError("the queue was full; retry")
                )
                job.future.exception()
                return job

            service.submit = pre_failed_submit  # type: ignore[method-assign]
            async with await AsyncServiceClient.connect(port=server.port) as client:
                with pytest.raises(ServiceBusyError, match="retry"):
                    await asyncio.wait_for(client.submit(REQUEST), 10)

        run_with_server(scenario)

    def test_connect_refused_is_a_service_error(self):
        async def main():
            with pytest.raises(ServiceError, match="cannot connect"):
                await AsyncServiceClient.connect(port=1)  # nothing listens

        asyncio.run(main())


class TestProtocolOverTcp:
    def test_garbage_line_gets_error_frame_not_disconnect(self):
        async def scenario(server, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["type"] == "error"
            assert frame["error_type"] == "ProtocolError"
            # The connection survives: a valid frame still works.
            writer.write(encode_frame(submit_frame("ok1", REQUEST)))
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["type"] == "report"
            assert frame["id"] == "ok1"
            writer.close()
            await writer.wait_closed()

        run_with_server(scenario)

    def test_server_side_frame_type_rejected(self):
        async def scenario(server, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_frame({"type": "report", "id": "x"}))
            await writer.drain()
            frame = json.loads(await reader.readline())
            assert frame["type"] == "error"
            assert "may not send" in frame["error"]
            writer.close()
            await writer.wait_closed()

        run_with_server(scenario)

    def test_bad_request_payload_gets_error_frame(self):
        async def scenario(server, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            frame = submit_frame("b1", REQUEST)
            frame["request"]["soc"] = "atlantis"
            writer.write(encode_frame(frame))
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["type"] == "error"
            assert response["id"] == "b1"
            assert response["error_type"] == "ProtocolError"
            writer.close()
            await writer.wait_closed()

        run_with_server(scenario)


    def test_oversized_scenario_gets_error_frame_and_the_worker_answers_on(self):
        async def scenario(server, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            frame = submit_frame("big", REQUEST)
            frame["request"] = dict(
                frame["request"],
                soc=None,
                scenario=request_to_dict(GRID_REQUEST)["scenario"]
                | {"rows": 200, "cols": 200},
            )
            writer.write(encode_frame(frame))
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["type"] == "error"
            assert response["id"] == "big"
            assert response["error_type"] == "ProtocolError"
            assert "40000 blocks" in response["error"]
            writer.write(encode_frame(submit_frame("next", REQUEST)))
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["type"] == "report"
            assert response["id"] == "next"
            writer.close()
            await writer.wait_closed()

        run_with_server(scenario)


class TestSyncClient:
    def test_sync_submit_and_stats_from_another_thread(self):
        async def scenario(server, service):
            port = server.port
            results = {}

            def blocking_calls():
                with ServiceClient(port=port) as client:
                    results["report"] = client.submit(REQUEST)
                    results["rtt"] = client.ping()
                    results["stats"] = client.stats()
                    results["many"] = client.submit_many(
                        [REQUEST, INFEASIBLE], return_errors=True
                    )

            # The sync client owns its own loop; run it off-loop the
            # way a script or the CLI would.
            await asyncio.to_thread(blocking_calls)
            assert results["report"].solver == "thermal_aware"
            assert results["rtt"] < 5.0
            assert results["stats"]["completed"] >= 1
            ok, err = results["many"]
            assert ok.solver == "thermal_aware"
            assert isinstance(err, ServiceError)

        run_with_server(scenario)


class TestAcceptanceBurst:
    """The ISSUE's acceptance scenario, verbatim.

    An in-process ScheduleService with *process* workers sustains a
    100-request mixed-solver burst over the TCP protocol with zero
    lost or duplicated reports, deduplicates identical concurrent
    requests to a single solve (asserted via solve counters), and
    drains cleanly on shutdown (no pending futures, executor joined).
    """

    def distinct_requests(self) -> list[ScheduleRequest]:
        grid = ScenarioSpec(kind="grid", rows=2, cols=2)
        return [
            ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0),
            ScheduleRequest(soc="worked_example6", tl_c=85.0, stcl=60.0),
            ScheduleRequest(soc="worked_example6", tl_c=80.0, solver="sequential"),
            ScheduleRequest(soc="worked_example6", tl_c=80.0, solver="random"),
            ScheduleRequest(
                soc="worked_example6",
                tl_c=80.0,
                solver="power_constrained",
                params={"power_limit_w": 25.0},
            ),
            ScheduleRequest(scenario=grid, tl_headroom=1.3, stcl_headroom=2.0),
            ScheduleRequest(scenario=grid, tl_headroom=1.3, solver="sequential"),
            ScheduleRequest(scenario=grid, tl_headroom=1.4, stcl_headroom=2.0),
        ]

    def test_100_request_mixed_solver_burst(self):
        distinct = self.distinct_requests()
        burst = [distinct[i % len(distinct)] for i in range(100)]

        async def scenario(server, service):
            async with await AsyncServiceClient.connect(port=server.port) as client:
                frames = await client.submit_many(burst, decode=False)
                stats = await client.stats()
            return frames, stats

        service = ScheduleService(backend="process", max_workers=2)

        async def main():
            async with service:
                server = ScheduleServer(service, host="127.0.0.1", port=0)
                await server.start()
                try:
                    return await scenario(server, service)
                finally:
                    await server.stop()

        frames, stats = asyncio.run(main())

        # Zero lost, zero duplicated: exactly one report frame per
        # submission, and per distinct request exactly as many frames
        # as submissions of it.
        assert len(frames) == 100
        assert all(f["type"] == "report" for f in frames)
        by_hash: dict[str, int] = {}
        for frame in frames:
            by_hash[frame["request_hash"]] = by_hash.get(frame["request_hash"], 0) + 1
        expected: dict[str, int] = {}
        for request in burst:
            key = request.content_hash()
            expected[key] = expected.get(key, 0) + 1
        assert by_hash == expected

        # Dedup + answer cache asserted via the solve counters:
        # identical concurrent requests collapsed to one in-flight
        # solve, identical *later* requests were answered from the
        # cache; every distinct request solved at least once.
        assert stats["submitted"] == 100
        assert (
            stats["solves_started"] + stats["deduped"] + stats["answer_hits"]
            == 100
        )
        assert len(distinct) <= stats["solves_started"] < 100
        # `completed` counts resolved *jobs* (unique solves): every
        # solve that ran succeeded, none errored.
        assert stats["completed"] == stats["solves_started"]
        assert stats["errors"] == 0

        # Drained cleanly: nothing pending, nothing queued, and the
        # executor is joined (refuses new work).
        metrics = service.metrics()
        assert metrics.queue_depth == 0
        assert metrics.in_flight == 0
        assert metrics.solves_completed == metrics.solves_started
        with pytest.raises(RuntimeError):
            service._executor.submit(int)
        assert not service.running
