"""Observability layer of the service: traces, histograms, logs, scrape."""

from __future__ import annotations

import asyncio
import io
import json
import time

import pytest

from repro.api import ScheduleRequest, Solver, register_solver
from repro.core.baselines import sequential_schedule
from repro.obs import JsonLogger
from repro.service import (
    BATCH_FAMILIES,
    DWELL_FAMILIES,
    LATENCY_FAMILIES,
    METRIC_FIELDS,
    AsyncServiceClient,
    ScheduleServer,
    ScheduleService,
    ServiceClient,
)

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)


@register_solver
class ObsSleepySolver(Solver):
    """Sequential schedule after a nap — pins a worker deterministically."""

    name = "test_obs_sleepy"
    param_names = frozenset({"sleep_s"})

    def solve(self, context, params):
        time.sleep(float(params.get("sleep_s", 0.2)))
        return (
            self.baseline_result(context, sequential_schedule(context.soc)),
            {},
        )


def sleepy(sleep_s: float, marker: int = 0) -> ScheduleRequest:
    return ScheduleRequest(
        soc="worked_example6",
        tl_c=80.0 + marker,
        solver="test_obs_sleepy",
        params={"sleep_s": sleep_s},
    )

#: Phases every service-produced ok report must carry (tentpole
#: acceptance): engine phases + worker wall + service lifecycle.
EXPECTED_PHASES = {
    "model_build",
    "limit_resolve",
    "solver",
    "total",
    "worker",
    "queue_wait",
    "service_total",
}


class TestRequestTimings:
    def test_every_ok_report_carries_per_phase_timings(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                report = await svc.solve(REQUEST)
                assert report.timings is not None
                assert EXPECTED_PHASES <= set(report.timings)
                # Phase nesting: engine total <= worker wall <= e2e.
                assert report.timings["total"] <= report.timings["worker"]
                assert report.timings["worker"] <= report.timings["service_total"]
                assert all(v >= 0.0 for v in report.timings.values())

        asyncio.run(main())

    def test_cached_hit_serves_the_original_trace(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                first = await svc.solve(REQUEST)
                second = await svc.solve(REQUEST)
                assert second.cached
                assert second.timings == first.timings

        asyncio.run(main())


class TestLatencyHistograms:
    def test_families_populated_after_a_solve_and_a_hit(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                await svc.solve(REQUEST)
                await svc.solve(REQUEST)  # answer-cache hit
                latency = svc.metrics().latency
                assert latency is not None
                for family in ("queue_wait", "solve", "e2e", "answer_hit"):
                    assert family in latency
                assert latency["e2e"]["count"] == 2
                assert latency["solve"]["count"] == 1
                assert latency["answer_hit"]["count"] == 1
                snap = latency["solve"]
                assert snap["p50"] is not None
                assert snap["min"] <= snap["p50"] <= snap["max"]

        asyncio.run(main())

    def test_stats_dict_nests_latency_snapshots(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                await svc.solve(REQUEST)
                data = svc.metrics().to_dict()
                assert set(data["latency"]) >= {"queue_wait", "solve", "e2e"}
                assert data["latency"]["solve"]["count"] == 1
                # The whole stats payload must stay JSON-serialisable.
                json.dumps(data)

        asyncio.run(main())

    def test_describe_includes_latency_percentiles(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                await svc.solve(REQUEST)
                text = svc.metrics().describe()
                assert "latency:" in text
                assert "solve p50" in text

        asyncio.run(main())


class TestMetricFieldTable:
    def test_table_drives_to_dict(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=1) as svc:
                data = svc.metrics().to_dict()
                for field in METRIC_FIELDS:
                    assert field.name in data

        asyncio.run(main())

    def test_every_latency_family_has_a_histogram(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=1) as svc:
                assert set(svc.latency_histograms.names()) == (
                    set(LATENCY_FAMILIES)
                    | set(DWELL_FAMILIES)
                    | set(BATCH_FAMILIES)
                )

        asyncio.run(main())


class TestMetricsScrape:
    def test_metrics_frame_over_tcp(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                server = ScheduleServer(svc, host="127.0.0.1", port=0)
                await server.start()
                try:
                    async with await AsyncServiceClient.connect(
                        port=server.port
                    ) as client:
                        await client.submit(REQUEST)
                        await client.submit(REQUEST)  # cache hit
                        text = await client.metrics_text()
                finally:
                    await server.stop()
            assert 'repro_service{backend="thread"} 1' in text
            assert "repro_submitted_total 2" in text
            assert "repro_answer_hits_total 1" in text
            assert "repro_solve_seconds_count 1" in text
            assert "repro_e2e_seconds_count 2" in text
            assert 'repro_queue_wait_seconds{quantile="0.5"}' in text
            assert "# TYPE repro_solve_seconds summary" in text

        asyncio.run(main())

    def test_sync_client_metrics_text(self):
        import threading

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        async def boot():
            service = ScheduleService(backend="thread", max_workers=2)
            await service.start()
            server = ScheduleServer(service, host="127.0.0.1", port=0)
            await server.start()
            return service, server

        service, server = asyncio.run_coroutine_threadsafe(
            boot(), loop
        ).result(30)
        try:
            with ServiceClient(port=server.port) as client:
                client.submit(REQUEST)
                text = client.metrics_text()
            assert "repro_submitted_total 1" in text
        finally:
            async def teardown():
                await server.stop()
                await service.stop(drain=True)

            asyncio.run_coroutine_threadsafe(teardown(), loop).result(60)
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()


class TestStructuredLogging:
    @staticmethod
    def _events(stream: io.StringIO) -> list[dict]:
        return [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]

    def test_lifecycle_events_admitted_completed_hit(self):
        stream = io.StringIO()

        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=2,
                logger=JsonLogger(stream, clock=lambda: 7.0),
            ) as svc:
                await svc.solve(REQUEST)
                await svc.solve(REQUEST)  # answer-cache hit

        asyncio.run(main())
        events = self._events(stream)
        names = [e["event"] for e in events]
        assert names == [
            "request_admitted", "request_completed", "request_cache_hit",
        ]
        completed = events[1]
        assert completed["request_hash"] == REQUEST.content_hash()
        assert completed["solver"] == "thermal_aware"
        assert completed["status"] == "ok"
        assert EXPECTED_PHASES <= set(completed["timings"])

    def test_slow_request_threshold_logs_full_trace(self):
        stream = io.StringIO()

        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=2,
                logger=JsonLogger(stream, clock=lambda: 7.0),
                slow_request_ms=0.001,  # everything is "slow"
            ) as svc:
                await svc.solve(REQUEST)

        asyncio.run(main())
        events = self._events(stream)
        slow = [e for e in events if e["event"] == "slow_request"]
        assert len(slow) == 1
        assert slow[0]["threshold_ms"] == 0.001
        assert slow[0]["e2e_s"] >= 0.0
        assert "solver" in slow[0]["timings"]

    def test_slow_request_ms_alone_enables_stderr_logging(self, capsys):
        async def main():
            async with ScheduleService(
                backend="thread", max_workers=2, slow_request_ms=0.001
            ) as svc:
                await svc.solve(REQUEST)

        asyncio.run(main())
        err = capsys.readouterr().err
        assert '"event":"slow_request"' in err

    def test_shed_event_logged(self):
        stream = io.StringIO()

        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=1,
                queue_size=1,
                shed_watermark=1,
                answer_cache_size=0,
                logger=JsonLogger(stream, clock=lambda: 7.0),
            ) as svc:
                first = asyncio.ensure_future(svc.solve(sleepy(0.3, marker=0)))
                await asyncio.sleep(0.05)  # the worker now holds `first`
                # Occupy the queue, then trip the watermark.
                second = asyncio.ensure_future(
                    svc.solve(sleepy(0.01, marker=1))
                )
                await asyncio.sleep(0.05)
                from repro.errors import ServiceBusyError

                with pytest.raises(ServiceBusyError):
                    await svc.solve(REQUEST)
                await asyncio.gather(first, second)

        asyncio.run(main())
        names = [e["event"] for e in self._events(stream)]
        assert "request_shed" in names

    def test_invalid_slow_threshold_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="slow_request_ms"):
            ScheduleService(backend="thread", slow_request_ms=-1.0)
