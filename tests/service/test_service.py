"""In-process ScheduleService tests: queue, dedup, timeouts, drain."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api import ScheduleRequest, Solver, register_solver
from repro.api.request import report_to_dict
from repro.core.baselines import sequential_schedule
from repro.engine.scenarios import ScenarioSpec
from repro.errors import (
    ServiceBusyError,
    ServiceClosedError,
    ServiceError,
)
from repro.service import ScheduleService

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
SEQUENTIAL = ScheduleRequest(soc="worked_example6", tl_c=80.0, solver="sequential")
#: TL below the singleton peak: every solve fails with a violation.
INFEASIBLE = ScheduleRequest(soc="worked_example6", tl_c=30.0, stcl=60.0)


@register_solver
class SleepySolver(Solver):
    """Sequential schedule after a configurable nap (timing tests).

    Thread-backend only: the registration lives in this test process.
    """

    name = "test_sleepy"
    param_names = frozenset({"sleep_s"})

    def solve(self, context, params):
        time.sleep(float(params.get("sleep_s", 0.2)))
        return self.baseline_result(context, sequential_schedule(context.soc)), {}


def sleepy(sleep_s: float, marker: int = 0) -> ScheduleRequest:
    """A sleepy request; distinct *marker* values defeat deduplication."""
    return ScheduleRequest(
        soc="worked_example6",
        tl_c=80.0 + marker,  # marker folded into the content hash
        solver="test_sleepy",
        params={"sleep_s": sleep_s},
    )


class TestSolvePath:
    def test_solve_returns_report(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                report = await svc.solve(REQUEST)
                assert report.solver == "thermal_aware"
                assert report.request == REQUEST
                assert report.n_sessions >= 1
                assert report.max_temperature_c < 80.0

        asyncio.run(main())

    def test_mixed_solvers_share_one_service(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                thermal = await svc.solve(REQUEST)
                baseline = await svc.solve(SEQUENTIAL)
                assert thermal.solver == "thermal_aware"
                assert baseline.solver == "sequential"
                metrics = svc.metrics()
                assert metrics.completed == 2
                assert metrics.solves_started == 2
                # Same platform, sequential solves: the second one
                # reuses the first's thermal model.
                assert metrics.cache_hits == 1

        asyncio.run(main())

    def test_solve_failure_raises_service_error(self):
        async def main():
            async with ScheduleService(backend="thread") as svc:
                with pytest.raises(ServiceError, match="CoreThermalViolation"):
                    await svc.solve(INFEASIBLE)
                metrics = svc.metrics()
                assert metrics.errors == 1
                assert metrics.completed == 0

        asyncio.run(main())

    def test_outcome_records_failure_without_raising(self):
        async def main():
            async with ScheduleService(backend="thread") as svc:
                job = await svc.submit(INFEASIBLE)
                outcome = await job.outcome()
                assert not outcome.ok
                assert outcome.error_type == "CoreThermalViolationError"
                assert outcome.report is None

        asyncio.run(main())

    def test_rejects_non_request_submissions(self):
        async def main():
            async with ScheduleService(backend="thread") as svc:
                with pytest.raises(ServiceError, match="ScheduleRequest"):
                    await svc.submit({"soc": "alpha15"})  # type: ignore[arg-type]

        asyncio.run(main())


class TestDeduplication:
    def test_identical_inflight_requests_share_one_solve(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=2) as svc:
                request = sleepy(0.3)
                jobs = [await svc.submit(request) for _ in range(5)]
                outcomes = await asyncio.gather(*(j.outcome() for j in jobs))
                assert all(o.ok for o in outcomes)
                # All five submissions share one ServiceJob...
                assert len({id(j.future) for j in jobs}) == 1
                metrics = svc.metrics()
                # ...and exactly one worker execution happened.
                assert metrics.submitted == 5
                assert metrics.deduped == 4
                assert metrics.solves_started == 1
                assert metrics.dedup_rate == pytest.approx(0.8)

        asyncio.run(main())

    def test_distinct_requests_are_not_deduplicated(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=4) as svc:
                jobs = [await svc.submit(sleepy(0.05, marker=i)) for i in range(3)]
                await asyncio.gather(*(j.outcome() for j in jobs))
                assert svc.metrics().solves_started == 3
                assert svc.metrics().deduped == 0

        asyncio.run(main())

    def test_dedup_window_is_in_flight_only(self):
        async def main():
            # Answer cache off: dedup alone governs repeats.
            async with ScheduleService(
                backend="thread", answer_cache_size=0
            ) as svc:
                first = await svc.solve(REQUEST)
                second = await svc.solve(REQUEST)
                assert first.length_s == second.length_s
                # The first job resolved before the second arrived, so
                # both ran (a completed answer is not in-flight dedup's
                # business — absorbing it is the answer cache's).
                assert svc.metrics().solves_started == 2
                assert svc.metrics().deduped == 0
                assert svc.answer_cache is None

        asyncio.run(main())

    def test_completed_answers_are_served_from_the_answer_cache(self):
        async def main():
            async with ScheduleService(backend="thread") as svc:
                first = await svc.solve(REQUEST)
                second = await svc.solve(REQUEST)
                assert first.length_s == second.length_s
                # The repeat never reached a worker: one solve, one
                # answer-cache hit, provenance flagged on the report.
                assert not first.cached
                assert second.cached
                metrics = svc.metrics()
                assert metrics.solves_started == 1
                assert metrics.answer_hits == 1
                assert metrics.deduped == 0
                assert metrics.answer_cache is not None
                assert metrics.answer_cache.hits == 1
                assert metrics.answer_hit_rate == pytest.approx(0.5)

        asyncio.run(main())

    def test_failed_solves_are_not_cached(self):
        async def main():
            async with ScheduleService(backend="thread") as svc:
                for _ in range(2):
                    outcome = await (await svc.submit(INFEASIBLE)).outcome()
                    assert not outcome.ok
                # Both attempts ran: an error answer is never pinned.
                assert svc.metrics().solves_started == 2
                assert svc.metrics().answer_hits == 0

        asyncio.run(main())


class TestBackpressure:
    def test_submit_nowait_raises_when_full(self):
        async def main():
            async with ScheduleService(
                backend="thread", max_workers=1, queue_size=1
            ) as svc:
                running = await svc.submit(sleepy(0.5, marker=0))
                await asyncio.sleep(0.05)  # let the dispatcher start it
                queued = await svc.submit(sleepy(0.5, marker=1))
                with pytest.raises(ServiceBusyError, match="queue is full"):
                    svc.submit_nowait(sleepy(0.5, marker=2))
                metrics = svc.metrics()
                assert metrics.rejected == 1
                assert metrics.queue_depth == 1
                # Dedup-attaching to an in-flight request needs no slot.
                attached = svc.submit_nowait(sleepy(0.5, marker=1))
                assert attached.future is queued.future
                await asyncio.gather(running.outcome(), queued.outcome())

        asyncio.run(main())

    def test_cancelled_submit_does_not_poison_dedup_or_drain(self):
        async def main():
            svc = ScheduleService(backend="thread", max_workers=1, queue_size=1)
            await svc.start()
            # Fill the worker and the queue, then cancel a submission
            # that is stuck waiting for queue space.
            running = await svc.submit(sleepy(0.4, marker=0))
            await asyncio.sleep(0.05)
            queued = await svc.submit(sleepy(0.4, marker=1))
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(svc.submit(sleepy(0.4, marker=2)), 0.05)
            # The cancelled job must not linger: a re-submission starts
            # a fresh solve instead of attaching to a dead future...
            retried = await svc.submit(sleepy(0.05, marker=2))
            outcome = await retried.outcome()
            assert outcome.ok
            await asyncio.gather(running.outcome(), queued.outcome())
            # ...the accounting identity survives the cancellation
            # (the never-admitted submission does not stay counted)...
            metrics = svc.metrics()
            assert (
                metrics.solves_started + metrics.deduped + metrics.answer_hits
                == metrics.submitted
            )
            # ...and drain terminates instead of waiting forever.
            await asyncio.wait_for(svc.stop(drain=True), 30)

        asyncio.run(main())

    def test_cancelled_submit_does_not_kill_attached_waiters_silently(self):
        """B dedup-attaches to A's not-yet-queued job; A's cancellation
        must leave B with a clean, typed outcome — never a bare
        'service closed' lie from a healthy service, never a hang."""

        async def main():
            async with ScheduleService(
                backend="thread", max_workers=1, queue_size=1
            ) as svc:
                running = await svc.submit(sleepy(0.4, marker=0))
                await asyncio.sleep(0.05)
                queued = await svc.submit(sleepy(0.4, marker=1))
                # A parks on the full queue with marker=2 in the dedup
                # map; B attaches to it.
                submit_a = asyncio.ensure_future(
                    svc.submit(sleepy(0.4, marker=2))
                )
                await asyncio.sleep(0.05)
                job_b = await svc.submit(sleepy(0.4, marker=2))
                assert svc.metrics().deduped == 1
                submit_a.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await submit_a
                # The queue was still full, so the job could not be
                # rescued: B gets a retryable busy error, not "closed".
                with pytest.raises(ServiceBusyError, match="retry"):
                    await job_b.report()
                await asyncio.gather(running.outcome(), queued.outcome())
                # The accounting identity survives the whole episode,
                # and B's busy refusal shows up where operators look
                # for load-shedding — rejected, not deduped.
                metrics = svc.metrics()
                assert metrics.rejected == 1
                assert metrics.deduped == 0
                assert (
                    metrics.solves_started
                    + metrics.deduped
                    + metrics.answer_hits
                    == metrics.submitted
                )

        asyncio.run(main())

    def test_waiters_on_a_stopping_service_get_closed_not_busy(self):
        """Same episode during shutdown: 'retry' would be a lie, and
        shutdown fallout must not pollute the load-shedding gauge."""

        async def main():
            svc = ScheduleService(backend="thread", max_workers=1, queue_size=1)
            await svc.start()
            running = await svc.submit(sleepy(0.4, marker=0))
            await asyncio.sleep(0.05)
            queued = await svc.submit(sleepy(0.4, marker=1))
            submit_a = asyncio.ensure_future(svc.submit(sleepy(0.4, marker=2)))
            await asyncio.sleep(0.05)
            job_b = await svc.submit(sleepy(0.4, marker=2))
            stop_task = asyncio.ensure_future(svc.stop(drain=True))
            await asyncio.sleep(0.05)  # intake is now closed
            submit_a.cancel()
            with pytest.raises(asyncio.CancelledError):
                await submit_a
            with pytest.raises(ServiceClosedError):
                await job_b.report()
            await asyncio.gather(running.outcome(), queued.outcome())
            await asyncio.wait_for(stop_task, 30)
            metrics = svc.metrics()
            assert metrics.rejected == 0  # not a load-shedding event
            assert (
                metrics.solves_started + metrics.deduped + metrics.answer_hits
                == metrics.submitted
            )

        asyncio.run(main())

    def test_awaiting_submit_rides_out_a_full_queue(self):
        async def main():
            async with ScheduleService(
                backend="thread", max_workers=1, queue_size=1
            ) as svc:
                jobs = [
                    await svc.submit(sleepy(0.05, marker=i)) for i in range(4)
                ]
                outcomes = await asyncio.gather(*(j.outcome() for j in jobs))
                assert [o.ok for o in outcomes] == [True] * 4

        asyncio.run(main())


class TestTimeouts:
    def test_per_request_timeout_times_out(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=1) as svc:
                job = await svc.submit(sleepy(1.0), timeout_s=0.2)
                outcome = await job.outcome()
                assert outcome.error_type == "TimeoutError"
                metrics = svc.metrics()
                assert metrics.timeouts == 1
                assert metrics.errors == 1
            # Context exit drained: the zombie solve finished inside
            # executor shutdown, and its completion was counted.
            assert svc.metrics().solves_completed == 1

        asyncio.run(main())

    def test_default_timeout_applies_when_submit_names_none(self):
        async def main():
            async with ScheduleService(
                backend="thread", default_timeout_s=0.2
            ) as svc:
                outcome = await (await svc.submit(sleepy(1.0))).outcome()
                assert outcome.error_type == "TimeoutError"

        asyncio.run(main())

    def test_bad_timeouts_rejected(self):
        with pytest.raises(ServiceError, match="default_timeout_s"):
            ScheduleService(default_timeout_s=0.0)

        async def main():
            async with ScheduleService(backend="thread") as svc:
                with pytest.raises(ServiceError, match="timeout_s"):
                    await svc.submit(REQUEST, timeout_s=-1.0)

        asyncio.run(main())


class TestLifecycle:
    def test_bad_queue_size_rejected(self):
        with pytest.raises(ServiceError, match="queue_size"):
            ScheduleService(queue_size=0)

    def test_submit_before_start_rejected(self):
        async def main():
            svc = ScheduleService(backend="thread")
            with pytest.raises(ServiceClosedError):
                await svc.submit(REQUEST)

        asyncio.run(main())

    def test_drain_finishes_everything_and_joins_executor(self):
        async def main():
            svc = ScheduleService(backend="thread", max_workers=2)
            await svc.start()
            jobs = [await svc.submit(sleepy(0.1, marker=i)) for i in range(5)]
            await svc.stop(drain=True)
            # No pending futures...
            assert all(job.done for job in jobs)
            outcomes = [job.future.result() for job in jobs]
            assert all(o.ok for o in outcomes)
            metrics = svc.metrics()
            assert metrics.queue_depth == 0
            assert metrics.in_flight == 0
            assert metrics.completed == 5
            # ...the service refuses new work...
            with pytest.raises(ServiceClosedError):
                await svc.submit(REQUEST)
            # ...and the executor is joined (refuses new work too).
            with pytest.raises(RuntimeError):
                svc._executor.submit(time.sleep, 0)

        asyncio.run(main())

    def test_stop_without_drain_fails_queued_jobs(self):
        async def main():
            svc = ScheduleService(backend="thread", max_workers=1, queue_size=8)
            await svc.start()
            jobs = [await svc.submit(sleepy(0.3, marker=i)) for i in range(4)]
            await asyncio.sleep(0.05)  # first job reaches a worker
            await svc.stop(drain=False)
            assert all(job.done for job in jobs)
            states = []
            for job in jobs:
                exc = job.future.exception()
                states.append("closed" if exc is not None else "resolved")
                if exc is not None:
                    assert isinstance(exc, ServiceClosedError)
            # The job already on a worker finished; the queued ones
            # were failed fast instead of being waited for.
            assert states[0] == "resolved"
            assert "closed" in states

        asyncio.run(main())

    def test_in_flight_counts_jobs_not_archive_writes(self, tmp_path):
        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=2,
                archive=tmp_path / "served.jsonl",
            ) as svc:
                job = await svc.submit(sleepy(0.3))
                await asyncio.sleep(0.1)
                assert svc.metrics().in_flight == 1  # the solve, nothing else
                await job.outcome()
            assert svc.metrics().in_flight == 0

        asyncio.run(main())

    def test_stop_start_cycle_leaks_no_worker_slots(self):
        """The pool outlives a stop (unlike the per-start queue): the
        dispatcher's parked slot must come back, or a restarted
        1-worker service would hang forever."""

        async def main():
            # Cache off so every cycle's solve must reach a worker —
            # a leaked slot hangs immediately instead of being masked
            # by a cache hit.
            svc = ScheduleService(
                backend="thread", max_workers=1, answer_cache_size=0
            )
            for cycle in range(3):
                await svc.start()
                report = await asyncio.wait_for(
                    svc.solve(sleepy(0.01, marker=cycle)), 30
                )
                assert report.n_sessions >= 1
                await svc.stop()
                assert svc.worker_pool.busy_workers == 0

        asyncio.run(main())

    def test_stop_is_idempotent(self):
        async def main():
            svc = ScheduleService(backend="thread")
            await svc.start()
            await svc.stop()
            await svc.stop()
            assert not svc.running

        asyncio.run(main())

    def test_double_start_rejected(self):
        async def main():
            async with ScheduleService(backend="thread") as svc:
                with pytest.raises(ServiceError, match="already started"):
                    await svc.start()

        asyncio.run(main())


GRID = ScenarioSpec(kind="grid", rows=3, cols=3, power_seed=7)


def tl_sweep(headroom: float) -> ScheduleRequest:
    """Distinct requests on one thermal network (coalescible)."""
    return ScheduleRequest(scenario=GRID, tl_headroom=headroom, stcl_headroom=5.0)


def canonical(outcome) -> dict:
    """An ok outcome's deterministic report content."""
    assert outcome.ok, outcome.error
    data = report_to_dict(outcome.report)
    for field in ("elapsed_s", "timings", "cache_hit", "cached"):
        data.pop(field, None)
    return data


async def answer_all(requests, expect_groups: bool = False, **service_kwargs):
    """Outcomes of a one-worker service, every request submitted first."""
    async with ScheduleService(max_workers=1, **service_kwargs) as svc:
        jobs = [await svc.submit(request) for request in requests]
        outcomes = await asyncio.gather(*(job.outcome() for job in jobs))
        if expect_groups:
            assert svc.metrics().coalesced_batches >= 1
        return outcomes


class TestProcessBackend:
    def test_process_workers_solve_and_dedup(self):
        async def main():
            async with ScheduleService(backend="process", max_workers=2) as svc:
                jobs = [await svc.submit(REQUEST) for _ in range(4)]
                jobs.append(await svc.submit(SEQUENTIAL))
                outcomes = await asyncio.gather(*(j.outcome() for j in jobs))
                assert all(o.ok for o in outcomes)
                assert outcomes[0].report.solver == "thermal_aware"
                assert outcomes[-1].report.solver == "sequential"
                metrics = svc.metrics()
                assert metrics.submitted == 5
                assert metrics.solves_started == 2
                assert metrics.deduped == 3
                # Process workers keep per-process caches; the shared
                # cache snapshot is absent by design.
                assert metrics.cache is None

        asyncio.run(main())

    def test_uncached_process_workers_answer_like_threads(self):
        requests = [REQUEST, SEQUENTIAL] + [
            tl_sweep(8.0 + i) for i in range(3)
        ]
        process = asyncio.run(
            answer_all(requests, backend="process", use_cache=False)
        )
        thread = asyncio.run(answer_all(requests, backend="thread"))
        assert [canonical(o) for o in process] == [canonical(o) for o in thread]
        # No model cache anywhere, not even the worker process's own.
        assert not any(o.cache_hit for o in process)

    def test_coalesced_process_groups_answer_like_threads(self):
        requests = [tl_sweep(8.0 + i) for i in range(6)]
        process = asyncio.run(
            answer_all(
                requests,
                backend="process",
                max_batch=8,
                coalesce_window_ms=50.0,
                expect_groups=True,
            )
        )
        thread = asyncio.run(answer_all(requests, backend="thread"))
        assert [canonical(o) for o in process] == [canonical(o) for o in thread]
