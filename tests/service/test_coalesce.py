"""Request-coalescing dispatcher tests: grouping, identity, isolation.

Every dispatch is a group; with ``max_batch > 1`` the dispatcher
drains compatible neighbours of a popped job (same thermal network,
same effective timeout) and solves each group as one executor task,
request after request over shared model builds.  These tests pin the
service-level contract: counters account per job, the ``batch_size``
histogram records dispatch widths, group members resolve independently
(errors and timeouts included), and a coalesced answer is bit-identical
to the uncoalesced service's.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api import ScheduleRequest, Solver, register_solver
from repro.api.request import report_to_dict
from repro.core.baselines import sequential_schedule
from repro.engine.scenarios import ScenarioSpec
from repro.errors import ServiceError
from repro.service import ScheduleService

GRID = ScenarioSpec(kind="grid", rows=3, cols=3, power_seed=7)
OTHER = ScenarioSpec(kind="slicing", n_blocks=6, floorplan_seed=2)


def tl_varied(headroom: float, scenario: ScenarioSpec = GRID) -> ScheduleRequest:
    """Distinct content hashes, one thermal network: always coalescible."""
    return ScheduleRequest(
        scenario=scenario, tl_headroom=headroom, stcl_headroom=5.0
    )


@register_solver
class CoalesceSleepySolver(Solver):
    """Sequential schedule after a nap (group-timeout tests).

    Thread-backend only: the registration lives in this test process.
    """

    name = "test_coalesce_sleepy"
    param_names = frozenset({"sleep_s"})

    def solve(self, context, params):
        time.sleep(float(params.get("sleep_s", 0.2)))
        return (
            self.baseline_result(context, sequential_schedule(context.soc)),
            {},
        )


def canonical(report) -> dict:
    """Deterministic report content (wall clocks and provenance off)."""
    data = report_to_dict(report)
    for field in ("elapsed_s", "timings", "cache_hit", "cached"):
        data.pop(field, None)
    return data


async def burst(svc: ScheduleService, requests) -> list:
    """Submit everything before awaiting anything, then gather."""
    jobs = [await svc.submit(request) for request in requests]
    return await asyncio.gather(*(job.outcome() for job in jobs))


class TestCoalescingDispatch:
    def test_burst_coalesces_and_counts_per_job(self):
        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=1,
                max_batch=8,
                coalesce_window_ms=50.0,
            ) as svc:
                outcomes = await burst(
                    svc, [tl_varied(8.0 + i) for i in range(6)]
                )
                assert all(o.ok for o in outcomes)
                metrics = svc.metrics()
                # Per-job accounting survives grouping...
                assert metrics.submitted == 6
                assert metrics.solves_started == 6
                assert metrics.solves_completed == 6
                assert metrics.completed == 6
                # ...and the single worker genuinely grouped: 6 jobs
                # cannot have taken 6 dispatches (the first may go
                # solo before the burst lands, the rest coalesce).
                assert metrics.coalesced_batches >= 1
                assert metrics.coalesced_solves >= 2
                assert metrics.coalesced_solves > metrics.coalesced_batches
                snap = (metrics.latency or {}).get("batch_size") or {}
                assert snap.get("count", 0) >= 1
                assert snap.get("max", 0.0) >= 2.0

        asyncio.run(main())

    def test_disabled_coalescing_keeps_counters_zero(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=1) as svc:
                outcomes = await burst(svc, [tl_varied(8.0 + i) for i in range(4)])
                assert all(o.ok for o in outcomes)
                metrics = svc.metrics()
                assert metrics.coalesced_batches == 0
                assert metrics.coalesced_solves == 0
                snap = (metrics.latency or {}).get("batch_size") or {}
                assert snap.get("count", 0) == 0

        asyncio.run(main())

    def test_coalesced_answers_bit_identical_to_solo_service(self):
        requests = [tl_varied(8.0 + 2 * i) for i in range(4)]

        async def run(**kwargs):
            async with ScheduleService(
                backend="thread", max_workers=1, **kwargs
            ) as svc:
                return await burst(svc, requests)

        grouped = asyncio.run(run(max_batch=8, coalesce_window_ms=50.0))
        solo = asyncio.run(run())
        for a, b in zip(grouped, solo):
            assert a.ok and b.ok
            assert canonical(a.report) == canonical(b.report)
            assert a.steady_solves == b.steady_solves

    def test_incompatible_networks_group_apart_but_all_answer(self):
        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=1,
                max_batch=8,
                coalesce_window_ms=50.0,
            ) as svc:
                mixed = [
                    tl_varied(8.0),
                    tl_varied(9.0, OTHER),
                    tl_varied(10.0),
                    tl_varied(11.0, OTHER),
                ]
                outcomes = await burst(svc, mixed)
                assert all(o.ok for o in outcomes)
                metrics = svc.metrics()
                assert metrics.completed == 4
                # A group never mixes thermal networks, so at most one
                # dispatch per network can be a coalesced batch here.
                assert metrics.coalesced_batches <= 2

        asyncio.run(main())

    def test_mid_group_infeasible_request_errors_alone(self):
        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=1,
                max_batch=8,
                coalesce_window_ms=50.0,
            ) as svc:
                bad = ScheduleRequest(scenario=GRID, tl_c=1.0, stcl=60.0)
                outcomes = await burst(
                    svc, [tl_varied(8.0), bad, tl_varied(12.0)]
                )
                assert outcomes[0].ok and outcomes[2].ok
                assert not outcomes[1].ok
                assert outcomes[1].error_type == "CoreThermalViolationError"
                metrics = svc.metrics()
                assert metrics.completed == 2
                assert metrics.errors == 1

        asyncio.run(main())

    def test_group_timeout_times_out_every_member(self):
        async def main():
            async with ScheduleService(
                backend="thread",
                max_workers=1,
                max_batch=8,
                coalesce_window_ms=50.0,
                default_timeout_s=0.15,
            ) as svc:
                naps = [
                    ScheduleRequest(
                        soc="worked_example6",
                        tl_c=80.0 + i,
                        solver="test_coalesce_sleepy",
                        params={"sleep_s": 0.4},
                    )
                    for i in range(2)
                ]
                outcomes = await burst(svc, naps)
                assert all(o.error_type == "TimeoutError" for o in outcomes)
                assert svc.metrics().timeouts == 2
            # Drained: the zombie group was still counted on its way out.
            assert svc.metrics().solves_completed == 2

        asyncio.run(main())

    def test_knob_validation(self):
        with pytest.raises(ServiceError, match="max_batch"):
            ScheduleService(backend="thread", max_batch=0)
        with pytest.raises(ServiceError, match="coalesce_window_ms"):
            ScheduleService(backend="thread", coalesce_window_ms=-1.0)

    def test_describe_config_mentions_coalescing_only_when_on(self):
        on = ScheduleService(
            backend="thread", max_batch=4, coalesce_window_ms=5.0
        )
        off = ScheduleService(backend="thread")
        assert "coalesce <=4 jobs/5 ms" in on.describe_config()
        assert "coalesce" not in off.describe_config()


class TestBusyRetryHint:
    def test_measured_zero_p50_is_not_discarded(self):
        """Regression: ``or`` treated a measured p50 of 0.0 s as absent.

        A histogram whose every solve observation is exactly 0.0 has
        p50 == 0.0 (quantiles clamp to [min, max]); the hint must use
        it — idle queue, sub-resolution solves → the 0.05 s floor —
        instead of falling back to the 0.5 s prior.
        """

        async def main():
            async with ScheduleService(backend="thread", max_workers=1) as svc:
                svc.latency_histograms.observe("solve", 0.0)
                snap = svc.latency_histograms.snapshot()["solve"]
                assert snap["p50"] == 0.0  # the premise of the bug
                assert svc._busy_retry_after_s() == pytest.approx(0.05)

        asyncio.run(main())

    def test_absent_p50_still_uses_the_prior(self):
        async def main():
            async with ScheduleService(backend="thread", max_workers=1) as svc:
                # No solve observed yet: the 0.5 s prior applies
                # (empty queue, one worker -> one median solve).
                assert svc._busy_retry_after_s() == pytest.approx(0.5)

        asyncio.run(main())
