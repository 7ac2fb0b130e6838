"""Closed-loop executor acceptance: safety, determinism, timeline shape.

The pivotal scenario mirrors the ISSUE's acceptance criterion: a
schedule whose open-loop execution exceeds a critical threshold must,
under the ReactiveExecutor, keep every sampled block temperature at or
below that threshold — and the event timeline must replay bit-for-bit
under the same seed-free, fake-clock setup.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.api import ScheduleRequest, Workbench
from repro.errors import ReactiveError
from repro.reactive import (
    EVENT_KINDS,
    GuardConfig,
    ReactiveConfig,
    ReactiveExecutor,
    ThermalGuard,
    VirtualSensor,
    run_schedule_result,
)
from repro.thermal.simulator import ThermalSimulator

#: worked_example6 at TL 80 / STCL 60 solves to six singleton sessions
#: whose open-loop transient peaks at ~53.3 C — so a 53 C critical
#: threshold is exceeded open-loop and must be held closed-loop.
GUARD = GuardConfig(elevated_c=49.0, critical_c=53.0, hysteresis_c=1.5)


@pytest.fixture(scope="module")
def result():
    report = Workbench(use_cache=False).solve(
        ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
    )
    return report.result


class TestConfig:
    def test_bad_chunk_rejected(self):
        with pytest.raises(ReactiveError, match="control period"):
            ReactiveConfig(chunk_s=0.0)

    def test_throttle_factor_must_be_a_real_reduction(self):
        with pytest.raises(ReactiveError, match="throttle factor"):
            ReactiveConfig(throttle_factor=1.0)

    def test_pause_budget_must_cover_one_interval(self):
        with pytest.raises(ReactiveError, match="pause budget"):
            ReactiveConfig(pause_s=1.0, max_pause_s=0.5)


class TestClosedLoopSafety:
    def test_open_loop_exceeds_critical_closed_loop_does_not(self, result):
        open_loop = run_schedule_result(
            result, guard_config=GUARD, closed_loop=False
        )
        closed = run_schedule_result(result, guard_config=GUARD)
        # The scenario is only meaningful if open-loop actually runs hot.
        assert open_loop.peak_temperature_c > GUARD.critical_c
        # Closed loop: every sampled block temperature stays at or
        # below critical — not just the global peak.
        assert closed.peak_temperature_c <= GUARD.critical_c
        assert all(
            temp <= GUARD.critical_c
            for temp in closed.peak_by_block.values()
        )
        assert closed.throttles > 0

    def test_closed_loop_completes_all_work(self, result):
        report = run_schedule_result(result, guard_config=GUARD)
        expected = sum(s.duration_s for s in result.schedule.sessions)
        assert report.work_s == pytest.approx(expected)
        # Throttling stretches wall-clock beyond the test work.
        assert report.total_time_s > report.work_s

    def test_open_loop_timeline_is_plain_execution(self, result):
        report = run_schedule_result(
            result, guard_config=GUARD, closed_loop=False
        )
        kinds = {e.kind for e in report.events}
        assert "throttled" not in kinds
        assert "paused" not in kinds
        assert "reordered" not in kinds
        assert report.total_time_s == pytest.approx(report.work_s)


class TestDeterminism:
    def test_event_timeline_replays_identically(self, result):
        first = run_schedule_result(result, guard_config=GUARD)
        second = run_schedule_result(result, guard_config=GUARD)
        assert first.to_dict() == second.to_dict()

    def test_dwell_and_transitions_replay_identically(self, result):
        first = run_schedule_result(result, guard_config=GUARD)
        second = run_schedule_result(result, guard_config=GUARD)
        assert first.guard_transitions == second.guard_transitions
        assert first.dwell_s == second.dwell_s
        assert first.samples == second.samples


class TestTimelineShape:
    def test_events_are_contiguous_and_end_in_done(self, result):
        report = run_schedule_result(result, guard_config=GUARD)
        assert [e.seq for e in report.events] == list(
            range(len(report.events))
        )
        assert all(e.kind in EVENT_KINDS for e in report.events)
        assert report.events[-1].kind == "done"
        n = len(result.schedule.sessions)
        assert [e.kind for e in report.events[:n]] == ["queued"] * n

    def test_every_session_runs_and_finishes_once(self, result):
        report = run_schedule_result(result, guard_config=GUARD)
        n = len(result.schedule.sessions)
        ran = [e.session for e in report.events if e.kind == "running"]
        done = [e.session for e in report.events if e.kind == "session_done"]
        assert sorted(ran) == sorted(done) == list(range(n))

    def test_event_times_are_monotonic(self, result):
        report = run_schedule_result(result, guard_config=GUARD)
        times = [e.time_s for e in report.events]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_counters_match_the_timeline(self, result):
        report = run_schedule_result(result, guard_config=GUARD)
        by_kind = {
            kind: sum(1 for e in report.events if e.kind == kind)
            for kind in EVENT_KINDS
        }
        assert report.throttles == by_kind["throttled"]
        assert report.pauses == by_kind["paused"]
        assert report.reorders == by_kind["reordered"]

    def test_on_event_streams_the_exact_timeline(self, result):
        streamed = []
        report = run_schedule_result(
            result, guard_config=GUARD, on_event=streamed.append
        )
        assert streamed == list(report.events)

    def test_describe_mentions_the_control_actions(self, result):
        text = run_schedule_result(result, guard_config=GUARD).describe()
        assert "throttle(s)" in text
        assert "guard transition(s)" in text


class TestExecutorEdges:
    def test_empty_schedule_rejected(self, result, example_soc):
        simulator = ThermalSimulator(
            example_soc.floorplan,
            example_soc.package,
            example_soc.adjacency,
        )
        executor = ReactiveExecutor(
            VirtualSensor(simulator), ThermalGuard(GUARD)
        )
        # TestSchedule itself refuses to be empty, so fake the shape a
        # hostile caller could hand the executor directly.
        hollow = SimpleNamespace(soc=example_soc, sessions=[])
        with pytest.raises(ReactiveError, match="empty schedule"):
            executor.run(hollow)

    def test_impossible_thresholds_exhaust_the_pause_budget(self, result):
        # Critical below ambient: the die can never cool under it, so
        # the executor must give up instead of pausing forever.
        impossible = GuardConfig(elevated_c=10.0, critical_c=20.0)
        with pytest.raises(ReactiveError, match="pause budget|CRITICAL"):
            run_schedule_result(
                result,
                guard_config=impossible,
                config=ReactiveConfig(pause_s=0.05, max_pause_s=0.2),
            )
