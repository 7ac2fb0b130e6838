"""Integration tests for BatchRunner, including its JSONL archives."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.api import ScheduleRequest
from repro.core.safety import audit_schedule
from repro.core.serialize import load_jsonl
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.engine.backends import SerialBackend
from repro.engine.cache import ThermalModelCache
from repro.engine.runner import BatchRunner, load_batch_jsonl, save_batch_jsonl
from repro.engine.scenarios import FleetConfig, ScenarioSpec, generate_fleet
from repro.errors import SchedulingError
from repro.service.archive import outcome_from_record, outcome_record

GRID = ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=11)

#: Infeasible: a 2x2 grid core alone already runs hotter than 46 degC.
COLD = ScheduleRequest(scenario=GRID, tl_c=46.0, stcl=1e9)

#: A tiny pool so even small test fleets share floorplans.
TINY_POOL = FleetConfig(
    grid_dims=((2, 2),),
    slicing_blocks=(6,),
    n_floorplan_seeds=1,
    convection_pool=(0.45,),
    include_builtins=False,
)


def small_fleet(count: int, seed: int = 0) -> dict[str, ScheduleRequest]:
    return generate_fleet(count, seed=seed, config=TINY_POOL)


def run_one(request: ScheduleRequest, **runner_kwargs):
    """The outcome of *request* run as a one-job batch."""
    batch = BatchRunner(**runner_kwargs).run({"job": request})
    return batch["job"][1]


def records_of(jobs) -> list[dict]:
    """The archive records of job id -> (request, outcome), in order."""
    return [outcome_record(request, outcome) for request, outcome in jobs.values()]


class TestOneJob:
    def test_successful_job(self):
        outcome = run_one(
            ScheduleRequest(scenario=GRID, tl_headroom=1.2, stcl_headroom=1.6)
        )
        assert outcome.ok
        assert outcome.report is not None
        assert outcome.report.max_temperature_c < outcome.report.tl_c
        assert outcome.steady_solves > 0
        assert outcome.elapsed_s > 0.0
        assert not outcome.cache_hit

    def test_schedule_is_independently_safe(self):
        report = run_one(
            ScheduleRequest(scenario=GRID, tl_headroom=1.2, stcl_headroom=1.6)
        ).report
        audit = audit_schedule(report.schedule, limit_c=report.tl_c)
        assert audit.is_safe

    def test_infeasible_scenario_becomes_error_outcome(self):
        outcome = run_one(COLD)
        assert outcome.status == "error"
        assert "CoreThermalViolationError" in outcome.error
        assert outcome.error_type == "CoreThermalViolationError"
        assert outcome.report is None
        # The failure happened after phase A: its solves must be charged.
        assert outcome.steady_solves > 0

    def test_cache_reuse_across_jobs(self):
        cache = ThermalModelCache()
        request = ScheduleRequest(scenario=GRID, tl_headroom=1.2, stcl_headroom=1.6)
        batch = BatchRunner(cache=cache).run({"one": request, "two": request})
        assert not batch["one"][1].cache_hit
        assert batch["two"][1].cache_hit
        assert cache.stats.hits == 1

    def test_stcl_optional_for_non_stc_solvers(self):
        outcome = run_one(ScheduleRequest(scenario=GRID, tl_c=150.0, solver="sequential"))
        assert outcome.ok
        assert math.isnan(outcome.report.stcl)
        # The same job through the thermal-aware default still needs one.
        missing = run_one(ScheduleRequest(scenario=GRID, tl_c=150.0))
        assert missing.status == "error"
        assert "needs an STCL" in missing.error

    def test_bad_param_value_becomes_error_outcome(self):
        outcome = run_one(
            ScheduleRequest(
                scenario=GRID,
                tl_c=150.0,
                solver="power_constrained",
                params={"power_limit_w": "not-a-number"},
            )
        )
        assert outcome.status == "error"
        assert "rejected params" in outcome.error


class TestResolveLimits:
    """Headroom resolution happens in the workbench the job dispatches to."""

    def test_absolute_limits_pass_through(self):
        report = run_one(ScheduleRequest(scenario=GRID, tl_c=123.0, stcl=45.0)).report
        assert (report.tl_c, report.stcl) == (123.0, 45.0)

    def test_headrooms_scale_the_scenario_regime(self):
        from repro.thermal.simulator import ThermalSimulator

        report = run_one(
            ScheduleRequest(scenario=GRID, tl_headroom=1.5, stcl_headroom=2.0)
        ).report
        soc = GRID.build_soc()
        simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        ambient = soc.package.ambient_c
        peak = max(
            simulator.steady_state({n: soc[n].test_power_w}).temperature_c(n)
            for n in soc.core_names
        )
        assert report.tl_c == pytest.approx(ambient + 1.5 * (peak - ambient))
        model = SessionThermalModel(soc, SessionModelConfig())
        worst = max(
            model.session_thermal_characteristic([n]) for n in soc.core_names
        )
        assert report.stcl == pytest.approx(2.0 * worst)

    def test_infinite_singleton_stc_reported_clearly(self):
        from repro.api import Workbench
        from repro.errors import RequestError
        from repro.soc.library import hypothetical7_soc

        # Scenario-described hypothetical7 jobs auto-enable the vertical
        # path; only a prebuilt non-tiling SoC can still hit this.
        with pytest.raises(RequestError, match="include_vertical"):
            Workbench().solve_soc(
                hypothetical7_soc(), tl_c=150.0, stcl_headroom=1.5
            )


class TestBatchRunner:
    def test_serial_fleet_all_ok(self):
        batch = BatchRunner(backend="serial").run(small_fleet(6))
        assert batch.n_jobs == 6
        assert len(batch.ok) == 6
        assert batch.failed == {}
        assert batch.backend == "serial"
        assert batch.wall_s > 0.0
        assert batch.total_length_s > 0.0
        assert batch.total_steady_solves > 0

    def test_shared_floorplans_hit_the_cache(self):
        batch = BatchRunner(backend="serial").run(small_fleet(6))
        # 2 distinct (floorplan, package) pairs in TINY_POOL -> 4+ hits.
        assert batch.cache_hits >= 4
        assert batch.cache_hit_rate >= 4 / 6
        assert batch.cache_stats is not None
        assert batch.cache_stats.hits == batch.cache_hits

    def test_cache_can_be_disabled(self):
        batch = BatchRunner(backend="serial", use_cache=False).run(small_fleet(4))
        assert batch.cache_hits == 0
        assert batch.cache_stats is None

    def test_cache_can_be_disabled_on_process_backend(self):
        batch = BatchRunner(
            backend="process", max_workers=2, use_cache=False
        ).run(small_fleet(4))
        assert batch.cache_hits == 0

    def test_backend_instance_accepted(self):
        batch = BatchRunner(backend=SerialBackend()).run(small_fleet(2))
        assert batch.backend == "serial"
        assert len(batch.ok) == 2

    def test_batch_result_is_iterable(self):
        fleet = small_fleet(3)
        batch = BatchRunner().run(fleet)
        assert len(batch) == 3
        assert list(batch) == list(fleet)
        assert [request for request, _ in batch.results.values()] == list(
            fleet.values()
        )

    def test_thread_backend_matches_serial(self):
        fleet = small_fleet(6)
        serial = BatchRunner(backend="serial").run(fleet)
        threaded = BatchRunner(backend="thread", max_workers=2).run(fleet)
        assert list(serial) == list(threaded)
        for job_id in fleet:
            a, b = serial[job_id][1].report, threaded[job_id][1].report
            assert a.length_s == b.length_s
            assert [s.cores for s in a.schedule] == [s.cores for s in b.schedule]

    def test_process_backend_matches_serial(self):
        fleet = small_fleet(4)
        serial = BatchRunner(backend="serial").run(fleet)
        processed = BatchRunner(backend="process", max_workers=2).run(fleet)
        for job_id in fleet:
            assert (
                serial[job_id][1].report.length_s
                == processed[job_id][1].report.length_s
            )

    def test_lookup_by_job_id(self):
        fleet = small_fleet(3)
        batch = BatchRunner().run(fleet)
        job_id = list(fleet)[1]
        assert batch[job_id][0] == fleet[job_id]
        with pytest.raises(SchedulingError, match="no job"):
            batch["ghost"]

    def test_describe_surfaces_effort_and_cache(self):
        text = BatchRunner().run(small_fleet(4)).describe(limit=2)
        assert "simulation effort" in text
        assert "steady-state solves" in text
        assert "model cache" in text
        assert "cache miss" in text
        assert "... 2 more jobs" in text

    def test_errors_do_not_kill_the_batch(self):
        jobs = {**small_fleet(2), "cold": COLD}
        batch = BatchRunner().run(jobs)
        assert len(batch.ok) == 2
        assert list(batch.failed) == ["cold"]
        assert "cold: ERROR: CoreThermalViolationError" in batch.describe(limit=1)


class TestJsonlArchive:
    def test_round_trip_is_field_for_field(self, tmp_path):
        """run -> dump -> load gives the same jobs, record for record."""
        path = tmp_path / "fleet.jsonl"
        batch = BatchRunner().run({**small_fleet(4), "cold": COLD}, jsonl_path=path)
        loaded = load_batch_jsonl(path)
        assert list(loaded) == list(batch.results)
        assert records_of(loaded) == records_of(batch.results)

    def test_round_trip_preserves_audit_verdict(self, tmp_path):
        """schedule -> dump -> load -> identical audit verdict."""
        path = tmp_path / "fleet.jsonl"
        batch = BatchRunner().run(small_fleet(5), jsonl_path=path)
        loaded = load_batch_jsonl(path)
        assert len(loaded) == 5
        for job_id, (request, outcome) in loaded.items():
            original = batch[job_id][1].report
            assert request == batch[job_id][0]
            original_audit = audit_schedule(original.schedule, limit_c=original.tl_c)
            restored_audit = audit_schedule(
                outcome.report.schedule, limit_c=outcome.report.tl_c
            )
            assert restored_audit.is_safe == original_audit.is_safe
            assert restored_audit.max_temperature_c == pytest.approx(
                original_audit.max_temperature_c
            )

    def test_jsonl_is_one_outcome_record_per_line(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        batch = BatchRunner().run(small_fleet(3))
        assert save_batch_jsonl(batch.results, path) == 3
        records = load_jsonl(path)
        assert [r["job_id"] for r in records] == list(batch)
        for record in records:
            request, outcome = batch[record.pop("job_id")]
            assert record == outcome_record(request, outcome)

    def test_corrupt_record_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n{broken\n')
        with pytest.raises(SchedulingError, match="bad.jsonl:2"):
            load_jsonl(path)

    def test_malformed_record_reported_with_path_and_line(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        BatchRunner().run(small_fleet(2), jsonl_path=path)
        lines = path.read_text().splitlines()
        broken = json.loads(lines[1])
        del broken["request"]
        path.write_text(lines[0] + "\n" + json.dumps(broken) + "\n")
        with pytest.raises(SchedulingError, match=r"fleet\.jsonl:2: malformed"):
            load_batch_jsonl(path)

    def test_duplicate_job_ids_rejected_on_load(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        BatchRunner().run(small_fleet(1), jsonl_path=path)
        path.write_text(path.read_text() * 2)  # two archives concatenated
        with pytest.raises(SchedulingError, match=r":2: duplicate job id"):
            load_batch_jsonl(path)

    def test_legacy_job_record_points_to_repro_report(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"schema_version": 2, "spec": {}, "status": "ok"}) + "\n"
        )
        with pytest.raises(SchedulingError, match="old.jsonl:1.*repro report"):
            load_batch_jsonl(path)

    def test_ok_record_without_report_rejected(self):
        request = ScheduleRequest(scenario=GRID, tl_headroom=1.2, stcl_headroom=1.6)
        record = outcome_record(request, run_one(request))
        record["report"] = None
        with pytest.raises(SchedulingError, match="status 'ok' without a report"):
            outcome_from_record(record)

    def test_error_records_survive_the_archive(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        BatchRunner().run({"cold": COLD}, jsonl_path=path)
        request, outcome = load_batch_jsonl(path)["cold"]
        assert request == COLD
        assert outcome.status == "error"
        assert outcome.report is None
        assert "CoreThermalViolationError" in outcome.error
        assert outcome.steady_solves > 0

    def test_archive_is_strict_json(self, tmp_path):
        """Error records must not leak bare NaN tokens into the JSONL."""
        path = tmp_path / "fleet.jsonl"
        jobs = {
            "cold": COLD,
            "seq": ScheduleRequest(scenario=GRID, tl_c=150.0, solver="sequential"),
        }
        BatchRunner().run(jobs, jsonl_path=path)
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda token: pytest.fail(
                f"non-strict JSON token {token!r} in archive"
            ))


class TestEmptyBatchValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(SchedulingError, match="no jobs"):
            BatchRunner().run({})

    def test_generate_fleet_rejects_nonpositive_count(self):
        with pytest.raises(SchedulingError, match="fleet size"):
            generate_fleet(0)
        with pytest.raises(SchedulingError, match="fleet size"):
            generate_fleet(-3)


class TestSolverDispatch:
    """Fleets dispatch per-job through the solver registry."""

    def test_power_constrained_fleet_end_to_end(self, tmp_path):
        fleet = generate_fleet(4, seed=0, config=TINY_POOL, solver="power_constrained")
        path = tmp_path / "pc.jsonl"
        batch = BatchRunner(backend="serial").run(fleet, jsonl_path=path)
        assert len(batch.ok) == 4
        for record in load_jsonl(path):
            assert record["solver"] == "power_constrained"
        loaded = load_batch_jsonl(path)
        assert all(r.solver == "power_constrained" for r, _ in loaded.values())

    def test_sequential_fleet_end_to_end(self, tmp_path):
        fleet = generate_fleet(3, seed=1, config=TINY_POOL, solver="sequential")
        path = tmp_path / "seq.jsonl"
        batch = BatchRunner(backend="serial").run(fleet, jsonl_path=path)
        assert len(batch.ok) == 3
        for _, outcome in batch.results.values():
            assert all(len(s) == 1 for s in outcome.report.schedule)
        assert {r["solver"] for r in load_jsonl(path)} == {"sequential"}

    def test_mixed_solver_batch(self):
        first, second = small_fleet(2).values()
        mixed = {
            "ta": first,
            "pc": dataclasses.replace(second, solver="power_constrained"),
        }
        batch = BatchRunner(backend="serial").run(mixed)
        assert len(batch.ok) == 2
        assert batch["pc"][1].report.solver == "power_constrained"
        assert batch["pc"][1].report.result.effort_s == 0.0

    def test_unknown_solver_becomes_error_outcome(self):
        outcome = run_one(
            ScheduleRequest(
                scenario=GRID,
                tl_headroom=1.2,
                stcl_headroom=1.6,
                solver="imaginary",
            )
        )
        assert outcome.status == "error"
        assert "unknown solver" in outcome.error

    def test_solver_comparison_same_fleet(self):
        """The ROADMAP's head-to-head: one fleet, two solvers, comparable."""
        thermal = BatchRunner().run(small_fleet(3))
        blind = BatchRunner().run(
            generate_fleet(3, seed=0, config=TINY_POOL, solver="sequential")
        )
        assert list(thermal) == list(blind)
        assert [r.scenario for r, _ in thermal.results.values()] == [
            r.scenario for r, _ in blind.results.values()
        ]
        # Sequential schedules are never shorter than packed ones.
        assert blind.total_length_s >= thermal.total_length_s


class TestFleetSurvivesBuggySolvers:
    def test_non_repro_exception_becomes_error_outcome(self):
        from repro.api import Solver, register_solver
        from repro.api.solvers import _REGISTRY

        @register_solver
        class ExplodingSolver(Solver):
            name = "test-exploding"

            def solve(self, context, params):
                # Spend effort on the shared-cache simulator first, so
                # the error outcome's accounting can be asserted.
                context.simulator.steady_state(
                    {next(iter(context.soc.core_names)): 1.0}
                )
                raise RuntimeError("third-party bug")

        try:
            first, second = small_fleet(2).values()
            jobs = {
                "fine": first,
                "boom": dataclasses.replace(second, solver="test-exploding"),
            }
            batch = BatchRunner(backend="serial").run(jobs)
            assert len(batch.ok) == 1
            boom = batch["boom"][1]
            assert boom.status == "error"
            assert "RuntimeError" in boom.error
            # Effort spent before the crash is still charged to the outcome.
            assert boom.steady_solves > 0
        finally:
            _REGISTRY.pop("test-exploding", None)


class TestArchiveParentDirectories:
    """Archiving to a fresh results directory must create it, not die."""

    def test_save_batch_jsonl_creates_missing_parents(self, tmp_path):
        batch = BatchRunner().run(small_fleet(2))
        target = tmp_path / "results" / "deep" / "fleet.jsonl"
        assert not target.parent.exists()
        count = save_batch_jsonl(batch.results, target)
        assert count == 2
        assert len(load_batch_jsonl(target)) == 2

    def test_save_batch_jsonl_into_existing_dir_still_works(self, tmp_path):
        batch = BatchRunner().run(small_fleet(1))
        target = tmp_path / "fleet.jsonl"
        assert save_batch_jsonl(batch.results, target) == 1
        # Overwriting in place is the idempotent re-run path.
        assert save_batch_jsonl(batch.results, target) == 1
        assert len(load_jsonl(target)) == 1

    def test_runner_jsonl_path_creates_missing_parents(self, tmp_path):
        target = tmp_path / "fresh" / "fleet.jsonl"
        BatchRunner().run(small_fleet(1), jsonl_path=target)
        assert target.exists()
