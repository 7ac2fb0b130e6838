"""Unit tests for job specs/results and their dict round-trips."""

from __future__ import annotations

import math

import pytest

from repro.core.session_model import SessionThermalModel
from repro.engine.jobs import (
    JobResult,
    JobSpec,
    job_result_from_dict,
    job_result_to_dict,
    job_spec_from_dict,
    job_spec_to_dict,
)
from repro.engine.runner import run_job
from repro.engine.scenarios import ScenarioSpec
from repro.errors import SchedulingError

GRID = ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=11)


class TestJobSpecValidation:
    def test_requires_exactly_one_tl_form(self):
        with pytest.raises(SchedulingError, match="tl_c / tl_headroom"):
            JobSpec(job_id="j", scenario=GRID, stcl=10.0)
        with pytest.raises(SchedulingError, match="tl_c / tl_headroom"):
            JobSpec(
                job_id="j", scenario=GRID, tl_c=100.0, tl_headroom=1.2, stcl=10.0
            )

    def test_requires_exactly_one_stcl_form(self):
        with pytest.raises(SchedulingError, match="stcl / stcl_headroom"):
            JobSpec(job_id="j", scenario=GRID, tl_c=100.0)

    def test_tl_headroom_must_exceed_one(self):
        with pytest.raises(SchedulingError, match="tl_headroom"):
            JobSpec(job_id="j", scenario=GRID, tl_headroom=0.9, stcl=10.0)

    def test_non_finite_limits_rejected(self, non_finite_limits):
        with pytest.raises(SchedulingError, match="must be a finite number"):
            JobSpec(job_id="j", scenario=GRID, **non_finite_limits)

    def test_to_request_passes_stc_scale_override(self):
        override = JobSpec(
            job_id="j2", scenario=GRID, tl_c=160.0, stcl=60.0, stc_scale=5.0
        )
        assert override.to_request().stc_scale == 5.0
        default = JobSpec(job_id="j", scenario=GRID, tl_c=160.0, stcl=60.0)
        assert default.to_request().stc_scale is None  # scenario default applies


class TestResolveLimits:
    """Headroom resolution happens in the workbench the job dispatches to."""

    def test_absolute_limits_pass_through(self):
        record = run_job(
            JobSpec(job_id="j", scenario=GRID, tl_c=123.0, stcl=45.0)
        )
        assert (record.tl_c, record.stcl) == (123.0, 45.0)

    def test_headrooms_scale_the_scenario_regime(self):
        from repro.core.session_model import SessionModelConfig
        from repro.thermal.simulator import ThermalSimulator

        record = run_job(
            JobSpec(
                job_id="j", scenario=GRID, tl_headroom=1.5, stcl_headroom=2.0
            )
        )
        soc = GRID.build_soc()
        simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        ambient = soc.package.ambient_c
        peak = max(
            simulator.steady_state({n: soc[n].test_power_w}).temperature_c(n)
            for n in soc.core_names
        )
        assert record.tl_c == pytest.approx(ambient + 1.5 * (peak - ambient))
        model = SessionThermalModel(soc, SessionModelConfig())
        worst = max(
            model.session_thermal_characteristic([n]) for n in soc.core_names
        )
        assert record.stcl == pytest.approx(2.0 * worst)

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


class TestJobResultValidation:
    def test_ok_requires_result(self):
        spec = JobSpec(job_id="j", scenario=GRID, tl_c=120.0, stcl=10.0)
        with pytest.raises(SchedulingError, match="requires a result"):
            JobResult(
                spec=spec,
                status="ok",
                tl_c=120.0,
                stcl=10.0,
                result=None,
                error=None,
                elapsed_s=0.1,
            )

    def test_error_requires_message(self):
        spec = JobSpec(job_id="j", scenario=GRID, tl_c=120.0, stcl=10.0)
        with pytest.raises(SchedulingError, match="requires an error"):
            JobResult(
                spec=spec,
                status="error",
                tl_c=math.nan,
                stcl=math.nan,
                result=None,
                error=None,
                elapsed_s=0.1,
            )


class TestDictRoundTrip:
    def test_spec_round_trip(self):
        spec = JobSpec(
            job_id="rt",
            scenario=ScenarioSpec(kind="slicing", n_blocks=6, floorplan_seed=2),
            tl_headroom=1.25,
            stcl_headroom=1.8,
            candidate_order="area_asc",
        )
        assert job_spec_from_dict(job_spec_to_dict(spec)) == spec

    def test_spec_schema_version_checked(self):
        data = job_spec_to_dict(
            JobSpec(job_id="j", scenario=GRID, tl_c=1.5, stcl=1.0)
        )
        data["schema_version"] = 99
        with pytest.raises(SchedulingError, match="schema version"):
            job_spec_from_dict(data)

    def test_result_round_trip_preserves_metrics(self):
        spec = JobSpec(
            job_id="rt", scenario=GRID, tl_headroom=1.2, stcl_headroom=1.6
        )
        original = run_job(spec)
        assert original.ok
        restored = job_result_from_dict(job_result_to_dict(original))
        assert restored.spec == spec
        assert restored.status == "ok"
        assert restored.tl_c == pytest.approx(original.tl_c)
        assert restored.stcl == pytest.approx(original.stcl)
        assert restored.steady_solves == original.steady_solves
        assert restored.result is not None
        assert restored.result.length_s == original.result.length_s
        assert restored.result.steady_solves == original.result.steady_solves

    def test_error_result_round_trips_without_soc_build(self):
        spec = JobSpec(job_id="err", scenario=GRID, tl_c=46.0, stcl=1e9)
        original = run_job(spec)
        assert not original.ok
        restored = job_result_from_dict(job_result_to_dict(original))
        assert restored.status == "error"
        assert restored.error is not None
        assert "CoreThermalViolationError" in restored.error
        assert math.isnan(restored.length_s)

    def test_describe_mentions_cache_state(self):
        spec = JobSpec(
            job_id="d", scenario=GRID, tl_headroom=1.2, stcl_headroom=1.6
        )
        assert "cache miss" in run_job(spec).describe()


class TestSolverField:
    def test_defaults_to_thermal_aware(self):
        spec = JobSpec(job_id="j", scenario=GRID, tl_c=100.0, stcl=10.0)
        assert spec.solver == "thermal_aware"
        assert spec.solver_params == {}

    def test_solver_name_validated(self):
        with pytest.raises(SchedulingError, match="solver"):
            JobSpec(job_id="j", scenario=GRID, tl_c=100.0, stcl=10.0, solver="")

    def test_round_trips_through_dict(self):
        spec = JobSpec(
            job_id="j",
            scenario=GRID,
            tl_c=100.0,
            stcl=10.0,
            solver="power_constrained",
            solver_params={"power_limit_w": 45.0},
        )
        assert job_spec_from_dict(job_spec_to_dict(spec)) == spec

    def test_records_without_solver_key_load_with_default(self):
        """Archives written before the solver field existed still load."""
        data = job_spec_to_dict(
            JobSpec(job_id="old", scenario=GRID, tl_c=100.0, stcl=10.0)
        )
        del data["solver"]
        del data["solver_params"]
        data["schema_version"] = 1  # written by the previous release
        spec = job_spec_from_dict(data)
        assert spec.solver == "thermal_aware"
        assert spec.solver_params == {}

    def test_stcl_optional_for_non_stc_solvers(self):
        spec = JobSpec(
            job_id="seq", scenario=GRID, tl_c=150.0, solver="sequential"
        )
        record = run_job(spec)
        assert record.ok
        assert math.isnan(record.stcl)
        # The same job through the thermal-aware default still requires it.
        with pytest.raises(SchedulingError, match="stcl / stcl_headroom"):
            JobSpec(job_id="ta", scenario=GRID, tl_c=150.0)

    def test_bad_param_value_becomes_error_record(self):
        record = run_job(
            JobSpec(
                job_id="bad-value",
                scenario=GRID,
                tl_c=150.0,
                solver="power_constrained",
                solver_params={"power_limit_w": "not-a-number"},
            )
        )
        assert record.status == "error"
        assert "rejected params" in record.error

    def test_to_request_maps_knobs_for_thermal_aware(self):
        spec = JobSpec(
            job_id="j",
            scenario=GRID,
            tl_headroom=1.2,
            stcl_headroom=1.6,
            weight_factor=1.3,
            candidate_order="power_desc",
        )
        request = spec.to_request()
        assert request.solver == "thermal_aware"
        assert request.params["weight_factor"] == 1.3
        assert request.params["candidate_order"] == "power_desc"
        assert request.scenario == GRID

    def test_to_request_passes_only_solver_params_for_baselines(self):
        spec = JobSpec(
            job_id="j",
            scenario=GRID,
            tl_headroom=1.2,
            stcl_headroom=1.6,
            solver="power_constrained",
            solver_params={"power_limit_w": 45.0},
        )
        request = spec.to_request()
        assert request.params == {"power_limit_w": 45.0}


class TestJobSpecHashability:
    def test_specs_key_sets_and_dicts(self):
        a = JobSpec(job_id="j", scenario=GRID, tl_c=100.0, stcl=10.0)
        b = JobSpec(job_id="j", scenario=GRID, tl_c=100.0, stcl=10.0)
        assert len({a, b}) == 1
        c = JobSpec(
            job_id="j",
            scenario=GRID,
            tl_c=100.0,
            solver="power_constrained",
            solver_params={"power_limit_w": 45.0},
        )
        assert {c: "memo"}[c] == "memo"
