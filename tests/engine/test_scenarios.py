"""Unit tests for scenario specs and fleet generation."""

from __future__ import annotations

import pickle

import pytest

from repro.engine.scenarios import (
    BUILTIN_KINDS,
    FleetConfig,
    ScenarioSpec,
    generate_fleet,
    generate_scenarios,
)
from repro.errors import SchedulingError


class TestScenarioSpec:
    def test_grid_builds_matching_soc(self):
        spec = ScenarioSpec(kind="grid", rows=2, cols=3, power_seed=5)
        soc = spec.build_soc()
        assert len(soc) == 6
        assert soc.name == spec.name

    def test_slicing_builds(self):
        spec = ScenarioSpec(kind="slicing", n_blocks=7, floorplan_seed=1)
        soc = spec.build_soc()
        assert len(soc) == 7

    @pytest.mark.parametrize("kind", BUILTIN_KINDS)
    def test_builtin_kinds_build(self, kind):
        soc = ScenarioSpec(kind=kind, power_seed=2005).build_soc()
        assert len(soc) >= 6

    def test_package_heterogeneity_applied(self):
        spec = ScenarioSpec(kind="grid", convection_resistance=0.7, ambient_c=30.0)
        package = spec.build_package()
        assert package.convection_resistance == 0.7
        assert package.ambient_c == 30.0
        assert spec.build_soc().package.convection_resistance == 0.7

    def test_power_scale_scales_profile(self):
        base = ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=3)
        scaled = ScenarioSpec(
            kind="grid", rows=2, cols=2, power_seed=3, power_scale=2.0
        )
        for name in base.build_soc().core_names:
            assert scaled.build_soc()[name].test_power_w == pytest.approx(
                2.0 * base.build_soc()[name].test_power_w
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchedulingError, match="kind"):
            ScenarioSpec(kind="torus")

    def test_bad_power_scale_rejected(self):
        with pytest.raises(SchedulingError, match="power_scale"):
            ScenarioSpec(power_scale=0.0)

    def test_spec_is_hashable_and_picklable(self):
        spec = ScenarioSpec(kind="slicing", n_blocks=6)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_vertical_path_only_for_hypothetical7(self):
        assert ScenarioSpec(kind="hypothetical7").needs_vertical_path()
        assert not ScenarioSpec(kind="grid").needs_vertical_path()
        assert not ScenarioSpec(kind="alpha15").needs_vertical_path()

    def test_alpha15_uses_calibrated_stc_scale(self):
        assert ScenarioSpec(kind="alpha15").default_stc_scale() == 210.0
        assert ScenarioSpec(kind="grid").default_stc_scale() == 1.0


class TestGenerateScenarios:
    def test_deterministic(self):
        assert generate_scenarios(20, seed=7) == generate_scenarios(20, seed=7)

    def test_seed_changes_fleet(self):
        assert generate_scenarios(20, seed=1) != generate_scenarios(20, seed=2)

    def test_count_respected(self):
        assert len(generate_scenarios(37, seed=0)) == 37

    def test_builtins_lead_the_fleet(self):
        fleet = generate_scenarios(5, seed=0)
        assert fleet[0].kind == "alpha15"
        assert fleet[1].kind == "hypothetical7"
        assert fleet[2].kind == "worked_example6"

    def test_builtins_can_be_excluded(self):
        fleet = generate_scenarios(
            10, seed=0, config=FleetConfig(include_builtins=False)
        )
        assert all(s.kind in ("grid", "slicing") for s in fleet)

    def test_small_count_truncates_builtins(self):
        assert len(generate_scenarios(2, seed=0)) == 2

    def test_diversity(self):
        fleet = generate_scenarios(40, seed=0)
        kinds = {s.kind for s in fleet}
        assert "grid" in kinds and "slicing" in kinds
        assert len({s.convection_resistance for s in fleet}) > 1

    def test_bad_count_rejected(self):
        with pytest.raises(SchedulingError, match="fleet size"):
            generate_scenarios(0)

    def test_bad_config_rejected(self):
        with pytest.raises(SchedulingError, match="slicing_fraction"):
            FleetConfig(slicing_fraction=1.5)
        with pytest.raises(SchedulingError, match="tl_headroom_range"):
            FleetConfig(tl_headroom_range=(0.9, 1.2))


class TestGenerateFleet:
    def test_jobs_have_unique_ids_and_headroom_limits(self):
        jobs = generate_fleet(15, seed=0)
        assert len(jobs) == 15
        for index, (job_id, job) in enumerate(jobs.items()):
            assert job_id == f"job-{index:05d}-{job.scenario.name}"
            assert job.tl_headroom is not None and job.tl_headroom > 1.0
            assert job.stcl_headroom is not None and job.stcl_headroom > 1.0

    def test_jobs_ask_with_the_solver_defaults(self):
        """No spelled-out scheduler knobs: the solver's defaults apply."""
        jobs = generate_fleet(3, seed=0, solver_params={"max_discards": 5})
        assert all(j.params == {"max_discards": 5} for j in jobs.values())
        assert all(j.solver == "thermal_aware" for j in jobs.values())

    def test_stcl_only_for_solvers_that_use_it(self):
        jobs = generate_fleet(3, seed=0, solver="sequential")
        assert all(not j.has_stcl for j in jobs.values())

    def test_hypothetical7_gets_vertical_path(self):
        jobs = generate_fleet(3, seed=0)
        by_kind = {j.scenario.kind: j for j in jobs.values()}
        assert by_kind["hypothetical7"].include_vertical
        assert not by_kind["alpha15"].include_vertical

    def test_deterministic(self):
        assert generate_fleet(12, seed=4) == generate_fleet(12, seed=4)
