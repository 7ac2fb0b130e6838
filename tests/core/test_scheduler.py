"""Unit + integration tests for Algorithm 1 (the thermal-aware scheduler)."""

from __future__ import annotations

import math

import pytest

from repro.core.scheduler import (
    SchedulerConfig,
    ThermalAwareScheduler,
)
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.errors import (
    CoreThermalViolationError,
    ScheduleInfeasibleError,
    SchedulingError,
)
from repro.floorplan.generator import grid_floorplan
from repro.power.generator import uniform_test_power_profile
from repro.soc.library import ALPHA15_STC_SCALE, alpha15_soc
from repro.soc.system import SocUnderTest
from repro.thermal.simulator import ThermalSimulator


def small_soc(power_w: float = 10.0) -> SocUnderTest:
    plan = grid_floorplan(2, 2)
    return SocUnderTest.from_profile(
        plan, uniform_test_power_profile(plan, power_w)
    )


class TestConfigValidation:
    def test_bad_weight_factor_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(weight_factor=0.5)

    def test_bad_max_discards_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(max_discards=0)

    def test_bad_stcl_rejected(self):
        scheduler = ThermalAwareScheduler(small_soc())
        with pytest.raises(SchedulingError):
            scheduler.schedule(tl_c=150.0, stcl=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["tl_c", "stcl"])
    def test_non_finite_limits_rejected(self, field, value):
        scheduler = ThermalAwareScheduler(small_soc())
        limits = {"tl_c": 150.0, "stcl": 10.0, field: value}
        with pytest.raises(SchedulingError, match="finite"):
            scheduler.schedule(**limits)


class TestPhaseA:
    def test_bcmt_reported_for_every_core(self):
        soc = small_soc()
        scheduler = ThermalAwareScheduler(soc)
        bcmt, effort = scheduler.best_case_max_temperatures()
        assert set(bcmt) == set(soc.core_names)
        assert effort == pytest.approx(4.0)  # 4 cores x 1 s

    def test_individually_unsafe_core_raises(self):
        soc = small_soc(power_w=500.0)  # absurd power: hot even alone
        scheduler = ThermalAwareScheduler(soc)
        with pytest.raises(CoreThermalViolationError) as excinfo:
            scheduler.schedule(tl_c=145.0, stcl=100.0)
        err = excinfo.value
        assert err.limit_c == 145.0
        assert err.max_temperature_c > 145.0
        assert err.core_name in soc.core_names


class TestScheduleValidity:
    """Every schedule must be a partition and thermally safe."""

    @pytest.fixture(scope="class")
    def result(self):
        soc = small_soc(power_w=30.0)
        return ThermalAwareScheduler(soc).schedule(tl_c=120.0, stcl=50.0), soc

    def test_partition(self, result):
        schedule_result, soc = result
        tested = [c for s in schedule_result.schedule for c in s.cores]
        assert sorted(tested) == sorted(soc.core_names)

    def test_all_sessions_below_tl(self, result):
        schedule_result, _ = result
        for session in schedule_result.schedule:
            assert session.max_temperature_c < 120.0

    def test_metrics_consistency(self, result):
        schedule_result, _ = result
        assert schedule_result.length_s == schedule_result.schedule.length_s
        assert schedule_result.effort_s >= schedule_result.length_s
        discarded_time = sum(
            d.duration_s for d in schedule_result.discarded
        )
        assert schedule_result.effort_s == pytest.approx(
            schedule_result.length_s + discarded_time
        )

    def test_max_temperature_matches_sessions(self, result):
        schedule_result, _ = result
        assert schedule_result.max_temperature_c == pytest.approx(
            max(s.max_temperature_c for s in schedule_result.schedule)
        )


class TestEffortAccounting:
    def test_first_attempt_success_means_effort_equals_length(self):
        """The paper's observation for tight STCL."""
        soc = small_soc(power_w=10.0)  # cool: everything is safe
        result = ThermalAwareScheduler(soc).schedule(tl_c=150.0, stcl=1e6)
        assert result.n_discarded == 0
        assert result.effort_s == pytest.approx(result.length_s)

    def test_discards_add_effort(self):
        """Power high enough that the full-concurrency first attempt
        violates TL: effort must exceed length."""
        soc = small_soc(power_w=60.0)
        result = ThermalAwareScheduler(soc).schedule(tl_c=120.0, stcl=1e6)
        assert result.n_discarded > 0
        assert result.effort_s > result.length_s

    def test_phase_a_effort_opt_in(self):
        soc = small_soc(power_w=10.0)
        base = ThermalAwareScheduler(soc).schedule(tl_c=150.0, stcl=1e6)
        counted = ThermalAwareScheduler(
            soc, config=SchedulerConfig(count_phase_a_effort=True)
        ).schedule(tl_c=150.0, stcl=1e6)
        assert counted.effort_s == pytest.approx(base.effort_s + 4.0)


class TestWeightFeedback:
    def test_violators_get_penalised(self):
        soc = small_soc(power_w=60.0)
        result = ThermalAwareScheduler(soc).schedule(tl_c=120.0, stcl=1e6)
        # Some weight must have risen above 1.
        assert max(result.weights.values()) > 1.0
        # The violators recorded in discards are the penalised cores.
        penalised = {c for d in result.discarded for c in d.violators}
        raised = {c for c, w in result.weights.items() if w > 1.0}
        assert penalised == raised

    def test_no_feedback_ablation_hits_discard_cap(self):
        """With weight_factor=1.0 and no STC pressure, the same too-hot
        session is proposed forever; the safety cap must fire."""
        soc = small_soc(power_w=60.0)
        scheduler = ThermalAwareScheduler(
            soc, config=SchedulerConfig(weight_factor=1.0, max_discards=25)
        )
        with pytest.raises(ScheduleInfeasibleError, match="max_discards"):
            scheduler.schedule(tl_c=120.0, stcl=1e6)

    def test_tighter_stcl_never_needs_more_discards_here(self):
        """On this symmetric SoC, a tight STCL prevents the oversized
        first attempts entirely."""
        soc = small_soc(power_w=60.0)
        model = SessionThermalModel(soc, SessionModelConfig())
        singleton = model.session_thermal_characteristic([soc.core_names[0]])
        tight = ThermalAwareScheduler(soc).schedule(
            tl_c=120.0, stcl=singleton * 1.01
        )
        assert tight.n_discarded == 0
        assert tight.effort_s == pytest.approx(tight.length_s)


class TestStuckHandling:
    def test_error_mode_raises_when_nothing_fits(self):
        soc = small_soc(power_w=10.0)
        scheduler = ThermalAwareScheduler(
            soc, config=SchedulerConfig(on_stuck="error")
        )
        # STCL below every singleton STC: nothing can seed a session.
        with pytest.raises(ScheduleInfeasibleError, match="fits"):
            scheduler.schedule(tl_c=150.0, stcl=1e-9)

    def test_force_mode_degrades_to_sequential(self):
        soc = small_soc(power_w=10.0)
        result = ThermalAwareScheduler(soc).schedule(tl_c=150.0, stcl=1e-9)
        # Every session is a forced singleton -> sequential schedule.
        assert result.n_sessions == len(soc)
        assert result.forced_singletons == len(soc)
        assert all(len(s) == 1 for s in result.schedule)


class TestCandidateOrders:
    @pytest.mark.parametrize(
        "order", ["input", "power_desc", "area_asc", "density_desc"]
    )
    def test_all_orders_produce_valid_schedules(self, order):
        soc = small_soc(power_w=30.0)
        result = ThermalAwareScheduler(
            soc, config=SchedulerConfig(candidate_order=order)
        ).schedule(tl_c=120.0, stcl=50.0)
        tested = sorted(c for s in result.schedule for c in s.cores)
        assert tested == sorted(soc.core_names)

    def test_unknown_order_rejected(self):
        soc = small_soc()
        scheduler = ThermalAwareScheduler(
            soc, config=SchedulerConfig(candidate_order="input")
        )
        # Bypass dataclass validation to hit the runtime guard.
        object.__setattr__(scheduler.config, "candidate_order", "bogus")
        with pytest.raises(SchedulingError, match="unknown candidate order"):
            scheduler.schedule(tl_c=150.0, stcl=10.0)


class TestSessionGrowthSemantics:
    def test_grow_respects_stcl(self):
        """Every committed session satisfies STC <= STCL under the
        weights in force when it was built (re-check with final weights
        for sessions committed before any later penalisation)."""
        soc = small_soc(power_w=30.0)
        model = SessionThermalModel(soc, SessionModelConfig())
        scheduler = ThermalAwareScheduler(soc, session_model=model)
        stcl = 2.0 * model.session_thermal_characteristic([soc.core_names[0]])
        result = scheduler.schedule(tl_c=120.0, stcl=stcl)
        if result.n_discarded == 0 and result.forced_singletons == 0:
            # Weights never moved: the committed sessions must satisfy
            # the STC limit exactly as built.
            for session in result.schedule:
                assert model.session_thermal_characteristic(
                    list(session.cores)
                ) <= stcl + 1e-9


class TestAlpha15Integration:
    """Full-platform runs on the calibrated SoC (the paper's system)."""

    def test_paper_corner_tight(self, alpha_scheduler):
        result = alpha_scheduler.schedule(tl_c=165.0, stcl=20.0)
        assert result.max_temperature_c < 165.0
        assert result.effort_s == pytest.approx(result.length_s)
        assert result.forced_singletons == 0

    def test_paper_corner_loose(self, alpha_scheduler):
        result = alpha_scheduler.schedule(tl_c=185.0, stcl=100.0)
        assert result.max_temperature_c < 185.0
        # Loose constraints: concurrency high, schedule short.
        assert result.n_sessions <= 4

    def test_independent_audit_confirms_safety(self, alpha_scheduler, alpha_soc):
        from repro.core.safety import audit_schedule

        result = alpha_scheduler.schedule(tl_c=155.0, stcl=60.0)
        audit = audit_schedule(result.schedule, limit_c=155.0)
        assert audit.is_safe
        assert audit.max_temperature_c == pytest.approx(
            result.max_temperature_c
        )

    def test_describe_runs(self, alpha_scheduler):
        result = alpha_scheduler.schedule(tl_c=175.0, stcl=40.0)
        text = result.describe()
        assert "TL=175" in text and "STCL=40" in text
