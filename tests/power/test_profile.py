"""Unit tests for power profiles."""

from __future__ import annotations

import math

import pytest

from repro.errors import PowerModelError
from repro.floorplan.generator import grid_floorplan
from repro.floorplan.library import alpha15, hypothetical7
from repro.power.generator import PowerGeneratorConfig, generate_power_profile
from repro.power.profile import CorePower, PowerProfile


def profile_ab() -> PowerProfile:
    return PowerProfile(
        [CorePower("a", 2.0, 8.0), CorePower("b", 1.0, 3.0)], name="ab"
    )


class TestCorePower:
    def test_multiplier(self):
        assert CorePower("x", 2.0, 8.0).test_multiplier == pytest.approx(4.0)

    def test_rejects_nonpositive_powers(self):
        with pytest.raises(PowerModelError):
            CorePower("x", 0.0, 1.0)
        with pytest.raises(PowerModelError):
            CorePower("x", 1.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True])
    def test_rejects_non_finite_and_boolean_powers(self, bad):
        with pytest.raises(PowerModelError, match="functional power"):
            CorePower("x", bad, 1.0)
        with pytest.raises(PowerModelError, match="test power"):
            CorePower("x", 1.0, bad)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, True])
    def test_scaled_rejects_bad_factors(self, bad):
        with pytest.raises(PowerModelError, match="scale factor"):
            profile_ab().scaled(bad)


class TestProfileBasics:
    def test_empty_rejected(self):
        with pytest.raises(PowerModelError):
            PowerProfile([])

    def test_duplicate_rejected(self):
        with pytest.raises(PowerModelError, match="duplicate"):
            PowerProfile([CorePower("a", 1.0, 2.0), CorePower("a", 1.0, 2.0)])

    def test_lookup(self):
        profile = profile_ab()
        assert profile["a"].test_w == 8.0
        assert "b" in profile
        assert len(profile) == 2
        with pytest.raises(PowerModelError):
            profile["zz"]

    def test_iteration_order(self):
        assert [c.name for c in profile_ab()] == ["a", "b"]


class TestDerivedMaps:
    def test_test_power_map_all(self):
        assert profile_ab().test_power_map() == {"a": 8.0, "b": 3.0}

    def test_test_power_map_subset(self):
        assert profile_ab().test_power_map(["b"]) == {"b": 3.0}

    def test_test_power_map_unknown_rejected(self):
        with pytest.raises(PowerModelError, match="unknown"):
            profile_ab().test_power_map(["zz"])

    def test_functional_map_and_total(self):
        profile = profile_ab()
        assert profile.functional_power_map() == {"a": 2.0, "b": 1.0}
        assert profile.total_test_power() == pytest.approx(11.0)
        assert profile.total_test_power(["a"]) == pytest.approx(8.0)


class TestFloorplanValidation:
    def test_matching_floorplan_accepted(self):
        plan = grid_floorplan(1, 2)
        profile = PowerProfile(
            [CorePower("C0_0", 1.0, 2.0), CorePower("C0_1", 1.0, 2.0)]
        )
        profile.validate_against(plan)  # should not raise
        densities = profile.test_power_densities(plan)
        assert set(densities) == {"C0_0", "C0_1"}

    def test_missing_block_rejected(self):
        plan = grid_floorplan(1, 2)
        profile = PowerProfile([CorePower("C0_0", 1.0, 2.0)])
        with pytest.raises(PowerModelError, match="missing"):
            profile.validate_against(plan)

    def test_extra_core_rejected(self):
        plan = grid_floorplan(1, 1)
        profile = PowerProfile(
            [CorePower("C0_0", 1.0, 2.0), CorePower("ghost", 1.0, 2.0)]
        )
        with pytest.raises(PowerModelError, match="extra"):
            profile.validate_against(plan)


class TestMultiplierRange:
    def test_in_range_passes(self):
        profile_ab().check_paper_multiplier_range()

    def test_out_of_range_rejected(self):
        profile = PowerProfile([CorePower("a", 1.0, 10.0)])  # 10x
        with pytest.raises(PowerModelError, match="multiplier"):
            profile.check_paper_multiplier_range()

    @pytest.mark.parametrize(
        "plan",
        [alpha15(), hypothetical7(), grid_floorplan(8, 8)],
        ids=lambda plan: plan.name,
    )
    @pytest.mark.parametrize("value", [1.5, 2.0, 3.0, 7.0])
    def test_degenerate_range_accepts_its_own_draws(self, plan, value):
        config = PowerGeneratorConfig(multiplier_range=(value, value))
        profile = generate_power_profile(plan, config)
        profile.check_paper_multiplier_range((value, value))
        assert all(core.test_w == core.functional_w * value for core in profile)

    def test_one_ulp_outside_a_degenerate_range_is_refused(self):
        test_w = math.nextafter(0.1 * 3.0, math.inf)
        profile = PowerProfile([CorePower("a", 0.1, test_w)])
        with pytest.raises(
            PowerModelError,
            match=r"core 'a' has test multiplier 3\.000, outside \[3\.0, 3\.0\]",
        ):
            profile.check_paper_multiplier_range((3.0, 3.0))


class TestConstruction:
    def test_from_maps(self):
        profile = PowerProfile.from_maps(
            {"a": 1.0, "b": 2.0}, {"a": 4.0, "b": 6.0}
        )
        assert profile["b"].test_multiplier == pytest.approx(3.0)

    def test_from_maps_mismatch_rejected(self):
        with pytest.raises(PowerModelError):
            PowerProfile.from_maps({"a": 1.0}, {"b": 2.0})

    def test_scaled_preserves_multipliers(self):
        scaled = profile_ab().scaled(2.5)
        assert scaled["a"].test_w == pytest.approx(20.0)
        assert scaled["a"].test_multiplier == pytest.approx(4.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(PowerModelError):
            profile_ab().scaled(0.0)
