"""Unit tests for CoreUnderTest and SocUnderTest."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.api import Workbench
from repro.errors import PowerModelError
from repro.floorplan.generator import grid_floorplan
from repro.power.profile import CorePower, PowerProfile
from repro.soc.core import CoreUnderTest
from repro.soc.library import alpha15_soc
from repro.soc.system import SocUnderTest

#: Values a positive physical quantity must refuse besides <= 0.
NOT_FINITE = [math.nan, math.inf, True]


def make_soc(test_times=(1.0, 1.0)) -> SocUnderTest:
    plan = grid_floorplan(1, 2)
    cores = [
        CoreUnderTest("C0_0", 10.0, 2.0, test_time_s=test_times[0]),
        CoreUnderTest("C0_1", 20.0, 5.0, test_time_s=test_times[1]),
    ]
    return SocUnderTest(plan, cores)


class TestCoreUnderTest:
    def test_multiplier(self):
        core = CoreUnderTest("x", 12.0, 3.0)
        assert core.test_multiplier == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(PowerModelError):
            CoreUnderTest("", 1.0, 1.0)
        with pytest.raises(PowerModelError):
            CoreUnderTest("x", 0.0, 1.0)
        with pytest.raises(PowerModelError):
            CoreUnderTest("x", 1.0, 0.0)
        with pytest.raises(PowerModelError):
            CoreUnderTest("x", 1.0, 1.0, test_time_s=0.0)

    @pytest.mark.parametrize("bad", NOT_FINITE)
    def test_non_finite_and_boolean_fields_rejected(self, bad):
        with pytest.raises(PowerModelError, match="test power"):
            CoreUnderTest("x", bad, 1.0)
        with pytest.raises(PowerModelError, match="functional power"):
            CoreUnderTest("x", 1.0, bad)
        with pytest.raises(PowerModelError, match="test time"):
            CoreUnderTest("x", 1.0, 1.0, test_time_s=bad)

    def test_nan_test_power_soc_is_refused_before_any_solve(self):
        # A NaN power makes every temperature NaN, which never reaches
        # TL, so a solve would pass the schedule as safe.
        def nan_soc() -> SocUnderTest:
            soc = alpha15_soc()
            cores = list(soc)
            cores[0] = dataclasses.replace(cores[0], test_power_w=math.nan)
            return SocUnderTest(soc.floorplan, cores, package=soc.package)

        with pytest.raises(PowerModelError, match="test power"):
            Workbench().solve_soc(nan_soc(), tl_c=165.0, stcl=60.0)


class TestSocConstruction:
    def test_happy_path(self):
        soc = make_soc()
        assert len(soc) == 2
        assert soc.core_names == ("C0_0", "C0_1")
        assert "C0_0" in soc

    def test_duplicate_core_rejected(self):
        plan = grid_floorplan(1, 1)
        cores = [
            CoreUnderTest("C0_0", 1.0, 1.0),
            CoreUnderTest("C0_0", 2.0, 1.0),
        ]
        with pytest.raises(PowerModelError, match="duplicate"):
            SocUnderTest(plan, cores)

    def test_core_without_block_rejected(self):
        plan = grid_floorplan(1, 1)
        cores = [
            CoreUnderTest("C0_0", 1.0, 1.0),
            CoreUnderTest("ghost", 1.0, 1.0),
        ]
        with pytest.raises(PowerModelError, match="ghost"):
            SocUnderTest(plan, cores)

    def test_block_without_core_rejected(self):
        plan = grid_floorplan(1, 2)
        with pytest.raises(PowerModelError, match="without core"):
            SocUnderTest(plan, [CoreUnderTest("C0_0", 1.0, 1.0)])

    def test_from_profile(self):
        plan = grid_floorplan(1, 2)
        profile = PowerProfile(
            [CorePower("C0_0", 1.0, 4.0), CorePower("C0_1", 2.0, 6.0)]
        )
        soc = SocUnderTest.from_profile(plan, profile, test_time_s=2.0)
        assert soc["C0_0"].test_power_w == 4.0
        assert soc["C0_1"].test_time_s == 2.0

    def test_unknown_core_lookup(self):
        with pytest.raises(PowerModelError):
            make_soc()["zz"]


    def test_name_tuples_are_built_once(self):
        """The floorplan is immutable: one names tuple, shared by the SoC."""
        soc = make_soc()
        assert soc.floorplan.block_names == ("C0_0", "C0_1")
        assert soc.floorplan.block_names is soc.floorplan.block_names
        assert soc.core_names is soc.floorplan.block_names


class TestPowerMaps:
    def test_session_power_map(self):
        soc = make_soc()
        assert soc.session_power_map(["C0_1"]) == {"C0_1": 20.0}

    def test_session_power_map_rejects_duplicates(self):
        soc = make_soc()
        with pytest.raises(PowerModelError, match="repeated"):
            soc.session_power_map(["C0_0", "C0_0"])

    def test_total_power(self):
        soc = make_soc()
        assert soc.total_test_power_w() == pytest.approx(30.0)
        assert soc.total_test_power_w(["C0_0"]) == pytest.approx(10.0)

    def test_power_densities(self):
        soc = make_soc()
        densities = soc.power_densities()
        area = soc.floorplan["C0_0"].area
        assert densities["C0_0"] == pytest.approx(10.0 / area)


class TestSessionDuration:
    def test_duration_is_max_member_time(self):
        soc = make_soc(test_times=(1.0, 2.5))
        assert soc.session_duration_s(["C0_0", "C0_1"]) == pytest.approx(2.5)
        assert soc.session_duration_s(["C0_0"]) == pytest.approx(1.0)

    def test_empty_session_rejected(self):
        with pytest.raises(PowerModelError):
            make_soc().session_duration_s([])


class TestDescribe:
    def test_mentions_all_cores(self):
        text = make_soc().describe()
        assert "C0_0" in text and "C0_1" in text
        assert "W/cm^2" in text
