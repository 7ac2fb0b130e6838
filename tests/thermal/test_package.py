"""Unit tests for the package configuration."""

from __future__ import annotations

import math

import pytest

from repro.api import Workbench
from repro.errors import ThermalModelError
from repro.soc.library import alpha15_soc
from repro.thermal.package import DEFAULT_PACKAGE, PackageConfig

POSITIVE_FIELDS = [
    "die_thickness",
    "tim_thickness",
    "spreader_side",
    "spreader_thickness",
    "sink_side",
    "sink_thickness",
    "convection_resistance",
    "convection_capacitance",
    "rim_coefficient",
]

#: Values no positive package field accepts besides 0.0: NaN passes a
#: ``value <= 0.0`` test.
NOT_POSITIVE = [-1.0, math.nan, math.inf, -math.inf, True, "1"]

#: Values ``ambient_c`` does not accept.
NOT_FINITE = [math.nan, math.inf, -math.inf, True, "45"]


class TestValidation:
    @pytest.mark.parametrize("field", POSITIVE_FIELDS)
    def test_nonpositive_parameter_rejected(self, field):
        with pytest.raises(ThermalModelError, match=field):
            PackageConfig(**{field: 0.0})

    @pytest.mark.parametrize("value", NOT_POSITIVE, ids=repr)
    @pytest.mark.parametrize("field", POSITIVE_FIELDS)
    def test_positive_field_rejects_it(self, field, value):
        with pytest.raises(ThermalModelError, match=field):
            PackageConfig(**{field: value})

    @pytest.mark.parametrize("value", NOT_FINITE, ids=repr)
    def test_ambient_must_be_finite(self, value):
        with pytest.raises(ThermalModelError, match="ambient_c"):
            PackageConfig(ambient_c=value)

    def test_sink_smaller_than_spreader_rejected(self):
        with pytest.raises(ThermalModelError, match="sink"):
            PackageConfig(spreader_side=60e-3, sink_side=30e-3)

    def test_sink_equal_to_spreader_rejected(self):
        # The builder divides the convection resistance by the sink
        # periphery's area share, which is zero here.
        with pytest.raises(ThermalModelError, match="sink"):
            PackageConfig(sink_side=DEFAULT_PACKAGE.spreader_side)

    def test_integer_fields_still_accepted(self):
        assert PackageConfig(convection_resistance=1, ambient_c=40).ambient_c == 40

    def test_a_valid_package_still_solves(self):
        package = PackageConfig(sink_side=31e-3, convection_resistance=0.5)
        report = Workbench(use_cache=False).solve_soc(
            alpha15_soc(package=package), tl_headroom=1.2, stcl=60.0
        )
        assert math.isfinite(report.result.schedule.max_temperature_c)

    def test_default_is_valid(self):
        assert DEFAULT_PACKAGE.spreader_area == pytest.approx(9e-4)
        assert DEFAULT_PACKAGE.sink_area == pytest.approx(36e-4)


class TestDerived:
    def test_areas(self):
        pkg = PackageConfig(spreader_side=20e-3, sink_side=40e-3)
        assert pkg.spreader_area == pytest.approx(4e-4)
        assert pkg.sink_area == pytest.approx(16e-4)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_PACKAGE.die_thickness = 1.0  # type: ignore[misc]

    def test_ambient_default_is_hotspot_45c(self):
        assert DEFAULT_PACKAGE.ambient_c == 45.0
