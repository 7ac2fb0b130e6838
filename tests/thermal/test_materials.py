"""Unit tests for material properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.thermal.materials import COPPER, INTERFACE, SILICON, Material


class TestMaterialValidation:
    def test_rejects_nonpositive_conductivity(self):
        with pytest.raises(ThermalModelError):
            Material("bad", conductivity=0.0, volumetric_heat_capacity=1.0)

    def test_rejects_nonpositive_heat_capacity(self):
        with pytest.raises(ThermalModelError):
            Material("bad", conductivity=1.0, volumetric_heat_capacity=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True], ids=repr)
    @pytest.mark.parametrize("field", ["conductivity", "volumetric_heat_capacity"])
    def test_rejects_non_finite_or_boolean(self, field, value):
        fields = {"conductivity": 1.0, "volumetric_heat_capacity": 1.0, field: value}
        with pytest.raises(ThermalModelError, match=field.replace("_", " ")):
            Material("bad", **fields)


class TestConductionResistance:
    def test_formula(self):
        mat = Material("m", conductivity=100.0, volumetric_heat_capacity=1.0)
        # R = t / (k A) = 0.001 / (100 * 0.0001) = 0.1 K/W
        assert mat.conduction_resistance(1e-3, 1e-4) == pytest.approx(0.1)

    def test_scales_inversely_with_area(self):
        r_small = SILICON.conduction_resistance(1e-3, 1e-6)
        r_large = SILICON.conduction_resistance(1e-3, 1e-4)
        assert r_small / r_large == pytest.approx(100.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ThermalModelError):
            SILICON.conduction_resistance(0.0, 1.0)
        with pytest.raises(ThermalModelError):
            SILICON.conduction_resistance(1.0, 0.0)

    def test_an_array_of_areas_matches_each_area(self):
        areas = np.array([1e-6, 3e-6, 4e-5])
        resistances = SILICON.conduction_resistance(1e-3, areas)
        assert resistances.tolist() == [
            SILICON.conduction_resistance(1e-3, area) for area in areas.tolist()
        ]
        with pytest.raises(ThermalModelError):
            SILICON.conduction_resistance(1e-3, np.array([1e-6, 0.0]))


class TestSlabCapacitance:
    def test_formula(self):
        mat = Material("m", conductivity=1.0, volumetric_heat_capacity=2e6)
        # C = c_v * t * A = 2e6 * 0.001 * 0.0001 = 0.2 J/K
        assert mat.slab_capacitance(1e-3, 1e-4) == pytest.approx(0.2)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ThermalModelError):
            SILICON.slab_capacitance(-1.0, 1.0)


class TestHotSpotDefaults:
    def test_silicon_matches_hotspot(self):
        assert SILICON.conductivity == 100.0
        assert SILICON.volumetric_heat_capacity == 1.75e6

    def test_copper_more_conductive_than_silicon(self):
        assert COPPER.conductivity > SILICON.conductivity

    def test_interface_is_the_bottleneck(self):
        assert INTERFACE.conductivity < SILICON.conductivity
