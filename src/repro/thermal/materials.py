"""Material properties for the thermal model.

Values follow the HotSpot defaults (Skadron et al., "Temperature-aware
microarchitecture", ISCA/ISCAS 2003), which is the tool the paper used
for its accurate thermal simulations:

* silicon: k = 100 W/(m K), volumetric heat capacity 1.75e6 J/(m^3 K)
  (HotSpot's values at elevated operating temperature, not the room
  temperature textbook 148 W/(m K));
* copper (spreader and sink): k = 400 W/(m K), 3.55e6 J/(m^3 K);
* thermal interface material: k = 4 W/(m K) (a high-end thermal paste).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from ..errors import ThermalModelError
from ..spec_utils import is_positive_number

#: A float, or an array of them: the slab and resistance formulas work
#: elementwise on either.
Value = TypeVar("Value", float, np.ndarray)


@dataclass(frozen=True)
class Material:
    """A homogeneous material characterised for heat conduction.

    Attributes
    ----------
    name:
        Human-readable material name.
    conductivity:
        Thermal conductivity k in W/(m K).
    volumetric_heat_capacity:
        rho * c_p in J/(m^3 K); used to size thermal capacitances for
        transient simulation.
    """

    name: str
    conductivity: float
    volumetric_heat_capacity: float

    def __post_init__(self) -> None:
        if not is_positive_number(self.conductivity):
            raise ThermalModelError(
                f"material {self.name!r}: conductivity must be a finite "
                f"positive number, got {self.conductivity!r}"
            )
        if not is_positive_number(self.volumetric_heat_capacity):
            raise ThermalModelError(
                f"material {self.name!r}: volumetric heat capacity must be a "
                f"finite positive number, got {self.volumetric_heat_capacity!r}"
            )

    def conduction_resistance(self, thickness: float, area: Value) -> Value:
        """1-D conduction resistance of a slab: ``R = t / (k A)`` in K/W.

        *area* may be an array of areas (one resistance each).
        """
        _check_slab(thickness, area)
        return thickness / (self.conductivity * area)

    def slab_capacitance(self, thickness: float, area: Value) -> Value:
        """Thermal capacitance of a slab: ``C = rho c_p t A`` in J/K.

        *area* may be an array of areas (one capacitance each).
        """
        _check_slab(thickness, area)
        return self.volumetric_heat_capacity * thickness * area


def _check_slab(thickness: float, area: float | np.ndarray) -> None:
    if thickness <= 0.0 or np.any(np.less_equal(area, 0.0)):
        raise ThermalModelError(
            f"slab must have positive thickness and area, got "
            f"t={thickness!r}, A={area!r}"
        )


#: Silicon at operating temperature (HotSpot defaults).
SILICON = Material("silicon", conductivity=100.0, volumetric_heat_capacity=1.75e6)

#: Copper, used for the heat spreader and heat sink base.
COPPER = Material("copper", conductivity=400.0, volumetric_heat_capacity=3.55e6)

#: Thermal interface material between die and spreader.
INTERFACE = Material("interface", conductivity=4.0, volumetric_heat_capacity=4.0e6)
