"""Package (die + spreader + sink) description for the thermal model.

The RC network built by :mod:`repro.thermal.builder` models the standard
single-die package stack that HotSpot models:

* the silicon die (blocks exchange heat laterally and conduct upward);
* a thermal interface material (TIM) layer;
* a copper heat spreader;
* a copper heat sink cooled by convection to ambient air;
* the die rim, through which a small amount of heat escapes laterally
  into the package (this is the "north/south/east/west edge" path the
  paper draws as ``R_2,N`` / ``R_4,W`` in Figure 3).

All geometric and convective parameters live in :class:`PackageConfig`
so experiments can build consistent full-simulation networks and
test-session thermal models from the same numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from ..errors import ThermalModelError
from ..spec_utils import is_finite_number, is_positive_number
from ..units import DEFAULT_AMBIENT_C
from .materials import COPPER, INTERFACE, SILICON, Material


@dataclass(frozen=True)
class PackageConfig:
    """Parameters of the package thermal stack.

    Defaults follow the HotSpot configuration shipped with the tool the
    paper used, with one documented deviation: ``die_thickness`` is
    0.5 mm (HotSpot's early releases; later defaults use 0.15 mm), which
    gives lateral resistances in a range where the paper's
    session-packing trade-off is well exercised.  See DESIGN.md,
    substitution 1.

    Attributes
    ----------
    die_thickness:
        Silicon die thickness in metres.
    die_material:
        Silicon material constants.
    tim_thickness, tim_material:
        Thermal interface material layer between die and spreader.
    spreader_side, spreader_thickness, spreader_material:
        Copper heat spreader (assumed square, centred over the die).
    sink_side, sink_thickness, sink_material:
        Copper heat sink base plate (assumed square).
    convection_resistance:
        Equivalent convection resistance from the sink to ambient air,
        in K/W.  HotSpot's default r_convec is 0.1 K/W for a high-end
        forced-air sink; we default to a more modest 0.45 K/W typical of
        a test environment without full production cooling, which places
        the experiment's temperature range where the paper's is.
    convection_capacitance:
        Lumped thermal capacitance of the sink/air boundary, J/K.
    rim_coefficient:
        Resistance of the die-rim escape path per metre of die edge
        length, in K m / W: a die-edge segment of length ``L`` couples
        into the package periphery through ``rim_coefficient / L``.
        This path is weak (the die edge is thin) but it is exactly the
        lateral path the paper's session model maximises, so it is
        modelled explicitly rather than folded into the vertical path.
        The default (0.15 K m/W) keeps the die rim a second-order heat
        port, as it is in real packages where nearly all heat leaves
        vertically.
    ambient_c:
        Ambient temperature in Celsius.
    """

    die_thickness: float = 0.5e-3
    die_material: Material = SILICON
    tim_thickness: float = 20e-6
    tim_material: Material = INTERFACE
    spreader_side: float = 30e-3
    spreader_thickness: float = 1e-3
    spreader_material: Material = COPPER
    sink_side: float = 60e-3
    sink_thickness: float = 6.9e-3
    sink_material: Material = COPPER
    convection_resistance: float = 0.45
    convection_capacitance: float = 140.4
    rim_coefficient: float = 0.15
    ambient_c: float = DEFAULT_AMBIENT_C

    def __post_init__(self) -> None:
        positive_fields = {
            "die_thickness": self.die_thickness,
            "tim_thickness": self.tim_thickness,
            "spreader_side": self.spreader_side,
            "spreader_thickness": self.spreader_thickness,
            "sink_side": self.sink_side,
            "sink_thickness": self.sink_thickness,
            "convection_resistance": self.convection_resistance,
            "convection_capacitance": self.convection_capacitance,
            "rim_coefficient": self.rim_coefficient,
        }
        for name, value in positive_fields.items():
            if not is_positive_number(value):
                raise ThermalModelError(
                    f"package parameter {name} must be a finite positive number, "
                    f"got {value!r}"
                )
        if not is_finite_number(self.ambient_c):
            raise ThermalModelError(
                f"package parameter ambient_c must be a finite number, "
                f"got {self.ambient_c!r}"
            )
        # The sink's periphery is the annulus outside the spreader; the
        # builder splits the convection resistance by its area share.
        if not self.sink_side > self.spreader_side:
            raise ThermalModelError(
                f"heat sink ({self.sink_side} m) must be larger than "
                f"the spreader ({self.spreader_side} m)"
            )

    # -- derived quantities -------------------------------------------------------

    @property
    def spreader_area(self) -> float:
        """Spreader plate area in m^2."""
        return self.spreader_side * self.spreader_side

    @property
    def sink_area(self) -> float:
        """Sink base plate area in m^2."""
        return self.sink_side * self.sink_side

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of every parameter, materials included (computed once)."""
        digest = hashlib.sha256()
        digest.update(
            "|".join(
                [
                    repr(self.die_thickness),
                    repr(self.die_material),
                    repr(self.tim_thickness),
                    repr(self.tim_material),
                    repr(self.spreader_side),
                    repr(self.spreader_thickness),
                    repr(self.spreader_material),
                    repr(self.sink_side),
                    repr(self.sink_thickness),
                    repr(self.sink_material),
                    repr(self.convection_resistance),
                    repr(self.convection_capacitance),
                    repr(self.rim_coefficient),
                    repr(self.ambient_c),
                ]
            ).encode()
        )
        return digest.hexdigest()


#: The package used by all built-in experiments.
DEFAULT_PACKAGE = PackageConfig()
