"""Power profiles: per-core functional and test power.

The paper's experiments use "test power dissipation values ... ranging
from 1.5X to 8X their power dissipation during normal operation".  A
:class:`PowerProfile` captures exactly that pair per core, validates it,
and provides the derived quantities the rest of the library consumes
(test power maps for sessions, power densities for analysis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import PowerModelError
from ..floorplan.floorplan import Floorplan
from ..spec_utils import is_positive_number

#: The multiplier range the paper quotes for test-vs-functional power.
PAPER_MULTIPLIER_RANGE = (1.5, 8.0)


@dataclass(frozen=True)
class CorePower:
    """Functional and test power of one core.

    Attributes
    ----------
    name:
        Core/block name.
    functional_w:
        Average power during normal operation (W).
    test_w:
        Average power while the core's test is applied (W).
    """

    name: str
    functional_w: float
    test_w: float

    def __post_init__(self) -> None:
        if not is_positive_number(self.functional_w):
            raise PowerModelError(
                f"core {self.name!r}: functional power must be positive "
                f"and finite, got {self.functional_w!r}"
            )
        if not is_positive_number(self.test_w):
            raise PowerModelError(
                f"core {self.name!r}: test power must be positive and "
                f"finite, got {self.test_w!r}"
            )

    @property
    def test_multiplier(self) -> float:
        """Test power divided by functional power."""
        return self.test_w / self.functional_w


class PowerProfile:
    """Immutable per-core power table.

    Parameters
    ----------
    cores:
        One :class:`CorePower` per core; names must be unique.
    name:
        Profile name for reports.
    """

    def __init__(self, cores: list[CorePower], name: str = "profile") -> None:
        if not cores:
            raise PowerModelError("a power profile needs at least one core")
        self._name = name
        self._cores: dict[str, CorePower] = {}
        for core in cores:
            if core.name in self._cores:
                raise PowerModelError(f"duplicate core in power profile: {core.name!r}")
            self._cores[core.name] = core

    @property
    def name(self) -> str:
        """Profile name."""
        return self._name

    @property
    def core_names(self) -> tuple[str, ...]:
        """Core names in insertion order."""
        return tuple(self._cores)

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self) -> Iterator[CorePower]:
        return iter(self._cores.values())

    def __contains__(self, name: object) -> bool:
        return name in self._cores

    def __getitem__(self, name: str) -> CorePower:
        try:
            return self._cores[name]
        except KeyError:
            raise PowerModelError(
                f"profile {self._name!r} has no core named {name!r}"
            ) from None

    # -- derived maps -------------------------------------------------------------

    def test_power_map(self, active: list[str] | None = None) -> dict[str, float]:
        """Test-power map (W by core) for the given active set.

        With ``active=None`` every core is active (the maximally
        concurrent session); otherwise only the named cores appear in
        the map — passive cores dissipate nothing during test, matching
        the paper's session power model.
        """
        names = self.core_names if active is None else active
        missing = [n for n in names if n not in self._cores]
        if missing:
            raise PowerModelError(f"unknown cores in active set: {missing}")
        return {name: self._cores[name].test_w for name in names}

    def functional_power_map(self) -> dict[str, float]:
        """Functional (mission-mode) power map (W by core)."""
        return {name: cp.functional_w for name, cp in self._cores.items()}

    def total_test_power(self, active: list[str] | None = None) -> float:
        """Total test power (W) of the given active set (all cores when None)."""
        return math.fsum(self.test_power_map(active).values())

    def test_power_densities(self, floorplan: Floorplan) -> dict[str, float]:
        """Test power density (W/m^2) per core, given the floorplan."""
        self.validate_against(floorplan)
        return {
            name: self._cores[name].test_w / floorplan[name].area
            for name in self.core_names
        }

    # -- validation --------------------------------------------------------------------

    def validate_against(self, floorplan: Floorplan) -> None:
        """Check the profile covers exactly the floorplan's blocks.

        Raises
        ------
        PowerModelError
            When a floorplan block has no power entry or the profile
            names a block the floorplan lacks.
        """
        floorplan_names = set(floorplan.block_names)
        profile_names = set(self._cores)
        missing = sorted(floorplan_names - profile_names)
        extra = sorted(profile_names - floorplan_names)
        if missing or extra:
            raise PowerModelError(
                f"power profile {self._name!r} does not match floorplan "
                f"{floorplan.name!r}: missing power for {missing or 'none'}, "
                f"extra entries {extra or 'none'}"
            )

    def check_paper_multiplier_range(
        self, multiplier_range: tuple[float, float] = PAPER_MULTIPLIER_RANGE
    ) -> None:
        """Verify all test multipliers lie within the paper's 1.5x-8x range.

        Tests ``functional * low <= test <= functional * high`` rather
        than the recovered ratio ``test / functional``: rounding
        multiplication is monotone, so a test power drawn as
        ``functional * multiplier`` with the multiplier in the range
        passes even when the range is a single value.
        """
        low, high = multiplier_range
        for core in self:
            if not core.functional_w * low <= core.test_w <= core.functional_w * high:
                raise PowerModelError(
                    f"core {core.name!r} has test multiplier "
                    f"{core.test_multiplier:.3f}, outside [{low}, {high}]"
                )

    # -- construction helpers -----------------------------------------------------------

    @classmethod
    def from_maps(
        cls,
        functional_w: Mapping[str, float],
        test_w: Mapping[str, float],
        name: str = "profile",
    ) -> "PowerProfile":
        """Build a profile from two name->watts mappings."""
        if set(functional_w) != set(test_w):
            raise PowerModelError(
                "functional and test power maps must name the same cores"
            )
        return cls(
            [CorePower(n, functional_w[n], test_w[n]) for n in functional_w],
            name=name,
        )

    def scaled(self, factor: float, name: str | None = None) -> "PowerProfile":
        """A copy with every power multiplied by *factor* (calibration aid)."""
        if not is_positive_number(factor):
            raise PowerModelError(
                f"scale factor must be positive and finite, got {factor!r}"
            )
        return PowerProfile(
            [
                CorePower(c.name, c.functional_w * factor, c.test_w * factor)
                for c in self
            ],
            name=name if name is not None else f"{self._name}-x{factor:g}",
        )
