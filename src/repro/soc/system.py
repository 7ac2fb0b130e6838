"""The system under test: floorplan + cores + package.

:class:`SocUnderTest` is the object every scheduler and experiment takes
as input.  It guarantees at construction time that the floorplan, the
core list and (optionally) a power profile are mutually consistent, and
it provides the session-to-power-map translation that both the thermal
simulator and the session thermal model consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import PowerModelError
from ..floorplan.adjacency import AdjacencyMap
from ..floorplan.floorplan import Floorplan
from ..power.profile import PowerProfile
from ..thermal.package import DEFAULT_PACKAGE, PackageConfig
from .core import DEFAULT_TEST_TIME_S, CoreUnderTest


class SocUnderTest:
    """A testable SoC: floorplan, per-core test data and package stack.

    Parameters
    ----------
    floorplan:
        The die floorplan; every core must correspond to a block.
    cores:
        The cores to be tested.  Every floorplan block must appear
        exactly once (the paper tests all 15 cores of its SoC).
    package:
        Package thermal stack (defaults to the library default).
    name:
        System name for reports (defaults to the floorplan name).
    """

    def __init__(
        self,
        floorplan: Floorplan,
        cores: list[CoreUnderTest],
        package: PackageConfig = DEFAULT_PACKAGE,
        name: str | None = None,
    ) -> None:
        self._floorplan = floorplan
        self._package = package
        self._name = name if name is not None else floorplan.name
        self._cores: dict[str, CoreUnderTest] = {}
        for core in cores:
            if core.name in self._cores:
                raise PowerModelError(f"duplicate core {core.name!r} in SoC")
            if core.name not in floorplan:
                raise PowerModelError(
                    f"core {core.name!r} has no matching floorplan block in "
                    f"{floorplan.name!r}"
                )
            self._cores[core.name] = core
        unpowered = [b for b in floorplan.block_names if b not in self._cores]
        if unpowered:
            raise PowerModelError(
                f"floorplan blocks without core data: {unpowered}"
            )

    # -- construction from a power profile ----------------------------------------

    @classmethod
    def from_profile(
        cls,
        floorplan: Floorplan,
        profile: PowerProfile,
        package: PackageConfig = DEFAULT_PACKAGE,
        test_time_s: float = DEFAULT_TEST_TIME_S,
        name: str | None = None,
    ) -> "SocUnderTest":
        """Build a SoC from a floorplan and a :class:`PowerProfile`."""
        profile.validate_against(floorplan)
        cores = [
            CoreUnderTest(
                cp.name,
                test_power_w=cp.test_w,
                functional_power_w=cp.functional_w,
                test_time_s=test_time_s,
            )
            for cp in profile
        ]
        return cls(floorplan, cores, package=package, name=name)

    # -- identity -------------------------------------------------------------------

    @property
    def name(self) -> str:
        """System name."""
        return self._name

    @property
    def floorplan(self) -> Floorplan:
        """The die floorplan."""
        return self._floorplan

    @property
    def adjacency(self) -> AdjacencyMap:
        """The floorplan's shared adjacency map (:attr:`Floorplan.adjacency`).

        Built on first use, by whichever reader comes first (a model
        build or the session model); decoding a report never needs it.
        """
        return self._floorplan.adjacency

    @property
    def package(self) -> PackageConfig:
        """Package thermal stack."""
        return self._package

    @property
    def core_names(self) -> tuple[str, ...]:
        """Core names in floorplan (canonical) order (the floorplan's tuple)."""
        return self._floorplan.block_names

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self) -> Iterator[CoreUnderTest]:
        for name in self.core_names:
            yield self._cores[name]

    def __contains__(self, name: object) -> bool:
        return name in self._cores

    def __getitem__(self, name: str) -> CoreUnderTest:
        try:
            return self._cores[name]
        except KeyError:
            raise PowerModelError(
                f"SoC {self._name!r} has no core named {name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"SocUnderTest({self._name!r}, {len(self)} cores)"

    # -- power maps --------------------------------------------------------------------

    def session_power_map(self, active: Iterable[str]) -> dict[str, float]:
        """Test-power map (W by block) for a session's active set.

        Passive cores are omitted: during a test session only the cores
        under test dissipate test power (the paper's session model
        assumption; passive cores' leakage is neglected as HotSpot runs
        in the paper do).
        """
        power: dict[str, float] = {}
        for name in active:
            if name in power:
                raise PowerModelError(f"core {name!r} repeated in active set")
            power[name] = self[name].test_power_w
        return power

    def session_duration_s(self, active: Iterable[str]) -> float:
        """Duration of a session: the longest member test (s)."""
        times = [self[name].test_time_s for name in active]
        if not times:
            raise PowerModelError("session duration of an empty active set")
        return max(times)

    def total_test_power_w(self, active: Iterable[str] | None = None) -> float:
        """Total test power (W) of an active set (all cores when None)."""
        names = self.core_names if active is None else list(active)
        return math.fsum(self[name].test_power_w for name in names)

    def test_power_map(self) -> dict[str, float]:
        """Test power of every core (W by name)."""
        return {name: self[name].test_power_w for name in self.core_names}

    def power_densities(self) -> dict[str, float]:
        """Test power density (W/m^2) of every core."""
        return {
            name: self[name].test_power_w / self._floorplan[name].area
            for name in self.core_names
        }

    # -- reporting ----------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary of the SoC."""
        lines = [
            f"SoC {self._name!r}: {len(self)} cores, total test power "
            f"{self.total_test_power_w():.1f} W"
        ]
        widest = max(len(n) for n in self.core_names)
        densities = self.power_densities()
        for name in self.core_names:
            core = self[name]
            lines.append(
                f"  {name:<{widest}}  test {core.test_power_w:7.2f} W "
                f"({core.test_multiplier:4.2f}x functional)  "
                f"density {densities[name] / 1e4:7.2f} W/cm^2  "
                f"test time {core.test_time_s:g} s"
            )
        return "\n".join(lines)
