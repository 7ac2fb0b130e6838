"""Synthetic test-power generation.

The authors never published their per-core power numbers; the paper
states only that test power ranged from 1.5x to 8x functional power.
This module generates profiles with exactly that structure:

1. every core gets a *functional* power from its area and a functional
   power density (W/cm^2) chosen per unit class or drawn from a seeded
   range — large cache-like blocks run cool, small logic blocks run
   hot, matching real designs;
2. every core gets a *test multiplier* drawn uniformly from the paper's
   [1.5, 8] range with a seeded RNG.

Everything is deterministic given the seed.  The calibrated profile the
experiments use lives in :mod:`repro.soc.library`; this module is the
machinery behind it and behind the property-based tests that exercise
the scheduler on random SoCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import PowerModelError
from ..floorplan.floorplan import Floorplan
from .profile import PAPER_MULTIPLIER_RANGE, CorePower, PowerProfile

#: Functional power density defaults (W/m^2) by broad unit class.
#: 1 W/cm^2 == 1e4 W/m^2.  Caches sit near 2-3 W/cm^2; hot execution
#: logic at 20-40 W/cm^2 — the order-of-magnitude spread that makes the
#: paper's power-density argument bite.
DEFAULT_CLASS_DENSITIES = {
    "cache": 2.5e4,
    "memory": 3.0e4,
    "control": 1.2e5,
    "execution": 2.5e5,
    "register": 3.0e5,
    "default": 1.0e5,
}


@dataclass(frozen=True)
class PowerGeneratorConfig:
    """Configuration for :func:`generate_power_profile`.

    Attributes
    ----------
    multiplier_range:
        Range of test-to-functional multipliers (paper: [1.5, 8]).
    density_range:
        When a block has no class assignment, its functional power
        density (W/m^2) is drawn log-uniformly from this range.
    seed:
        RNG seed.
    """

    multiplier_range: tuple[float, float] = PAPER_MULTIPLIER_RANGE
    density_range: tuple[float, float] = (2.0e4, 3.0e5)
    seed: int = 0

    def __post_init__(self) -> None:
        low, high = self.multiplier_range
        if not 0.0 < low <= high:
            raise PowerModelError(
                f"invalid multiplier range {self.multiplier_range!r}"
            )
        d_low, d_high = self.density_range
        if not 0.0 < d_low <= d_high:
            raise PowerModelError(f"invalid density range {self.density_range!r}")


def generate_power_profile(
    floorplan: Floorplan,
    config: PowerGeneratorConfig = PowerGeneratorConfig(),
    block_classes: Mapping[str, str] | None = None,
    class_densities: Mapping[str, float] | None = None,
    name: str | None = None,
) -> PowerProfile:
    """Generate a seeded power profile for a floorplan.

    Parameters
    ----------
    floorplan:
        The floorplan whose blocks need powers.
    config:
        Randomness and range configuration.
    block_classes:
        Optional block-name -> unit-class mapping ("cache",
        "execution", ...); classed blocks use the class density,
        unclassed blocks draw from ``config.density_range``.
    class_densities:
        Override of :data:`DEFAULT_CLASS_DENSITIES`.
    name:
        Profile name (defaults to ``"<floorplan>-power-s<seed>"``).

    Returns
    -------
    PowerProfile
        One entry per floorplan block; test multipliers all within the
        configured range (verified by construction).
    """
    densities = dict(DEFAULT_CLASS_DENSITIES)
    if class_densities:
        densities.update(class_densities)
    classes = block_classes or {}
    unit_classes = [classes.get(name) for name in floorplan.block_names]
    for name, unit_class in zip(floorplan.block_names, unit_classes):
        if unit_class is not None and unit_class not in densities:
            raise PowerModelError(
                f"block {name!r} has unknown unit class {unit_class!r}; "
                f"known classes: {', '.join(sorted(densities))}"
            )

    # In block order, each unclassed block draws its log-density and then
    # every block its multiplier: one uniform draw per slot, all at once.
    drawn = np.array([unit_class is None for unit_class in unit_classes])
    multiplier_slot = np.cumsum(drawn + 1) - 1
    density_slot = multiplier_slot[drawn] - 1
    d_low, d_high = config.density_range
    m_low, m_high = config.multiplier_range
    low = np.full(len(drawn) + int(drawn.sum()), m_low, dtype=float)
    high = np.full(len(low), m_high, dtype=float)
    low[density_slot] = np.log(d_low)
    high[density_slot] = np.log(d_high)
    draws = np.random.default_rng(config.seed).uniform(low, high)

    density = np.array(
        [0.0 if unit is None else densities[unit] for unit in unit_classes],
        dtype=float,
    )
    density[drawn] = np.exp(draws[density_slot])
    _, _, width, height = floorplan.rect_array.T
    functional = density * (width * height)
    test = functional * draws[multiplier_slot]
    cores = [
        CorePower(name, functional_w, test_w)
        for name, functional_w, test_w in zip(
            floorplan.block_names, functional.tolist(), test.tolist()
        )
    ]

    profile = PowerProfile(
        cores,
        name=name if name is not None else f"{floorplan.name}-power-s{config.seed}",
    )
    profile.check_paper_multiplier_range(config.multiplier_range)
    return profile


def uniform_test_power_profile(
    floorplan: Floorplan, test_w: float, multiplier: float = 4.0, name: str | None = None
) -> PowerProfile:
    """Every core dissipates the same *test_w* during test.

    This is the structure of the paper's Figure 1 motivational example
    ("P(Ci) = 15W, i = 1..7"): equal powers, so power *density* varies
    purely with block area.  Functional power is derived by dividing by
    *multiplier* (it plays no role in scheduling; it exists so the
    profile is complete).
    """
    if test_w <= 0.0:
        raise PowerModelError(f"test power must be positive, got {test_w!r}")
    if multiplier <= 0.0:
        raise PowerModelError(f"multiplier must be positive, got {multiplier!r}")
    cores = [
        CorePower(block.name, test_w / multiplier, test_w) for block in floorplan
    ]
    return PowerProfile(
        cores, name=name if name is not None else f"{floorplan.name}-uniform{test_w:g}W"
    )
