"""Per-block reference of the synthetic power draw.

Written for clarity, not speed: :func:`reference_powers` walks the
floorplan's blocks in order and draws each unclassed block's
log-uniform density and then each block's test multiplier with one
scalar ``rng.uniform`` call each, then checks the multipliers the
powers imply against the configured range.
:func:`repro.power.generator.generate_power_profile` must reproduce its
functional and test powers bit for bit, and its errors.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import PowerModelError
from repro.floorplan.floorplan import Floorplan
from repro.power.generator import DEFAULT_CLASS_DENSITIES, PowerGeneratorConfig
from repro.power.profile import CorePower, PowerProfile


def reference_powers(
    floorplan: Floorplan,
    config: PowerGeneratorConfig = PowerGeneratorConfig(),
    block_classes: Mapping[str, str] | None = None,
    class_densities: Mapping[str, float] | None = None,
) -> list[tuple[str, float, float]]:
    """``(name, functional W, test W)`` per block, drawn one block at a time."""
    rng = np.random.default_rng(config.seed)
    densities = dict(DEFAULT_CLASS_DENSITIES)
    if class_densities:
        densities.update(class_densities)
    classes = block_classes or {}

    powers = []
    d_low, d_high = config.density_range
    m_low, m_high = config.multiplier_range
    for block in floorplan:
        unit_class = classes.get(block.name)
        if unit_class is not None:
            if unit_class not in densities:
                raise PowerModelError(
                    f"block {block.name!r} has unknown unit class {unit_class!r}; "
                    f"known classes: {', '.join(sorted(densities))}"
                )
            density = densities[unit_class]
        else:
            density = float(np.exp(rng.uniform(np.log(d_low), np.log(d_high))))
        functional = density * block.area
        multiplier = float(rng.uniform(m_low, m_high))
        powers.append((block.name, functional, functional * multiplier))
    # The generator checks the multipliers it recovers from the powers.
    profile = PowerProfile([CorePower(*entry) for entry in powers])
    profile.check_paper_multiplier_range(config.multiplier_range)
    return powers
