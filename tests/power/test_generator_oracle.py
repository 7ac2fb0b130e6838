"""The one-call power draw against the per-block reference draw.

:func:`generate_power_profile` draws every density and multiplier in one
vectorised ``uniform`` call; :mod:`.generator_reference` draws them one
block at a time.  Functional and test powers must match bit for bit,
with any mix of classed and unclassed blocks.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PowerModelError
from repro.power.generator import (
    DEFAULT_CLASS_DENSITIES,
    PowerGeneratorConfig,
    generate_power_profile,
)

from ..floorplan.floorplan_strategies import plans
from .generator_reference import reference_powers

# Integer ranges are valid too: the draw must not take its dtype from them.
configs = st.builds(
    PowerGeneratorConfig,
    multiplier_range=st.sampled_from(
        [
            (1.5, 8.0),
            (2.0, 2.0),
            (1.5, 3.0),
            (2, 8),
            (3, 3),
            (2, 7.5),
            (1.5, 1.5),
            (3.0, 3.0),
            (7.0, 7.0),
        ]
    ),
    density_range=st.sampled_from(
        [
            (2.0e4, 3.0e5),
            (1.0e5, 1.0e5),
            (5.0e3, 8.0e4),
            (20000, 300000),
            (50000, 50000),
        ]
    ),
    seed=st.integers(0, 2**63 - 1),
)

#: Overrides of the class densities, float and integer.
override_densities = st.sampled_from(
    [None, {"pump": 7.5e4}, {"pump": 75000}, {"pump": 60000, "cache": 25000}]
)


@st.composite
def class_mixes(draw: st.DrawFn, names: tuple[str, ...]) -> dict[str, str]:
    """Some blocks (maybe none, maybe all) assigned a unit class."""
    picks = draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)))
    classes = st.sampled_from(sorted(DEFAULT_CLASS_DENSITIES) + ["pump"])
    return {name: draw(classes) for name, pick in zip(names, picks) if pick}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), plan=plans, config=configs)
def test_powers_match_the_per_block_draw(data, plan, config):
    classes = data.draw(class_mixes(plan.block_names))
    densities = data.draw(override_densities)
    try:
        expected = reference_powers(plan, config, classes, densities)
    except PowerModelError as error:
        with pytest.raises(PowerModelError) as raised:
            generate_power_profile(plan, config, classes, densities)
        assert str(raised.value) == str(error)
        return
    profile = generate_power_profile(plan, config, classes, densities)
    assert [(c.name, c.functional_w, c.test_w) for c in profile] == expected

