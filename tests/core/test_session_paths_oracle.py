"""The session model's kernel inputs against their name-keyed reference.

:class:`SessionThermalModel` takes its per-core (neighbour, conductance)
pairs and fixed conductances from the floorplan's resistance table;
:mod:`.session_paths_reference` derives them one interface and one
segment at a time.  ``_neighbours``, ``_fixed`` and the resistance
accessors must match bit for bit.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.power.generator import uniform_test_power_profile
from repro.soc.system import SocUnderTest

from ..floorplan.floorplan_strategies import plans
from ..thermal.test_builder_oracle import packages
from .session_paths_reference import reference_paths


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plan=plans, package=packages, include_vertical=st.booleans())
def test_kernel_inputs_match_the_reference(plan, package, include_vertical):
    soc = SocUnderTest.from_profile(
        plan, uniform_test_power_profile(plan, 10.0), package=package
    )
    model = SessionThermalModel(
        soc, SessionModelConfig(include_vertical=include_vertical)
    )
    expected = reference_paths(plan, package, include_vertical)
    assert model._neighbours == expected.neighbours
    assert model._fixed == expected.fixed
    for name in plan.block_names:
        resistances = model.neighbour_resistances(name)
        assert resistances == expected.neighbour_r[name]
        assert list(resistances) == list(expected.neighbour_r[name])
        assert model.edge_resistance(name) == expected.edge_r[name]
        assert model.vertical_resistance(name) == expected.vertical_r[name]
