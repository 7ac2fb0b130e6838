"""The array-built RC network against its per-edge reference.

:func:`build_thermal_network` adds each family of die edges in one call
from the floorplan's resistance table and compiles ``G`` with
``np.add.at``; :mod:`.network_reference` stamps one edge at a time from
the scalar formulas of :mod:`.resistance_reference`.  Node order, ``G``
and ``C`` must be equal bit for bit (``np.array_equal``), and so must
the per-element functions of :mod:`repro.thermal.resistances` and those
scalar formulas.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.floorplan.adjacency import AdjacencyMap
from repro.thermal.builder import build_thermal_network
from repro.thermal.package import PackageConfig
from repro.thermal.resistances import (
    boundary_edge_resistance,
    lateral_interface_resistance,
    vertical_stack_resistance,
)

from ..floorplan.floorplan_strategies import TOLERANCES, plans
from .network_reference import reference_matrices
from .resistance_reference import (
    boundary_resistance,
    lateral_resistance,
    vertical_resistance,
)

ORACLE = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

packages = st.builds(
    PackageConfig,
    die_thickness=st.sampled_from([0.15e-3, 0.5e-3]),
    convection_resistance=st.floats(0.1, 2.0),
    rim_coefficient=st.floats(0.05, 0.5),
    sink_side=st.sampled_from([35e-3, 60e-3]),
    ambient_c=st.floats(-20.0, 80.0),
)


def assert_same_network(model, reference) -> None:
    names, conductance, capacitance = reference
    assert model.network.node_names == names
    assert np.array_equal(model.network.conductance, conductance)
    assert np.array_equal(model.network.capacitance, capacitance)


@ORACLE
@given(plan=plans, package=packages)
def test_network_matches_the_per_edge_build(plan, package):
    assert_same_network(
        build_thermal_network(plan, package), reference_matrices(plan, package)
    )


@ORACLE
@given(plan=plans, package=packages, tol=st.sampled_from(TOLERANCES[:3]))
def test_custom_adjacency_network_matches(plan, package, tol):
    adjacency = AdjacencyMap(plan, tol)
    model = build_thermal_network(plan, package, adjacency)
    assert model.adjacency is adjacency
    assert_same_network(model, reference_matrices(plan, package, adjacency))


@ORACLE
@given(plan=plans, package=packages)
def test_per_element_functions_match_the_scalar_formulas(plan, package):
    adjacency = plan.adjacency
    for interface in adjacency.interfaces:
        a, b = plan[interface.block_a], plan[interface.block_b]
        assert lateral_interface_resistance(
            a, b, interface, package
        ) == lateral_resistance(a, b, interface, package)
    for block in plan:
        for segment in adjacency.boundary_segments(block.name):
            assert boundary_edge_resistance(
                block, segment, package
            ) == boundary_resistance(block, segment, package)
        assert vertical_stack_resistance(block, package) == vertical_resistance(
            block, package
        )
