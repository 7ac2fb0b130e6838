"""Unit tests for the floorplan-to-RC-network builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.floorplan.adjacency import AdjacencyMap
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.generator import grid_floorplan
from repro.floorplan.library import alpha15, hypothetical7
from repro.thermal.builder import (
    SINK_CENTER,
    SINK_PERIPHERY,
    SPREADER_CENTER,
    build_thermal_network,
    die_node,
)
from repro.thermal.package import DEFAULT_PACKAGE, PackageConfig
from repro.thermal.resistances import (
    lateral_interface_resistance,
    vertical_stack_resistance,
)


@pytest.fixture(scope="module")
def built_alpha():
    return build_thermal_network(alpha15(), DEFAULT_PACKAGE)


class TestTopology:
    def test_node_count_is_blocks_plus_package(self, built_alpha):
        # 15 die nodes + spreader centre + 4 spreader edges + 2 sink nodes.
        assert len(built_alpha.network) == 15 + 7

    def test_every_block_has_a_node(self, built_alpha):
        for name in alpha15().block_names:
            assert die_node(name) in built_alpha.network.node_names

    def test_package_nodes_exist(self, built_alpha):
        names = built_alpha.network.node_names
        assert SPREADER_CENTER in names
        assert SINK_CENTER in names
        assert SINK_PERIPHERY in names
        for side in ("north", "south", "east", "west"):
            assert f"spreader:{side}" in names

    def test_conductance_symmetric_positive_definite(self, built_alpha):
        g = built_alpha.network.conductance
        assert np.allclose(g, g.T)
        eigenvalues = np.linalg.eigvalsh(g)
        assert eigenvalues.min() > 0.0

    def test_non_tiled_floorplan_builds(self):
        built = build_thermal_network(hypothetical7(), DEFAULT_PACKAGE)
        assert len(built.network) == 7 + 7

    def test_single_block_floorplan_builds(self):
        built = build_thermal_network(grid_floorplan(1, 1), DEFAULT_PACKAGE)
        assert die_node("C0_0") in built.network.node_names


class TestCapacitances:
    def test_die_capacitance_matches_silicon_volume(self, built_alpha):
        plan = alpha15()
        network = built_alpha.network
        pkg = DEFAULT_PACKAGE
        for block in plan:
            index = network.index_of(die_node(block.name))
            expected = pkg.die_material.slab_capacitance(
                pkg.die_thickness, block.area
            )
            assert network.capacitance[index] == pytest.approx(expected)

    def test_all_capacitances_positive(self, built_alpha):
        assert np.all(built_alpha.network.capacitance > 0.0)

    def test_sink_holds_most_heat_capacity(self, built_alpha):
        network = built_alpha.network
        sink_cap = (
            network.capacitance[network.index_of(SINK_CENTER)]
            + network.capacitance[network.index_of(SINK_PERIPHERY)]
        )
        die_cap = sum(
            network.capacitance[network.index_of(die_node(n))]
            for n in alpha15().block_names
        )
        assert sink_cap > 10.0 * die_cap


class TestResistanceScaling:
    def test_lateral_resistance_decreases_with_shared_length(self):
        """Longer shared edges conduct better."""
        plan = grid_floorplan(1, 2, die_width=2e-3, die_height=1e-3)
        tall = grid_floorplan(1, 2, die_width=2e-3, die_height=4e-3)
        pkg = DEFAULT_PACKAGE
        amap_short = AdjacencyMap(plan)
        amap_tall = AdjacencyMap(tall)
        r_short = lateral_interface_resistance(
            plan["C0_0"], plan["C0_1"], amap_short.interfaces[0], pkg
        )
        r_tall = lateral_interface_resistance(
            tall["C0_0"], tall["C0_1"], amap_tall.interfaces[0], pkg
        )
        assert r_tall < r_short

    def test_vertical_resistance_decreases_with_area(self):
        """Bigger blocks couple into the spreader better — the power
        density mechanism behind the paper's Figure 1."""
        small = grid_floorplan(4, 4)["C0_0"]
        large = grid_floorplan(2, 2)["C0_0"]
        assert vertical_stack_resistance(
            large, DEFAULT_PACKAGE
        ) < vertical_stack_resistance(small, DEFAULT_PACKAGE)

    def test_rim_coefficient_weakens_edge_paths(self):
        plan = grid_floorplan(2, 2)
        weak_rim = build_thermal_network(
            plan, PackageConfig(rim_coefficient=1.0)
        )
        strong_rim = build_thermal_network(
            plan, PackageConfig(rim_coefficient=0.01)
        )
        # Same power map solved on both: stronger rim -> cooler corner.
        from repro.thermal.steady_state import SteadyStateSolver

        power = weak_rim.network.power_vector({die_node("C0_0"): 10.0})
        t_weak = SteadyStateSolver(weak_rim.network).solve(power)
        power2 = strong_rim.network.power_vector({die_node("C0_0"): 10.0})
        t_strong = SteadyStateSolver(strong_rim.network).solve(power2)
        i = weak_rim.network.index_of(die_node("C0_0"))
        j = strong_rim.network.index_of(die_node("C0_0"))
        assert t_strong[j] < t_weak[i]


class TestAdjacencyArgument:
    """A custom map must describe the floorplan's own blocks, in its order."""

    def test_map_of_an_equal_floorplan_builds_the_same_network(self):
        plan = grid_floorplan(3, 3)
        twin = Floorplan(list(plan.blocks), name="twin")
        built = build_thermal_network(plan, DEFAULT_PACKAGE, AdjacencyMap(twin))
        expected = build_thermal_network(plan, DEFAULT_PACKAGE)
        assert np.array_equal(built.network.conductance, expected.network.conductance)
        assert np.array_equal(built.network.capacitance, expected.network.capacitance)

    def test_map_of_a_reordered_floorplan_is_refused(self):
        plan = grid_floorplan(3, 3)
        reordered = Floorplan(list(reversed(plan.blocks)), name="reordered")
        with pytest.raises(ThermalModelError, match="order"):
            build_thermal_network(plan, DEFAULT_PACKAGE, AdjacencyMap(reordered))

    def test_map_of_another_block_count_is_refused(self):
        plan = grid_floorplan(3, 3)
        with pytest.raises(ThermalModelError, match="does not match"):
            build_thermal_network(
                plan, DEFAULT_PACKAGE, AdjacencyMap(grid_floorplan(2, 2))
            )

    def test_map_of_moved_blocks_is_refused(self):
        plan = grid_floorplan(2, 2, die_width=2e-3, die_height=2e-3)
        wider = grid_floorplan(2, 2, die_width=4e-3, die_height=2e-3)
        assert wider.block_names == plan.block_names
        with pytest.raises(ThermalModelError, match="geometry"):
            build_thermal_network(plan, DEFAULT_PACKAGE, AdjacencyMap(wider))
