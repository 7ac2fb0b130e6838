"""Per-edge reference of the full RC network build.

Written for clarity, not speed: :func:`reference_matrices` walks the
interfaces, each block's die-edge segments and each block's vertical
stack one edge at a time through the scalar formulas of
:mod:`.resistance_reference`, and stamps every conductance into a
dense ``G`` with scalar adds in edge order, the ground ties last.
:func:`repro.thermal.builder.build_thermal_network` must reproduce its
node order, ``G`` and ``C`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.floorplan.adjacency import AdjacencyMap
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.geometry import Side
from repro.thermal.builder import SINK_CENTER, SINK_PERIPHERY, SPREADER_CENTER, die_node
from repro.thermal.package import PackageConfig
from repro.thermal.resistances import (
    spreader_centre_to_edge_resistance,
    spreader_to_sink_resistance,
)

from .resistance_reference import (
    boundary_resistance,
    lateral_resistance,
    vertical_resistance,
)

_SPREADER_EDGE = {
    Side.NORTH: "spreader:north",
    Side.SOUTH: "spreader:south",
    Side.EAST: "spreader:east",
    Side.WEST: "spreader:west",
}


def reference_matrices(
    floorplan: Floorplan, package: PackageConfig, adjacency: AdjacencyMap | None = None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """``(node names, G, C)`` of the network, built edge by edge."""
    if adjacency is None:
        adjacency = floorplan.adjacency
    capacitance: dict[str, float] = {}
    edges: list[tuple[str, str, float]] = []
    ground: list[tuple[str, float]] = []

    for block in floorplan:
        capacitance[die_node(block.name)] = (
            package.die_material.volumetric_heat_capacity
            * package.die_thickness
            * block.area
        )
    spreader_cap = package.spreader_material.slab_capacitance(
        package.spreader_thickness, package.spreader_area
    )
    die_share = min(1.0, floorplan.die_area / package.spreader_area)
    capacitance[SPREADER_CENTER] = spreader_cap * die_share
    for edge_name in _SPREADER_EDGE.values():
        capacitance[edge_name] = spreader_cap * (1.0 - die_share) / 4.0
    sink_cap = package.sink_material.slab_capacitance(
        package.sink_thickness, package.sink_area
    )
    spreader_share = package.spreader_area / package.sink_area
    capacitance[SINK_CENTER] = (
        sink_cap * spreader_share + package.convection_capacitance * spreader_share
    )
    capacitance[SINK_PERIPHERY] = sink_cap * (
        1.0 - spreader_share
    ) + package.convection_capacitance * (1.0 - spreader_share)

    for interface in adjacency.interfaces:
        block_a = floorplan[interface.block_a]
        block_b = floorplan[interface.block_b]
        resistance = lateral_resistance(block_a, block_b, interface, package)
        edges.append(
            (die_node(interface.block_a), die_node(interface.block_b), resistance)
        )
    for block in floorplan:
        for segment in adjacency.boundary_segments(block.name):
            resistance = boundary_resistance(block, segment, package)
            edges.append(
                (die_node(block.name), _SPREADER_EDGE[segment.side], resistance)
            )
    for block in floorplan:
        resistance = vertical_resistance(block, package)
        edges.append((die_node(block.name), SPREADER_CENTER, resistance))
    centre_to_edge = spreader_centre_to_edge_resistance(package)
    for edge_name in _SPREADER_EDGE.values():
        edges.append((SPREADER_CENTER, edge_name, centre_to_edge))
    stack = spreader_to_sink_resistance(package)
    edges.append((SPREADER_CENTER, SINK_CENTER, stack))
    for edge_name in _SPREADER_EDGE.values():
        edges.append((edge_name, SINK_PERIPHERY, stack * 4.0))
    sink_radial = package.sink_material.conduction_resistance(
        package.sink_thickness, package.sink_thickness * 4.0 * package.spreader_side
    )
    edges.append((SINK_CENTER, SINK_PERIPHERY, sink_radial))
    ground.append((SINK_CENTER, package.convection_resistance / spreader_share))
    ground.append(
        (SINK_PERIPHERY, package.convection_resistance / (1.0 - spreader_share))
    )

    names = tuple(capacitance)
    index = {name: i for i, name in enumerate(names)}
    conductance = np.zeros((len(names), len(names)))
    for node_a, node_b, resistance in edges:
        g = 1.0 / resistance
        i, j = index[node_a], index[node_b]
        conductance[i, i] += g
        conductance[j, j] += g
        conductance[i, j] -= g
        conductance[j, i] -= g
    for node, resistance in ground:
        i = index[node]
        conductance[i, i] += 1.0 / resistance
    return names, conductance, np.array([capacitance[name] for name in names])
