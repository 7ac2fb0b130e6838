"""Construct the full RC thermal network for a floorplan + package.

Network topology (a block-mode HotSpot work-alike)::

    die:<block>  --lateral R--  die:<neighbour>          (per shared edge)
    die:<block>  --rim R------  spreader:<side>          (per die-edge segment)
    die:<block>  --vertical R-  spreader:center          (die + TIM + spreading)
    spreader:center --R-- spreader:{north,south,east,west}
    spreader:center --R-- sink:center
    spreader:<side> --R-- sink:periphery
    sink:center --R-- sink:periphery
    sink:center    --R_conv(center share)---> ambient
    sink:periphery --R_conv(periphery share)-> ambient

Each die block carries the heat capacity of its silicon volume; the
spreader and sink plates are split between their centre and peripheral
nodes by area share.  The topology mirrors HotSpot's block-mode package
model with the spreader/sink periphery lumped per side (spreader) and
overall (sink), which keeps the node count at ``n_blocks + 7``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ThermalModelError
from ..floorplan.adjacency import SIDES, AdjacencyMap
from ..floorplan.floorplan import Floorplan
from ..floorplan.geometry import Side
from .package import PackageConfig
from .rc_network import CompiledNetwork, ThermalNetwork
from .resistances import (
    resistance_table,
    spreader_centre_to_edge_resistance,
    spreader_to_sink_resistance,
)

#: Node-name prefixes / fixed names used by the builder.
DIE_PREFIX = "die:"
SPREADER_CENTER = "spreader:center"
SINK_CENTER = "sink:center"
SINK_PERIPHERY = "sink:periphery"

_SPREADER_EDGE = {
    Side.NORTH: "spreader:north",
    Side.SOUTH: "spreader:south",
    Side.EAST: "spreader:east",
    Side.WEST: "spreader:west",
}


def die_node(block_name: str) -> str:
    """Network node name of a floorplan block."""
    return DIE_PREFIX + block_name


@dataclass(frozen=True)
class BuiltModel:
    """Result of :func:`build_thermal_network`.

    Attributes
    ----------
    network:
        The compiled RC network.
    floorplan, adjacency, package:
        The inputs, retained for downstream consumers (the simulator
        facade and the session thermal model share them).
    """

    network: CompiledNetwork
    floorplan: Floorplan
    adjacency: AdjacencyMap
    package: PackageConfig


def build_thermal_network(
    floorplan: Floorplan,
    package: PackageConfig,
    adjacency: AdjacencyMap | None = None,
) -> BuiltModel:
    """Build and compile the full thermal network for a floorplan.

    The die's nodes and its lateral, rim and vertical edges are added as
    arrays from the floorplan's :func:`resistance_table`, one call per
    edge family, in the order: interfaces, each block's die-edge
    segments, each block's vertical stack; the package nodes and edges
    follow.

    Parameters
    ----------
    floorplan:
        Validated floorplan.
    package:
        Package stack parameters.
    adjacency:
        Optional custom adjacency map (the floorplan's shared map when
        omitted), built on this floorplan or on one with the same
        blocks in the same order.

    Returns
    -------
    BuiltModel
        Compiled network plus the inputs for downstream use.

    Raises
    ------
    ThermalModelError
        If *adjacency* was built on a floorplan whose block names, order
        or rectangles differ from *floorplan*'s.
    """
    if adjacency is None:
        adjacency = floorplan.adjacency
    mapped = adjacency.floorplan
    if mapped is not floorplan and (
        mapped.block_names != floorplan.block_names
        or not np.array_equal(mapped.rect_array, floorplan.rect_array)
    ):
        raise ThermalModelError(
            f"adjacency map of floorplan {mapped.name!r} does not match floorplan "
            f"{floorplan.name!r}: the blocks, their order or their geometry differ"
        )
    table = resistance_table(adjacency, package)

    net = ThermalNetwork()

    # Die block nodes, each with its silicon heat capacity.
    _, _, width, height = floorplan.rect_array.T
    die = net.add_nodes(
        [die_node(name) for name in floorplan.block_names],
        package.die_material.slab_capacitance(package.die_thickness, width * height),
    )

    # Package nodes.  Plate capacitances are split by area share: the
    # spreader centre covers the die footprint, the sink centre covers
    # the spreader footprint.
    spreader_cap = package.spreader_material.slab_capacitance(
        package.spreader_thickness, package.spreader_area
    )
    die_share = min(1.0, floorplan.die_area / package.spreader_area)
    net.add_node(SPREADER_CENTER, spreader_cap * die_share)
    for edge_name in _SPREADER_EDGE.values():
        net.add_node(edge_name, spreader_cap * (1.0 - die_share) / 4.0)

    sink_cap = package.sink_material.slab_capacitance(
        package.sink_thickness, package.sink_area
    )
    spreader_share = package.spreader_area / package.sink_area
    net.add_node(
        SINK_CENTER,
        sink_cap * spreader_share + package.convection_capacitance * spreader_share,
    )
    net.add_node(
        SINK_PERIPHERY,
        sink_cap * (1.0 - spreader_share)
        + package.convection_capacitance * (1.0 - spreader_share),
    )

    # Lateral die conduction.
    net.add_resistances(
        die[adjacency.interface_blocks[:, 0]],
        die[adjacency.interface_blocks[:, 1]],
        table.lateral,
    )

    # Die rim escape paths into the package periphery.
    rim_nodes = np.array([net.index_of(_SPREADER_EDGE[side]) for side in SIDES])
    net.add_resistances(
        die[adjacency.segment_blocks], rim_nodes[adjacency.segment_sides], table.rim
    )

    # Vertical per-block paths into the spreader body.
    net.add_resistances(
        die, np.full(len(die), net.index_of(SPREADER_CENTER)), table.vertical
    )

    # Spreader internal conduction and the spreader-to-sink stack.
    centre_to_edge = spreader_centre_to_edge_resistance(package)
    for edge_name in _SPREADER_EDGE.values():
        net.add_resistance(SPREADER_CENTER, edge_name, centre_to_edge)
    stack = spreader_to_sink_resistance(package)
    net.add_resistance(SPREADER_CENTER, SINK_CENTER, stack)
    # Each spreader peripheral quadrant conducts into the sink periphery
    # through a quarter of the plate area.
    for edge_name in _SPREADER_EDGE.values():
        net.add_resistance(edge_name, SINK_PERIPHERY, stack * 4.0)

    # Radial conduction inside the sink base plate.
    sink_radial = package.sink_material.conduction_resistance(
        package.sink_thickness,
        # Effective cross-section: sink thickness times the perimeter of
        # the spreader footprint, over half the annulus width.
        package.sink_thickness * 4.0 * package.spreader_side,
    )
    net.add_resistance(SINK_CENTER, SINK_PERIPHERY, sink_radial)

    # Convection, split by footprint share so the parallel combination
    # equals the configured total convection resistance.
    net.add_ground_resistance(
        SINK_CENTER, package.convection_resistance / spreader_share
    )
    net.add_ground_resistance(
        SINK_PERIPHERY, package.convection_resistance / (1.0 - spreader_share)
    )

    return BuiltModel(net.compile(), floorplan, adjacency, package)
