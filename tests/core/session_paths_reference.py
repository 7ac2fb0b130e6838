"""Name-keyed reference of the session model's escape paths.

Written for clarity, not speed: :func:`reference_paths` derives every
core's lateral neighbour resistances, combined die-edge resistance and
vertical resistance from the scalar formulas of
:mod:`tests.thermal.resistance_reference`, one interface and one
segment at a time, and turns them into the (neighbour index, conductance) pairs and
fixed conductances the pricing kernel reads.
:class:`~repro.core.session_model.SessionThermalModel` must hold the
same tuples bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.floorplan.floorplan import Floorplan
from repro.thermal.package import PackageConfig
from repro.thermal.resistances import shared_path_resistance
from repro.units import parallel

from ..thermal.resistance_reference import (
    boundary_resistance,
    lateral_resistance,
    vertical_resistance,
)


@dataclass(frozen=True)
class ReferencePaths:
    """Resistances by core name, and the kernel's conductances by index."""

    neighbour_r: dict[str, dict[str, float]]
    edge_r: dict[str, float]
    vertical_r: dict[str, float]
    neighbours: tuple[tuple[tuple[int, float], ...], ...]
    fixed: tuple[tuple[float, ...], ...]


def reference_paths(
    floorplan: Floorplan, package: PackageConfig, include_vertical: bool
) -> ReferencePaths:
    """Every power-independent input of the session model for one network."""
    adjacency = floorplan.adjacency

    neighbour_r: dict[str, dict[str, float]] = {
        name: {} for name in floorplan.block_names
    }
    for interface in adjacency.interfaces:
        block_a = floorplan[interface.block_a]
        block_b = floorplan[interface.block_b]
        resistance = lateral_resistance(block_a, block_b, interface, package)
        neighbour_r[block_a.name][block_b.name] = resistance
        neighbour_r[block_b.name][block_a.name] = resistance

    edge_r: dict[str, float] = {}
    for block in floorplan:
        segments = adjacency.boundary_segments(block.name)
        if segments:
            edge_r[block.name] = parallel(
                *(
                    boundary_resistance(block, segment, package)
                    for segment in segments
                )
            )
        else:
            edge_r[block.name] = math.inf

    shared_tail = shared_path_resistance(package)
    vertical_r = {
        block.name: vertical_resistance(block, package) + shared_tail
        for block in floorplan
    }

    neighbours = []
    fixed = []
    for name in floorplan.block_names:
        neighbours.append(
            tuple(
                (floorplan.index_of(neighbour), 1.0 / resistance)
                for neighbour, resistance in neighbour_r[name].items()
                if not math.isinf(resistance)
            )
        )
        fixed_r = [edge_r[name]]
        if include_vertical:
            fixed_r.append(vertical_r[name])
        fixed.append(tuple(1.0 / r for r in fixed_r if not math.isinf(r)))
    return ReferencePaths(
        neighbour_r, edge_r, vertical_r, tuple(neighbours), tuple(fixed)
    )
