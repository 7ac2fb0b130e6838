"""Scalar reference of the per-element resistance formulas.

The lateral, die-edge and vertical resistances of one interface,
segment or block, written out on Python floats one element at a time
(``math.sqrt`` for the spreading term).  They do not call
:mod:`repro.thermal.resistances`, whose formulas the network build and
the session model evaluate on arrays; the oracles built on these
functions therefore pin the floats of the formulas themselves, not only
the array plumbing around them.
"""

from __future__ import annotations

import math

from repro.floorplan.adjacency import BoundarySegment, Interface
from repro.floorplan.floorplan import Block
from repro.thermal.package import PackageConfig


def half_path_resistance(
    block: Block, side_is_horizontal: bool, shared_length: float, package: PackageConfig
) -> float:
    """Centre of *block* to one of its edges, through ``die_thickness x length``."""
    extent = block.rect.height if side_is_horizontal else block.rect.width
    area = package.die_thickness * shared_length
    return (extent / 2.0) / (package.die_material.conductivity * area)


def lateral_resistance(
    block_a: Block, block_b: Block, interface: Interface, package: PackageConfig
) -> float:
    """Centre-to-centre resistance across a shared edge: two half paths."""
    side_a = interface.side_of(block_a.name)
    side_b = interface.side_of(block_b.name)
    return half_path_resistance(
        block_a, side_a.is_horizontal, interface.length, package
    ) + half_path_resistance(block_b, side_b.is_horizontal, interface.length, package)


def boundary_resistance(
    block: Block, segment: BoundarySegment, package: PackageConfig
) -> float:
    """Half path to a die-edge segment in series with its rim escape."""
    half_path = half_path_resistance(
        block, segment.side.is_horizontal, segment.length, package
    )
    rim = package.rim_coefficient / segment.length
    return half_path + rim


def vertical_resistance(block: Block, package: PackageConfig) -> float:
    """Die conduction + TIM + spreading constriction over the block's area."""
    area = block.area
    die = package.die_thickness / (package.die_material.conductivity * area)
    tim = package.tim_thickness / (package.tim_material.conductivity * area)
    disc_diameter = 2.0 * math.sqrt(area / math.pi)
    spreading = 1.0 / (2.0 * package.spreader_material.conductivity * disc_diameter)
    return die + tim + spreading
