"""Thermal resistance formulas shared by the full RC model and the
test-session thermal model.

This module is the single source of truth for how a floorplan turns
into resistances.  The paper's session thermal model (Section 2) is
*derived from* the full RC-equivalent model by dropping capacitances
and rewiring resistances (modifications M1-M3); implementing both on
top of the same formulas guarantees that derivation relationship holds
in code as it does in the paper.

Three resistance families exist:

* **lateral block-to-block** (:func:`lateral_interface_resistance`) —
  conduction through the die from the centre of one block to the centre
  of its neighbour across their shared edge;
* **lateral block-to-die-edge** (:func:`boundary_edge_resistance`) —
  conduction from a block's centre to the die rim plus the rim's weak
  coupling into the package periphery (the ``R_2,N`` style paths of the
  paper's Figure 3);
* **vertical** (:func:`vertical_stack_resistance` and the split parts
  used by the network builder) — conduction from a block upward through
  the remaining die thickness, the TIM, and into the spreader,
  including a spreading (constriction) term that penalises small,
  power-dense blocks.

The formulas are written once, on numbers or NumPy arrays alike:
:func:`resistance_table` evaluates them for every interface, die-edge
segment and block of a network in a few array passes, and the
per-element functions below evaluate them for one.  The full network
builder and the session model both read the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..floorplan.adjacency import (
    HORIZONTAL,
    AdjacencyMap,
    BoundarySegment,
    Interface,
)
from ..floorplan.floorplan import Block
from .materials import Value
from .package import PackageConfig


def _half_path(extent: Value, shared_length: Value, package: PackageConfig) -> Value:
    """Resistance from a block's centre to one of its edges.

    1-D conduction across half the block *extent* perpendicular to the
    edge, through the die cross-section ``die_thickness x shared_length``.
    """
    area = package.die_thickness * shared_length
    return (extent / 2.0) / (package.die_material.conductivity * area)


def _rim_path(extent: Value, length: Value, package: PackageConfig) -> Value:
    """Half-path to a die-edge segment in series with its rim escape."""
    return _half_path(extent, length, package) + package.rim_coefficient / length


def _spreading(area: Value, package: PackageConfig) -> Value:
    """Constriction resistance of a source of *area* on the spreader."""
    disc_diameter = 2.0 * np.sqrt(area / math.pi)
    return 1.0 / (2.0 * package.spreader_material.conductivity * disc_diameter)


def _vertical_stack(area: Value, package: PackageConfig) -> Value:
    """Die conduction + TIM + spreading constriction over *area*."""
    return (
        package.die_material.conduction_resistance(package.die_thickness, area)
        + package.tim_material.conduction_resistance(package.tim_thickness, area)
        + _spreading(area, package)
    )


def _extent(block: Block, side_is_horizontal: bool) -> float:
    """The block's extent perpendicular to a side."""
    return block.rect.height if side_is_horizontal else block.rect.width


def lateral_interface_resistance(
    block_a: Block, block_b: Block, interface: Interface, package: PackageConfig
) -> float:
    """Centre-to-centre lateral resistance across a shared edge (K/W).

    Sum of the two half-path resistances; each half conducts through
    the die cross-section under the shared edge segment.
    """
    side_a = interface.side_of(block_a.name)
    side_b = interface.side_of(block_b.name)
    return _half_path(
        _extent(block_a, side_a.is_horizontal), interface.length, package
    ) + _half_path(_extent(block_b, side_b.is_horizontal), interface.length, package)


def boundary_edge_resistance(
    block: Block, segment: BoundarySegment, package: PackageConfig
) -> float:
    """Resistance from a block's centre through the die rim (K/W).

    Half-path conduction from the block centre to the die edge, in
    series with the rim escape path ``rim_coefficient / L``.  The rim
    path dominates (the die edge is a poor heat port), which is the
    physical reason the paper's session model treats passive-neighbour
    paths as the valuable ones.
    """
    return _rim_path(
        _extent(block, segment.side.is_horizontal), segment.length, package
    )


def spreading_resistance(area: float, package: PackageConfig) -> float:
    """Constriction resistance of a small heat source on the spreader (K/W).

    Uses the classic semi-infinite-medium disc formula ``R = 1/(2 k d)``
    with ``d`` the diameter of the equal-area disc; it scales as
    ``1/sqrt(area)`` so small blocks couple into the spreader less
    efficiently than big ones.  This is the term that makes power
    *density* (not just power) matter in the full simulation, which is
    the physical effect the paper's motivational example demonstrates.
    """
    if area <= 0.0:
        raise ValueError(f"block area must be positive, got {area!r}")
    return float(_spreading(area, package))


def vertical_die_resistance(block: Block, package: PackageConfig) -> float:
    """Conduction from the block's heat source plane to the die top (K/W).

    The heat source sits at the transistor layer; heat crosses the die
    thickness over the block footprint.
    """
    return package.die_material.conduction_resistance(
        package.die_thickness, block.area
    )


def vertical_tim_resistance(block: Block, package: PackageConfig) -> float:
    """Conduction through the TIM layer over the block footprint (K/W)."""
    return package.tim_material.conduction_resistance(
        package.tim_thickness, block.area
    )


def vertical_stack_resistance(block: Block, package: PackageConfig) -> float:
    """Total per-block vertical resistance into the spreader body (K/W).

    Die conduction + TIM + spreading constriction.  The network builder
    places this between a die block node and the spreader centre node;
    the session thermal model (when configured to include the vertical
    path) uses the same value in series with the shared spreader-to-
    ambient path.
    """
    return float(_vertical_stack(block.area, package))


def spreader_to_sink_resistance(package: PackageConfig) -> float:
    """Spreader body to sink base conduction resistance (K/W)."""
    return package.spreader_material.conduction_resistance(
        package.spreader_thickness, package.spreader_area
    ) + package.sink_material.conduction_resistance(
        package.sink_thickness, package.spreader_area
    )


def spreader_centre_to_edge_resistance(package: PackageConfig) -> float:
    """Spreader centre node to one peripheral node (K/W).

    Quarter-plate conduction over half the spreader side; the factor of
    four peripheral nodes splits the plate into quadrants.
    """
    cross_section = package.spreader_thickness * package.spreader_side
    return (package.spreader_side / 2.0) / (
        package.spreader_material.conductivity * cross_section
    )


def sink_convection_resistance(package: PackageConfig) -> float:
    """Sink-to-ambient convection resistance (K/W)."""
    return package.convection_resistance


def shared_path_resistance(package: PackageConfig) -> float:
    """Lumped spreader+sink+convection resistance to ambient (K/W).

    Used by the session thermal model's optional vertical path: every
    active core shares this tail, so it is the series term after the
    per-block :func:`vertical_stack_resistance`.
    """
    return spreader_to_sink_resistance(package) + sink_convection_resistance(package)


#: (adjacency map, package) pairs whose resistance tables each process
#: keeps; an entry is a few floats per block and interface, plus the
#: session models' ``Rth`` memos (:meth:`ResistanceTable.rth_memo`).
RESISTANCE_TABLE_SIZE = 64


@dataclass(frozen=True, eq=False)
class ResistanceTable:
    """Every resistance of one floorplan's network, as arrays (K/W).

    Built by :func:`resistance_table` and shared read-only by the full
    network builder and every session model on the same floorplan and
    package.  ``lateral[t]`` joins the blocks of
    ``adjacency.interface_blocks[t]``, ``rim[s]`` connects block
    ``adjacency.segment_blocks[s]`` to its die edge, ``edge[i]`` is the
    parallel combination of block *i*'s rim paths (``inf`` for a block
    off the die edge) and ``vertical[i]`` its die + TIM + spreading
    stack; ``shared_tail`` is the spreader/sink/convection path every
    block's vertical stack continues into.

    The table also holds the session models' ``Rth`` memos, one per
    model variant (:meth:`rth_memo`), so they live exactly as long as
    the table: until :func:`resistance_table` evicts it and the last
    model or network built from it is gone.
    """

    adjacency: AdjacencyMap
    lateral: np.ndarray
    rim: np.ndarray
    edge: np.ndarray
    vertical: np.ndarray
    shared_tail: float
    _rth_memos: dict[tuple[bool, bool, bool], list[dict[int, float]]] = field(
        default_factory=dict, init=False, repr=False
    )

    @cached_property
    def neighbour_conductances(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per block, each lateral neighbour's index with its path's conductance.

        In interface order, leaving out infinite resistances; the session
        model's pricing kernel reads these.
        """
        pairs = self.adjacency.interface_blocks
        finite = ~np.isinf(self.lateral)
        owner = np.concatenate([pairs[finite, 0], pairs[finite, 1]])
        other = np.concatenate([pairs[finite, 1], pairs[finite, 0]])
        conductance = np.tile(1.0 / self.lateral[finite], 2)
        interface = np.tile(np.flatnonzero(finite), 2)
        order = np.lexsort((interface, owner))
        entries = list(zip(other[order].tolist(), conductance[order].tolist()))
        stops = np.cumsum(np.bincount(owner, minlength=len(self.vertical))).tolist()
        return tuple(
            tuple(entries[start:stop]) for start, stop in zip([0] + stops, stops)
        )

    @cached_property
    def neighbour_bits(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per block *j*, each ``(i, 1 << k)`` where *j* is block *i*'s k-th neighbour.

        Bit *k* of block *i*'s active-neighbour mask stands for the k-th
        entry of ``neighbour_conductances[i]``, so activating block *j*
        sets these bits in its neighbours' masks.  Pairs come in order
        of *i*, then *k*.
        """
        bits: list[list[tuple[int, int]]] = [[] for _ in range(len(self.vertical))]
        for i, entries in enumerate(self.neighbour_conductances):
            for k, (j, _) in enumerate(entries):
                bits[j].append((i, 1 << k))
        return tuple(tuple(pairs) for pairs in bits)

    def escape_conductances(
        self, include_vertical: bool
    ) -> tuple[tuple[float, ...], ...]:
        """Per block, the conductances of the paths no session rewires.

        The die-edge path, then the vertical path (stack plus shared
        tail) when *include_vertical*; infinite resistances are left out.
        """
        return self._escapes[include_vertical]

    @cached_property
    def _escapes(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        edge: list[tuple[float, ...]] = [
            () if math.isinf(r) else (1.0 / r,) for r in self.edge.tolist()
        ]
        vertical: list[tuple[float, ...]] = [
            () if math.isinf(r) else (1.0 / r,)
            for r in (self.vertical + self.shared_tail).tolist()
        ]
        return tuple(edge), tuple(e + v for e, v in zip(edge, vertical))

    def rth_memo(
        self, include_vertical: bool, ground_passive: bool, drop_active_active: bool
    ) -> list[dict[int, float]]:
        """Per block, the session model's ``Rth`` by active-neighbour mask.

        One memo per session-model variant, shared by every
        :class:`~repro.core.session_model.SessionThermalModel` of that
        variant on this table.  A block's ``Rth`` is a function of this
        table, the variant and the mask alone (not of powers, weights
        or ``stc_scale``), so every model fills an entry with the same
        float and concurrent fills need no lock.  Block *i*'s memo holds
        at most ``2 ** len(neighbour_conductances[i])`` entries.
        """
        key = (include_vertical, ground_passive, drop_active_active)
        memo = self._rth_memos.get(key)
        if memo is None:
            # setdefault is atomic: threads racing here share one memo.
            memo = self._rth_memos.setdefault(key, [{} for _ in self.vertical])
        return memo


@lru_cache(maxsize=RESISTANCE_TABLE_SIZE)
def resistance_table(
    adjacency: AdjacencyMap, package: PackageConfig
) -> ResistanceTable:
    """The resistance table of one (adjacency map, package) pair, computed once.

    Keyed by the adjacency map object (a floorplan's shared map, or a
    custom one) and the package's value.  The formulas are the ones the
    per-element functions of this module evaluate, applied to whole
    arrays with the same floating-point operations in the same order,
    so each entry is the float those functions return.
    """
    floorplan = adjacency.floorplan
    _, _, width, height = floorplan.rect_array.T

    a, b = adjacency.interface_blocks.T
    horizontal = HORIZONTAL[adjacency.interface_sides]
    lengths = adjacency.interface_lengths
    lateral = _half_path(
        np.where(horizontal, height[a], width[a]), lengths, package
    ) + _half_path(np.where(horizontal, height[b], width[b]), lengths, package)

    blocks = adjacency.segment_blocks
    horizontal = HORIZONTAL[adjacency.segment_sides]
    rim = _rim_path(
        np.where(horizontal, height[blocks], width[blocks]),
        adjacency.segment_lengths,
        package,
    )
    # parallel() of each block's rim paths: conductances summed in order.
    total = np.zeros(len(floorplan))
    np.add.at(total, blocks, 1.0 / rim)
    edge = np.full(len(floorplan), math.inf)
    np.divide(1.0, total, out=edge, where=total != 0.0)

    vertical = _vertical_stack(width * height, package)
    for array in (lateral, rim, edge, vertical):
        array.flags.writeable = False
    return ResistanceTable(
        adjacency, lateral, rim, edge, vertical, shared_path_resistance(package)
    )
