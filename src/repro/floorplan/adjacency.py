"""Thermal adjacency extraction from a floorplan.

The RC thermal model (both the full simulator and the paper's
test-session model) needs, for every block:

* which other blocks it touches, through which side, and over what
  shared edge length — this sizes the lateral block-to-block thermal
  resistance;
* how much of its perimeter lies on the die boundary — this sizes the
  lateral block-to-die-edge resistance (the ``R_4,W`` / ``R_4,S`` paths
  of the paper's Figure 3);
* how much of its perimeter faces *uncovered* die area, when the blocks
  do not tile the die completely.

This module computes all of that once per floorplan and exposes it as an
:class:`AdjacencyMap` plus a :func:`adjacency_graph` view as a
``networkx.Graph`` for analysis and tests (the only part of the library
that needs ``networkx``, which is not one of its dependencies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..errors import FloorplanError, GeometryError
from .floorplan import Floorplan
from .geometry import GEOM_TOL, Side, meeting_pairs, overlapping

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Interface:
    """A shared edge between two blocks.

    Attributes
    ----------
    block_a, block_b:
        Names of the touching blocks (``block_a < block_b`` lexically so
        each physical interface appears exactly once).
    side_of_a:
        The side of *block_a* that touches *block_b*.
    length:
        Shared edge length in metres.
    """

    block_a: str
    block_b: str
    side_of_a: Side
    length: float

    def other(self, name: str) -> str:
        """The block on the opposite side of the interface from *name*."""
        if name == self.block_a:
            return self.block_b
        if name == self.block_b:
            return self.block_a
        raise FloorplanError(f"block {name!r} is not part of interface {self!r}")

    def side_of(self, name: str) -> Side:
        """The side of the named block that this interface occupies."""
        if name == self.block_a:
            return self.side_of_a
        if name == self.block_b:
            return self.side_of_a.opposite
        raise FloorplanError(f"block {name!r} is not part of interface {self!r}")


@dataclass(frozen=True)
class BoundarySegment:
    """A stretch of a block's side that lies on the die boundary."""

    block: str
    side: Side
    length: float


#: Side codes of the adjacency arrays, in
#: :func:`~repro.floorplan.geometry.boundary_exposure` order.
SIDES = (Side.NORTH, Side.SOUTH, Side.EAST, Side.WEST)

#: Per side code, whether the side runs horizontally (north/south): a
#: lookup array for consumers that index it with the side-code arrays.
HORIZONTAL = np.array([side.is_horizontal for side in SIDES])
HORIZONTAL.flags.writeable = False

#: Each side's code.
_CODE = {side: code for code, side in enumerate(SIDES)}


class AdjacencyMap:
    """Precomputed adjacency information for one floorplan.

    Built once and then queried by the thermal network builder and by
    the session thermal model.  A sort-and-sweep over the blocks
    (:func:`~repro.floorplan.geometry.meeting_pairs`) proposes the pairs
    whose tolerance-widened rectangles meet, and the test of
    :func:`~repro.floorplan.geometry.shared_edge` runs on those pairs as
    array operations: O(n log n + k) time and O(n + k) memory, *k* the
    proposed pairs (a block and its column-mates in a grid).  The
    interfaces come out in the order of a double loop over the blocks,
    with the floats ``shared_edge`` and
    :func:`~repro.floorplan.geometry.boundary_exposure` compute; the
    :class:`Interface` and :class:`BoundarySegment` objects are made on
    first query.
    :attr:`Floorplan.adjacency <repro.floorplan.floorplan.Floorplan.adjacency>`
    holds the shared default-tolerance map of a floorplan.

    Besides those object views, the map keeps the same data as
    read-only arrays for array consumers (the resistance table):
    ``interface_blocks`` ``(k, 2)`` holds the
    floorplan indices of each interface's blocks, lower index first;
    ``interface_sides`` the code in :data:`SIDES` of the lower-index
    block's side and ``interface_lengths`` the shared lengths;
    ``segment_blocks``, ``segment_sides`` and ``segment_lengths``
    describe the die-boundary segments in block order, each block's in
    :data:`SIDES` order.  :data:`HORIZONTAL` tells which side codes
    are north/south.
    """

    def __init__(self, floorplan: Floorplan, tol: float = GEOM_TOL) -> None:
        self._floorplan = floorplan
        rects = floorplan.rect_array
        x, y, width, height = rects.T
        x2, y2 = x + width, y + height

        # shared_edge(a, b, tol) on every proposed pair, a the lower index.
        a, b = meeting_pairs(rects, 2.0 * tol if tol > 0.0 else 0.0)
        along_y = np.minimum(y2[a], y2[b]) - np.maximum(y[a], y[b])
        along_x = np.minimum(x2[a], x2[b]) - np.maximum(x[a], x[b])
        side = np.select(
            [
                (np.abs(x2[a] - x[b]) <= tol) & (along_y > tol),
                (np.abs(x2[b] - x[a]) <= tol) & (along_y > tol),
                (np.abs(y2[a] - y[b]) <= tol) & (along_x > tol),
                (np.abs(y2[b] - y[a]) <= tol) & (along_x > tol),
            ],
            [_CODE[Side.EAST], _CODE[Side.WEST], _CODE[Side.NORTH], _CODE[Side.SOUTH]],
            -1,
        )
        touching = (side >= 0) & ~overlapping(rects, a, b, tol)
        side = side[touching]
        self.interface_blocks = _frozen(np.stack([a[touching], b[touching]], 1))
        self.interface_sides = _frozen(side)
        self.interface_lengths = _frozen(
            np.where(HORIZONTAL[side], along_x[touching], along_y[touching])
        )

        # boundary_exposure(block, outline, tol) on every block.
        outline = floorplan.outline
        contained = (
            (x >= outline.x - tol)
            & (y >= outline.y - tol)
            & (x2 <= outline.x2 + tol)
            & (y2 <= outline.y2 + tol)
        )
        if not contained.all():
            stray = floorplan.blocks[int(np.argmin(contained))].rect
            raise GeometryError(
                f"block {stray!r} is not contained in the die outline {outline!r}"
            )
        flush = {
            Side.NORTH: np.abs(y2 - outline.y2) <= tol,
            Side.SOUTH: np.abs(y - outline.y) <= tol,
            Side.EAST: np.abs(x2 - outline.x2) <= tol,
            Side.WEST: np.abs(x - outline.x) <= tol,
        }
        blocks, sides = np.nonzero(np.stack([flush[side] for side in SIDES], 1))
        self.segment_blocks = _frozen(blocks)
        self.segment_sides = _frozen(sides)
        self.segment_lengths = _frozen(
            np.where(HORIZONTAL[sides], width[blocks], height[blocks])
        )

    @cached_property
    def _views(
        self,
    ) -> tuple[
        list[Interface], dict[str, list[Interface]], dict[str, list[BoundarySegment]]
    ]:
        """The object views of the arrays, built on first query."""
        names = self._floorplan.block_names
        interfaces: list[Interface] = []
        for i, j, code, length in zip(
            self.interface_blocks[:, 0].tolist(),
            self.interface_blocks[:, 1].tolist(),
            self.interface_sides.tolist(),
            self.interface_lengths.tolist(),
        ):
            # An interface names its blocks in lexical order.
            side = SIDES[code]
            if names[i] < names[j]:
                interfaces.append(Interface(names[i], names[j], side, length))
            else:
                interfaces.append(Interface(names[j], names[i], side.opposite, length))
        by_block: dict[str, list[Interface]] = {name: [] for name in names}
        for interface in interfaces:
            by_block[interface.block_a].append(interface)
            by_block[interface.block_b].append(interface)
        boundary: dict[str, list[BoundarySegment]] = {name: [] for name in names}
        for i, code, length in zip(
            self.segment_blocks.tolist(),
            self.segment_sides.tolist(),
            self.segment_lengths.tolist(),
        ):
            boundary[names[i]].append(BoundarySegment(names[i], SIDES[code], length))
        return interfaces, by_block, boundary

    # -- queries -----------------------------------------------------------------

    @property
    def floorplan(self) -> Floorplan:
        """The floorplan this map was built from."""
        return self._floorplan

    @property
    def interfaces(self) -> tuple[Interface, ...]:
        """All block-to-block interfaces (each physical edge once)."""
        return tuple(self._views[0])

    def interfaces_of(self, name: str) -> tuple[Interface, ...]:
        """All interfaces that involve the named block."""
        try:
            return tuple(self._views[1][name])
        except KeyError:
            raise FloorplanError(f"unknown block {name!r}") from None

    def neighbours(self, name: str) -> tuple[str, ...]:
        """Names of the blocks edge-adjacent to the named block."""
        return tuple(i.other(name) for i in self.interfaces_of(name))

    def boundary_segments(self, name: str) -> tuple[BoundarySegment, ...]:
        """Die-boundary segments of the named block."""
        try:
            return tuple(self._views[2][name])
        except KeyError:
            raise FloorplanError(f"unknown block {name!r}") from None

    def boundary_length(self, name: str) -> float:
        """Total perimeter of the named block lying on the die boundary."""
        return math.fsum(s.length for s in self.boundary_segments(name))

    def interface_between(self, a: str, b: str) -> Interface | None:
        """The interface between two named blocks, or None."""
        for interface in self.interfaces_of(a):
            if interface.other(a) == b:
                return interface
        return None

    def iter_block_names(self) -> Iterator[str]:
        """Iterate block names in canonical floorplan order."""
        return iter(self._floorplan.block_names)

    # -- diagnostics --------------------------------------------------------------

    def unaccounted_perimeter(self, name: str) -> float:
        """Perimeter of the block facing neither a neighbour nor the die edge.

        Non-zero only when the floorplan does not fully tile the die
        (white space).  The thermal builder treats such perimeter as
        adiabatic, which matches HotSpot's block-mode behaviour for
        non-tiling floorplans.
        """
        block = self._floorplan[name]
        accounted = math.fsum(
            i.length for i in self.interfaces_of(name)
        ) + self.boundary_length(name)
        return max(0.0, block.rect.perimeter - accounted)

    def is_fully_tiled(self, rel_tol: float = 1e-6) -> bool:
        """True when every block edge faces either a neighbour or the die edge."""
        for name in self.iter_block_names():
            block = self._floorplan[name]
            if self.unaccounted_perimeter(name) > rel_tol * block.rect.perimeter:
                return False
        return True


def _frozen(array: np.ndarray) -> np.ndarray:
    """*array*, marked read-only (the map is shared between consumers)."""
    array.flags.writeable = False
    return array


def adjacency_graph(adjacency: AdjacencyMap) -> nx.Graph:
    """A ``networkx`` view of the block adjacency.

    Nodes are block names (with ``area`` attributes); edges carry the
    shared edge ``length``.  Used by tests (connectivity, symmetry) and
    available to users for floorplan analysis; needs ``networkx``
    installed.
    """
    import networkx as nx

    graph = nx.Graph(name=adjacency.floorplan.name)
    for block in adjacency.floorplan:
        graph.add_node(block.name, area=block.area)
    for interface in adjacency.interfaces:
        graph.add_edge(
            interface.block_a,
            interface.block_b,
            length=interface.length,
            side_of_a=interface.side_of_a.value,
        )
    return graph
