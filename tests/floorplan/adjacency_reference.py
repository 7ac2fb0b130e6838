"""Pairwise reference implementations of the floorplan's geometry passes.

Written for clarity, not speed: :func:`reference_adjacency` tests every
pair of blocks with :func:`~repro.floorplan.geometry.shared_edge` in a
double loop and every block with
:func:`~repro.floorplan.geometry.boundary_exposure`, and
:func:`reference_overlap_error` scans every pair with
:meth:`Rect.overlaps <repro.floorplan.geometry.Rect.overlaps>`.
:class:`~repro.floorplan.adjacency.AdjacencyMap` and the
:class:`~repro.floorplan.floorplan.Floorplan` validator must reproduce
them exactly: the same interfaces in the same order with the same
floats, and the same first overlapping pair.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.floorplan.adjacency import BoundarySegment, Interface
from repro.floorplan.floorplan import Block, Floorplan
from repro.floorplan.geometry import GEOM_TOL, boundary_exposure, shared_edge


@dataclass
class ReferenceAdjacency:
    """What the pairwise scan finds: the data an ``AdjacencyMap`` exposes."""

    interfaces: list[Interface]
    by_block: dict[str, list[Interface]]
    boundary: dict[str, list[BoundarySegment]]


def reference_adjacency(
    floorplan: Floorplan, tol: float = GEOM_TOL
) -> ReferenceAdjacency:
    """Interfaces and die-boundary segments by an O(n^2) pair scan."""
    interfaces: list[Interface] = []
    by_block: dict[str, list[Interface]] = {b.name: [] for b in floorplan}
    boundary: dict[str, list[BoundarySegment]] = {b.name: [] for b in floorplan}

    blocks = list(floorplan)
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            edge = shared_edge(a.rect, b.rect, tol)
            if edge is None:
                continue
            side_of_a, length = edge
            first, second = sorted((a.name, b.name))
            side = side_of_a if first == a.name else side_of_a.opposite
            interface = Interface(first, second, side, length)
            interfaces.append(interface)
            by_block[a.name].append(interface)
            by_block[b.name].append(interface)

    for block in blocks:
        exposure = boundary_exposure(block.rect, floorplan.outline, tol)
        for side, length in exposure.items():
            boundary[block.name].append(BoundarySegment(block.name, side, length))
    return ReferenceAdjacency(interfaces, by_block, boundary)


def reference_overlap_error(blocks: list[Block]) -> str | None:
    """The validator's message for the first overlapping pair, or None."""
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            if a.rect.overlaps(b.rect):
                overlap = a.rect.overlap_area(b.rect)
                return (
                    f"blocks {a.name!r} and {b.name!r} overlap "
                    f"(intersection area {overlap:.3e} m^2)"
                )
    return None


def reference_fingerprint(adjacency: ReferenceAdjacency, floorplan: Floorplan) -> str:
    """The adjacency fingerprint, hashed from the objects one at a time."""
    digest = hashlib.sha256()
    for interface in adjacency.interfaces:
        digest.update(
            f"{interface.block_a}|{interface.block_b}|{interface.side_of_a}|"
            f"{interface.length!r};".encode()
        )
    for name in floorplan.block_names:
        for segment in adjacency.boundary[name]:
            digest.update(
                f"@{segment.block}|{segment.side}|{segment.length!r};".encode()
            )
    return digest.hexdigest()
