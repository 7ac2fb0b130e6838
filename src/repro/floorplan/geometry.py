"""Rectilinear geometry primitives for floorplans.

Floorplan blocks are axis-aligned rectangles on the die plane.  The
thermal model needs exact adjacency information: which blocks share an
edge, how long the shared segment is, and how much of each block's
perimeter faces the die boundary.  This module provides those primitives
with explicit tolerance handling, because floorplans written by humans
(or parsed from HotSpot ``.flp`` files) routinely carry 1e-6 m rounding
noise at block seams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import GeometryError

#: Geometric tolerance in metres.  Two coordinates closer than this are
#: considered equal.  1e-7 m = 0.1 micron, far below any feature size a
#: block-level floorplan would express (blocks are 0.1 mm and up).
GEOM_TOL = 1e-7


class Side(Enum):
    """The four sides of an axis-aligned rectangle."""

    NORTH = "north"
    SOUTH = "south"
    EAST = "east"
    WEST = "west"

    @property
    def opposite(self) -> "Side":
        """The facing side on a neighbouring rectangle."""
        return _OPPOSITE[self]

    @property
    def is_horizontal(self) -> bool:
        """True for NORTH/SOUTH (edges that run horizontally)."""
        return self in (Side.NORTH, Side.SOUTH)


_OPPOSITE = {
    Side.NORTH: Side.SOUTH,
    Side.SOUTH: Side.NORTH,
    Side.EAST: Side.WEST,
    Side.WEST: Side.EAST,
}


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle: origin at the lower-left corner.

    Follows the HotSpot ``.flp`` convention: ``(x, y)`` is the left-bottom
    corner, ``width`` extends along +x (east), ``height`` along +y
    (north).  All values are metres.

    Instances are immutable and hashable so they can key dictionaries
    and be shared between floorplans safely.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.width, self.height)):
            raise GeometryError(f"rectangle has non-finite coordinates: {self!r}")
        if self.width <= GEOM_TOL or self.height <= GEOM_TOL:
            raise GeometryError(
                f"rectangle must have positive width and height "
                f"(got width={self.width!r}, height={self.height!r})"
            )

    # -- derived coordinates ------------------------------------------------

    @property
    def x2(self) -> float:
        """Right (east) edge x-coordinate."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top (north) edge y-coordinate."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Area in square metres."""
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        """Perimeter length in metres."""
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> tuple[float, float]:
        """Centre point ``(cx, cy)``."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def aspect_ratio(self) -> float:
        """Width divided by height."""
        return self.width / self.height

    def side_length(self, side: Side) -> float:
        """Length of the given side (width for N/S, height for E/W)."""
        return self.width if side.is_horizontal else self.height

    def side_coordinate(self, side: Side) -> float:
        """The fixed coordinate of the given side.

        NORTH -> y2, SOUTH -> y, EAST -> x2, WEST -> x.
        """
        if side is Side.NORTH:
            return self.y2
        if side is Side.SOUTH:
            return self.y
        if side is Side.EAST:
            return self.x2
        return self.x

    # -- predicates ----------------------------------------------------------

    def contains_point(self, px: float, py: float, tol: float = GEOM_TOL) -> bool:
        """True if ``(px, py)`` lies inside or on the boundary."""
        return (
            self.x - tol <= px <= self.x2 + tol
            and self.y - tol <= py <= self.y2 + tol
        )

    def contains_rect(self, other: "Rect", tol: float = GEOM_TOL) -> bool:
        """True if *other* lies entirely inside (or on the boundary of) self."""
        return (
            other.x >= self.x - tol
            and other.y >= self.y - tol
            and other.x2 <= self.x2 + tol
            and other.y2 <= self.y2 + tol
        )

    def overlaps(self, other: "Rect", tol: float = GEOM_TOL) -> bool:
        """True if the open interiors of the two rectangles intersect.

        Rectangles that merely touch along an edge or a corner do *not*
        overlap: that is the adjacency case handled by
        :func:`shared_edge`.
        """
        return (
            self.x < other.x2 - tol
            and other.x < self.x2 - tol
            and self.y < other.y2 - tol
            and other.y < self.y2 - tol
        )

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection (0.0 when disjoint or merely touching)."""
        dx = min(self.x2, other.x2) - max(self.x, other.x)
        dy = min(self.y2, other.y2) - max(self.y, other.y)
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "Rect":
        """Build a rectangle from two opposite corners (any order)."""
        x_low, x_high = min(x1, x2), max(x1, x2)
        y_low, y_high = min(y1, y2), max(y1, y2)
        return cls(x_low, y_low, x_high - x_low, y_high - y_low)

    def translated(self, dx: float, dy: float) -> "Rect":
        """A copy of this rectangle shifted by ``(dx, dy)``."""
        return Rect(self.x + dx, self.y + dy, self.width, self.height)

    def scaled(self, factor: float) -> "Rect":
        """A copy with all coordinates multiplied by *factor* (about origin)."""
        if factor <= 0.0:
            raise GeometryError(f"scale factor must be positive, got {factor!r}")
        return Rect(self.x * factor, self.y * factor, self.width * factor, self.height * factor)


def _interval_overlap(a1: float, a2: float, b1: float, b2: float) -> float:
    """Length of the overlap between intervals [a1,a2] and [b1,b2]."""
    return min(a2, b2) - max(a1, b1)


def shared_edge(a: Rect, b: Rect, tol: float = GEOM_TOL) -> tuple[Side, float] | None:
    """Detect edge adjacency between two rectangles.

    Returns ``(side, length)`` where *side* is the side of **a** that
    touches **b** and *length* is the length of the shared segment, or
    ``None`` if the rectangles are not edge-adjacent.  Corner-only
    contact (shared segment of length <= *tol*) is not adjacency: no
    meaningful heat flows through a zero-width interface in a
    block-level model.

    The test requires the facing edges to be coincident within *tol*;
    overlapping rectangles are reported as non-adjacent (the floorplan
    validator rejects them separately).
    """
    if a.overlaps(b, tol):
        return None

    # Vertical adjacency: a's EAST edge against b's WEST edge, or vice versa.
    if abs(a.x2 - b.x) <= tol:
        length = _interval_overlap(a.y, a.y2, b.y, b.y2)
        if length > tol:
            return (Side.EAST, length)
    if abs(b.x2 - a.x) <= tol:
        length = _interval_overlap(a.y, a.y2, b.y, b.y2)
        if length > tol:
            return (Side.WEST, length)

    # Horizontal adjacency: a's NORTH edge against b's SOUTH edge, or vice versa.
    if abs(a.y2 - b.y) <= tol:
        length = _interval_overlap(a.x, a.x2, b.x, b.x2)
        if length > tol:
            return (Side.NORTH, length)
    if abs(b.y2 - a.y) <= tol:
        length = _interval_overlap(a.x, a.x2, b.x, b.x2)
        if length > tol:
            return (Side.SOUTH, length)

    return None


def boundary_exposure(block: Rect, outline: Rect, tol: float = GEOM_TOL) -> dict[Side, float]:
    """Length of each side of *block* that lies on the *outline* boundary.

    Used to model the die-edge heat path: a block flush with the die
    boundary has no lateral neighbour on that side, and in the paper's
    session thermal model the corresponding resistance connects the
    block to the package via the die edge (e.g. ``R_4,W`` and ``R_4,S``
    in Figure 3 connect core 4 to the west and south die edges).

    Returns a mapping from side to exposed length; sides not flush with
    the outline are omitted.
    """
    if not outline.contains_rect(block, tol):
        raise GeometryError(
            f"block {block!r} is not contained in the die outline {outline!r}"
        )
    exposure: dict[Side, float] = {}
    if abs(block.y2 - outline.y2) <= tol:
        exposure[Side.NORTH] = block.width
    if abs(block.y - outline.y) <= tol:
        exposure[Side.SOUTH] = block.width
    if abs(block.x2 - outline.x2) <= tol:
        exposure[Side.EAST] = block.height
    if abs(block.x - outline.x) <= tol:
        exposure[Side.WEST] = block.height
    return exposure


def meeting_pairs(
    rects: np.ndarray, slack: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of rectangles whose closed boxes meet, by sort-and-sweep.

    *rects* is an ``(n, 4)`` array of ``x, y, width, height`` rows (see
    :attr:`Floorplan.rect_array <repro.floorplan.floorplan.Floorplan.rect_array>`);
    each box is widened by *slack* on every side first.  Sorted by
    their lower edge along one axis, the boxes a box can meet along that
    axis form one run after it: those starting no later than it ends.
    The sweep takes the axis whose runs are shorter in total and keeps
    the pairs that meet along the other axis too.  O(n log n + k) time
    and O(n + k) memory, *k* the pairs whose extents meet along the
    swept axis (a block and its column-mates in a grid).

    Returns index arrays ``(i, j)`` with ``i < j``, in lexicographic
    order: the order of a double loop over the boxes.
    """
    low = rects[:, :2] - slack
    high = rects[:, :2] + rects[:, 2:] + slack
    n = len(low)
    following = np.arange(1, n + 1)
    runs = []
    for axis in (0, 1):
        order = np.argsort(low[:, axis], kind="stable")
        stop = np.searchsorted(low[order, axis], high[order, axis], side="right")
        runs.append((order, stop - following))
    order, counts = min(runs, key=lambda run: int(run[1].sum()))
    # The p-th box in sorted order pairs with sorted positions p+1 .. stop-1.
    first = np.repeat(order, counts)
    step = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    second = order[np.repeat(following, counts) + step]
    i = np.minimum(first, second)
    j = np.maximum(first, second)
    meet = np.all((low[j] <= high[i]) & (low[i] <= high[j]), axis=1)
    i, j = i[meet], j[meet]
    loop_order = np.lexsort((j, i))
    return i[loop_order], j[loop_order]


def overlapping(
    rects: np.ndarray, i: np.ndarray, j: np.ndarray, tol: float = GEOM_TOL
) -> np.ndarray:
    """:meth:`Rect.overlaps` of each pair ``(rects[i], rects[j])``, as an array.

    *rects* holds ``x, y, width, height`` rows as for
    :func:`meeting_pairs`; the test and its floats are those of
    :meth:`Rect.overlaps` with tolerance *tol*.
    """
    x, y, width, height = rects.T
    x2, y2 = x + width, y + height
    return (
        (x[i] < x2[j] - tol)
        & (x[j] < x2[i] - tol)
        & (y[i] < y2[j] - tol)
        & (y[j] < y2[i] - tol)
    )


def bounding_box(rects: list[Rect]) -> Rect:
    """The smallest rectangle enclosing all *rects*."""
    if not rects:
        raise GeometryError("bounding_box() of an empty rectangle list")
    x1 = min(r.x for r in rects)
    y1 = min(r.y for r in rects)
    x2 = max(r.x2 for r in rects)
    y2 = max(r.y2 for r in rects)
    return Rect.from_corners(x1, y1, x2, y2)


def total_area(rects: list[Rect]) -> float:
    """Sum of the areas of non-overlapping rectangles.

    The caller is responsible for ensuring the rectangles do not overlap
    (the floorplan validator checks this); the value is then also the
    area of their union.
    """
    return math.fsum(r.area for r in rects)
