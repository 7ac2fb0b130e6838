"""Grid-mode thermal simulation (HotSpot's fine-grained mode).

The block-mode RC model (:mod:`repro.thermal.builder`) lumps every
floorplan block into one node — fast, and faithful to what the paper's
scheduling loop needs.  HotSpot also offers a *grid mode* that
discretises the die into a regular mesh, resolving temperature
gradients *inside* blocks and across block boundaries.  This module
implements that mode:

* the die becomes an ``nx x ny`` mesh of silicon cells with lateral
  conduction between neighbours (``R = pitch / (k * t * width)``);
* every cell conducts vertically (die + TIM) into the same 7-node
  package model the block mode uses (spreader centre/edges, sink
  centre/periphery, convection), so the two modes share the package;
* boundary cells couple into the package periphery through the same
  die-rim coefficient;
* block power is spread uniformly over the cells the block covers
  (by overlap area), matching HotSpot's power mapping.

One physical difference from block mode is intentional: die area not
covered by any block is still silicon here, conducting heat laterally —
block mode treats it as adiabatic because it has no node for it.  On
fully tiled floorplans the two modes agree closely (the cross-check
experiment quantifies it); on sparse layouts grid mode runs slightly
cooler, which is the physically correct direction.

The steady-state system is sparse (5-point stencil plus the package
tail) and solved with a cached ``scipy.sparse`` LU factorisation, so
sweeping hundreds of sessions at 64 x 64 resolution stays interactive.
Only steady state is provided: the paper's modification M1 means the
scheduler never needs grid-mode transients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..errors import SolverError, ThermalModelError
from ..floorplan.floorplan import Floorplan
from ..thermal.package import DEFAULT_PACKAGE, PackageConfig
from .resistances import (
    sink_convection_resistance,
    spreader_centre_to_edge_resistance,
    spreader_to_sink_resistance,
)

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix

#: Default mesh resolution (cells per axis).
DEFAULT_RESOLUTION = 32


@dataclass(frozen=True)
class GridTemperatureField:
    """Steady-state cell temperatures from a grid-mode solve.

    Attributes
    ----------
    ambient_c:
        Ambient temperature (Celsius).
    rises:
        Array of shape ``(ny, nx)``: cell temperature rises above
        ambient, row 0 at the die's south edge.
    cell_cover:
        ``(ny, nx)`` array of block indices covering each cell (-1 for
        uncovered die), used for per-block queries.
    block_names:
        Block index -> name mapping.
    """

    ambient_c: float
    rises: np.ndarray
    cell_cover: np.ndarray
    block_names: tuple[str, ...]

    def temperatures_c(self) -> np.ndarray:
        """Absolute cell temperatures (Celsius), shape ``(ny, nx)``."""
        return self.ambient_c + self.rises

    def max_temperature_c(self) -> float:
        """Hottest cell anywhere on the die."""
        return float(self.ambient_c + self.rises.max())

    def _block_mask(self, name: str) -> np.ndarray:
        try:
            index = self.block_names.index(name)
        except ValueError:
            raise ThermalModelError(f"unknown block {name!r}") from None
        mask = self.cell_cover == index
        if not mask.any():
            raise ThermalModelError(
                f"block {name!r} covers no grid cell; increase the resolution"
            )
        return mask

    def block_max_c(self, name: str) -> float:
        """Hottest cell within the named block (the intra-block hot spot)."""
        return float(self.ambient_c + self.rises[self._block_mask(name)].max())

    def block_mean_c(self, name: str) -> float:
        """Area-averaged temperature of the named block."""
        return float(self.ambient_c + self.rises[self._block_mask(name)].mean())

    def intra_block_gradient_c(self, name: str) -> float:
        """Hottest minus coolest cell inside the block — what block mode
        cannot resolve."""
        cells = self.rises[self._block_mask(name)]
        return float(cells.max() - cells.min())


class GridThermalSimulator:
    """Fine-grained steady-state thermal simulation of one floorplan.

    Parameters
    ----------
    floorplan:
        The die floorplan.
    package:
        Package stack (shared semantics with the block-mode builder).
    nx, ny:
        Mesh resolution (cells per axis).
    """

    def __init__(
        self,
        floorplan: Floorplan,
        package: PackageConfig = DEFAULT_PACKAGE,
        nx: int = DEFAULT_RESOLUTION,
        ny: int = DEFAULT_RESOLUTION,
    ) -> None:
        if nx < 2 or ny < 2:
            raise ThermalModelError(f"grid must be at least 2x2, got {nx}x{ny}")
        self._floorplan = floorplan
        self._package = package
        self._nx = nx
        self._ny = ny
        outline = floorplan.outline
        self._dx = outline.width / nx
        self._dy = outline.height / ny

        self._cell_cover = self._map_blocks_to_cells()
        self._block_cell_counts = {
            index: int((self._cell_cover == index).sum())
            for index in range(len(floorplan))
        }
        uncovered = [
            floorplan.block_names[i]
            for i, count in self._block_cell_counts.items()
            if count == 0
        ]
        if uncovered:
            raise ThermalModelError(
                f"blocks cover no grid cell at {nx}x{ny}: {uncovered}; "
                f"increase the resolution"
            )
        # Deferred: importing the package need not load scipy.sparse.
        from scipy.sparse.linalg import splu

        self._factor = splu(self._assemble_matrix())

    # -- geometry mapping -------------------------------------------------------

    def _map_blocks_to_cells(self) -> np.ndarray:
        """Assign each cell to the block containing its centre (-1: none)."""
        outline = self._floorplan.outline
        cover = np.full((self._ny, self._nx), -1, dtype=int)
        xs = outline.x + (np.arange(self._nx) + 0.5) * self._dx
        ys = outline.y + (np.arange(self._ny) + 0.5) * self._dy
        for index, block in enumerate(self._floorplan):
            r = block.rect
            col_mask = (xs >= r.x) & (xs < r.x2)
            row_mask = (ys >= r.y) & (ys < r.y2)
            cover[np.ix_(row_mask, col_mask)] = index
        return cover

    # -- matrix assembly -----------------------------------------------------------

    def _cell_index(self, row: int, col: int) -> int:
        return row * self._nx + col

    def _assemble_matrix(self) -> csc_matrix:
        pkg = self._package
        n_cells = self._nx * self._ny
        # Package nodes appended after the cells.
        sp_center = n_cells
        sp_edge = {  # south, north, west, east
            "south": n_cells + 1,
            "north": n_cells + 2,
            "west": n_cells + 3,
            "east": n_cells + 4,
        }
        sink_center = n_cells + 5
        sink_periph = n_cells + 6
        self._n_nodes = n_cells + 7
        self._sp_center = sp_center

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def add_conductance(a: int, b: int, resistance: float) -> None:
            g = 1.0 / resistance
            rows.extend((a, b, a, b))
            cols.extend((a, b, b, a))
            vals.extend((g, g, -g, -g))

        def add_ground(a: int, resistance: float) -> None:
            rows.append(a)
            cols.append(a)
            vals.append(1.0 / resistance)

        k = pkg.die_material.conductivity
        t = pkg.die_thickness
        dx, dy = self._dx, self._dy
        r_east = dx / (k * t * dy)  # between horizontal neighbours
        r_north = dy / (k * t * dx)  # between vertical neighbours
        cell_area = dx * dy
        r_vertical = pkg.die_material.conduction_resistance(
            t, cell_area
        ) + pkg.tim_material.conduction_resistance(pkg.tim_thickness, cell_area)

        for row in range(self._ny):
            for col in range(self._nx):
                node = self._cell_index(row, col)
                if col + 1 < self._nx:
                    add_conductance(node, self._cell_index(row, col + 1), r_east)
                if row + 1 < self._ny:
                    add_conductance(node, self._cell_index(row + 1, col), r_north)
                add_conductance(node, sp_center, r_vertical)
                # Die-rim escape from boundary cells.
                if row == 0:
                    add_conductance(
                        node, sp_edge["south"],
                        dy / 2.0 / (k * t * dx) + pkg.rim_coefficient / dx,
                    )
                if row == self._ny - 1:
                    add_conductance(
                        node, sp_edge["north"],
                        dy / 2.0 / (k * t * dx) + pkg.rim_coefficient / dx,
                    )
                if col == 0:
                    add_conductance(
                        node, sp_edge["west"],
                        dx / 2.0 / (k * t * dy) + pkg.rim_coefficient / dy,
                    )
                if col == self._nx - 1:
                    add_conductance(
                        node, sp_edge["east"],
                        dx / 2.0 / (k * t * dy) + pkg.rim_coefficient / dy,
                    )

        # Package tail, mirroring the block-mode builder.
        centre_to_edge = spreader_centre_to_edge_resistance(pkg)
        stack = spreader_to_sink_resistance(pkg)
        for edge_node in sp_edge.values():
            add_conductance(sp_center, edge_node, centre_to_edge)
            add_conductance(edge_node, sink_periph, stack * 4.0)
        add_conductance(sp_center, sink_center, stack)
        sink_radial = pkg.sink_material.conduction_resistance(
            pkg.sink_thickness, pkg.sink_thickness * 4.0 * pkg.spreader_side
        )
        add_conductance(sink_center, sink_periph, sink_radial)
        spreader_share = pkg.spreader_area / pkg.sink_area
        add_ground(sink_center, sink_convection_resistance(pkg) / spreader_share)
        add_ground(
            sink_periph, sink_convection_resistance(pkg) / (1.0 - spreader_share)
        )

        from scipy.sparse import csc_matrix

        return csc_matrix((vals, (rows, cols)), shape=(self._n_nodes, self._n_nodes))

    # -- solving ----------------------------------------------------------------------

    @property
    def floorplan(self) -> Floorplan:
        """The floorplan being simulated."""
        return self._floorplan

    @property
    def resolution(self) -> tuple[int, int]:
        """Mesh resolution ``(nx, ny)``."""
        return (self._nx, self._ny)

    @property
    def ambient_c(self) -> float:
        """Ambient temperature (Celsius)."""
        return self._package.ambient_c

    def steady_state(
        self, power_by_block: Mapping[str, float]
    ) -> GridTemperatureField:
        """Solve the mesh for a block power map (W by block name).

        Power is spread uniformly over the block's covered cells.
        """
        power = np.zeros(self._n_nodes)
        for name, watts in power_by_block.items():
            if name not in self._floorplan:
                raise ThermalModelError(f"unknown block {name!r}")
            if watts < 0.0:
                raise ThermalModelError(
                    f"power must be non-negative, got {watts!r} for {name!r}"
                )
            index = self._floorplan.index_of(name)
            mask = (self._cell_cover == index).ravel()
            power[: self._nx * self._ny][mask] += watts / mask.sum()

        rises = self._factor.solve(power)
        if not np.all(np.isfinite(rises)):
            raise SolverError("grid-mode solve produced non-finite temperatures")
        cell_rises = rises[: self._nx * self._ny].reshape(self._ny, self._nx)
        return GridTemperatureField(
            ambient_c=self.ambient_c,
            rises=cell_rises,
            cell_cover=self._cell_cover,
            block_names=self._floorplan.block_names,
        )
