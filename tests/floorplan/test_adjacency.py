"""Unit tests for adjacency extraction."""

from __future__ import annotations

import math

import pytest

from repro.errors import FloorplanError
from repro.floorplan.adjacency import AdjacencyMap, adjacency_graph
from repro.floorplan.floorplan import Block, Floorplan
from repro.floorplan.generator import grid_floorplan
from repro.floorplan.geometry import Rect, Side


@pytest.fixture(scope="module")
def nx():
    """networkx, needed only by the graph view; its tests skip without it."""
    return pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def quad() -> AdjacencyMap:
    """2x2 grid of unit blocks: a, b on the bottom; c, d on top."""
    plan = Floorplan(
        [
            Block("a", Rect(0.0, 0.0, 1.0, 1.0)),
            Block("b", Rect(1.0, 0.0, 1.0, 1.0)),
            Block("c", Rect(0.0, 1.0, 1.0, 1.0)),
            Block("d", Rect(1.0, 1.0, 1.0, 1.0)),
        ]
    )
    return AdjacencyMap(plan)


class TestInterfaces:
    def test_quad_has_four_interfaces(self, quad):
        # a-b, a-c, b-d, c-d; diagonals (a-d, b-c) touch only at the corner.
        pairs = {frozenset((i.block_a, i.block_b)) for i in quad.interfaces}
        assert pairs == {
            frozenset(("a", "b")),
            frozenset(("a", "c")),
            frozenset(("b", "d")),
            frozenset(("c", "d")),
        }

    def test_interface_lengths(self, quad):
        for interface in quad.interfaces:
            assert interface.length == pytest.approx(1.0)

    def test_neighbours(self, quad):
        assert set(quad.neighbours("a")) == {"b", "c"}
        assert set(quad.neighbours("d")) == {"b", "c"}

    def test_interface_between(self, quad):
        interface = quad.interface_between("a", "b")
        assert interface is not None
        assert interface.other("a") == "b"
        assert interface.other("b") == "a"
        assert quad.interface_between("a", "d") is None

    def test_interface_sides_are_consistent(self, quad):
        interface = quad.interface_between("a", "b")
        assert interface.side_of("a") is Side.EAST
        assert interface.side_of("b") is Side.WEST

    def test_interface_other_rejects_stranger(self, quad):
        interface = quad.interface_between("a", "b")
        with pytest.raises(FloorplanError):
            interface.other("c")

    def test_unknown_block_rejected(self, quad):
        with pytest.raises(FloorplanError):
            quad.interfaces_of("zz")


class TestBoundary:
    def test_corner_blocks_expose_two_sides(self, quad):
        segments = quad.boundary_segments("a")
        sides = {s.side for s in segments}
        assert sides == {Side.SOUTH, Side.WEST}
        assert quad.boundary_length("a") == pytest.approx(2.0)

    def test_fully_tiled(self, quad):
        assert quad.is_fully_tiled()
        for name in ("a", "b", "c", "d"):
            assert quad.unaccounted_perimeter(name) == pytest.approx(0.0)

    def test_unaccounted_perimeter_with_whitespace(self):
        # Two blocks with a gap between them: the facing edges count as
        # unaccounted (adiabatic) perimeter.
        plan = Floorplan(
            [
                Block("a", Rect(0.0, 0.0, 1.0, 1.0)),
                Block("b", Rect(2.0, 0.0, 1.0, 1.0)),
            ],
            outline=Rect(0.0, 0.0, 3.0, 1.0),
        )
        amap = AdjacencyMap(plan)
        assert not amap.is_fully_tiled()
        assert amap.unaccounted_perimeter("a") == pytest.approx(1.0)
        assert amap.neighbours("a") == ()


class TestGridAdjacency:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (3, 3), (4, 6)])
    def test_grid_interface_count(self, rows, cols):
        amap = AdjacencyMap(grid_floorplan(rows, cols))
        expected = rows * (cols - 1) + cols * (rows - 1)
        assert len(amap.interfaces) == expected

    def test_grid_graph_is_connected(self, nx):
        graph = adjacency_graph(AdjacencyMap(grid_floorplan(4, 4)))
        assert nx.is_connected(graph)

    def test_grid_corner_interior_degrees(self, nx):
        graph = adjacency_graph(AdjacencyMap(grid_floorplan(3, 3)))
        degrees = dict(graph.degree())
        assert degrees["C0_0"] == 2  # corner
        assert degrees["C0_1"] == 3  # edge
        assert degrees["C1_1"] == 4  # centre


class TestAdjacencyGraphView:
    def test_nodes_carry_area(self, nx, quad):
        graph = adjacency_graph(quad)
        assert graph.nodes["a"]["area"] == pytest.approx(1.0)

    def test_edges_carry_length(self, nx, quad):
        graph = adjacency_graph(quad)
        assert graph.edges["a", "b"]["length"] == pytest.approx(1.0)


class TestPaperLayouts:
    def test_alpha15_is_fully_tiled(self, alpha15_floorplan):
        amap = AdjacencyMap(alpha15_floorplan)
        assert amap.is_fully_tiled()

    def test_alpha15_graph_connected(self, nx, alpha15_floorplan):
        graph = adjacency_graph(AdjacencyMap(alpha15_floorplan))
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() == 15

    def test_alpha15_l2_spans_south_edge(self, alpha15_floorplan):
        amap = AdjacencyMap(alpha15_floorplan)
        south = [
            s for s in amap.boundary_segments("L2") if s.side is Side.SOUTH
        ]
        assert len(south) == 1
        assert south[0].length == pytest.approx(16e-3)

    def test_worked_example_adjacency_matches_figure3(
        self, worked_example_floorplan
    ):
        """The paper's Figure 3 resistance list, as adjacency facts."""
        amap = AdjacencyMap(worked_example_floorplan)
        assert set(amap.neighbours("B2")) >= {"B1", "B3"}  # R_1,2 and R_2,3
        assert set(amap.neighbours("B4")) >= {"B1", "B5"}  # R_1,4 and R_4,5
        assert set(amap.neighbours("B5")) >= {"B3", "B4", "B6"}
        # Boundary exposures named in Figure 3: B2 north, B4 west+south,
        # B5 south.
        assert Side.NORTH in {s.side for s in amap.boundary_segments("B2")}
        b4_sides = {s.side for s in amap.boundary_segments("B4")}
        assert {Side.WEST, Side.SOUTH} <= b4_sides
        assert Side.SOUTH in {s.side for s in amap.boundary_segments("B5")}

    def test_hypothetical7_hot_cluster_adjacent_cool_isolated(
        self, hypothetical7_floorplan
    ):
        amap = AdjacencyMap(hypothetical7_floorplan)
        # Hot cluster: C2-C3 and C3-C4 touch.
        assert "C3" in amap.neighbours("C2")
        assert "C4" in amap.neighbours("C3")
        # Cool cores are mutually isolated.
        for core in ("C5", "C6", "C7"):
            assert set(amap.neighbours(core)).isdisjoint({"C5", "C6", "C7"} - {core})
