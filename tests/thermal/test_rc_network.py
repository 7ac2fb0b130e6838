"""Unit tests for the RC network builder and its validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.thermal.rc_network import ThermalNetwork


def simple_two_node() -> ThermalNetwork:
    net = ThermalNetwork()
    net.add_node("a", capacitance=1.0)
    net.add_node("b", capacitance=2.0)
    net.add_resistance("a", "b", 2.0)
    net.add_ground_resistance("b", 4.0)
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = ThermalNetwork()
        net.add_node("a")
        with pytest.raises(ThermalModelError, match="duplicate"):
            net.add_node("a")

    def test_negative_capacitance_rejected(self):
        net = ThermalNetwork()
        with pytest.raises(ThermalModelError):
            net.add_node("a", capacitance=-1.0)

    def test_edge_to_unknown_node_rejected(self):
        net = ThermalNetwork()
        net.add_node("a")
        with pytest.raises(ThermalModelError, match="unknown"):
            net.add_resistance("a", "b", 1.0)

    def test_self_loop_rejected(self):
        net = ThermalNetwork()
        net.add_node("a")
        with pytest.raises(ThermalModelError, match="self-loop"):
            net.add_resistance("a", "a", 1.0)

    def test_nonpositive_resistance_rejected(self):
        net = ThermalNetwork()
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(ThermalModelError):
            net.add_resistance("a", "b", 0.0)
        with pytest.raises(ThermalModelError):
            net.add_ground_resistance("a", -1.0)

    def test_has_node(self):
        net = ThermalNetwork()
        net.add_node("a")
        assert net.has_node("a")
        assert not net.has_node("b")


class TestCompilationValidation:
    def test_empty_network_rejected(self):
        with pytest.raises(ThermalModelError, match="empty"):
            ThermalNetwork().compile()

    def test_no_ground_rejected(self):
        net = ThermalNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_resistance("a", "b", 1.0)
        with pytest.raises(ThermalModelError, match="ambient"):
            net.compile()

    def test_floating_island_rejected(self):
        net = ThermalNetwork()
        net.add_node("a")
        net.add_node("island")
        net.add_ground_resistance("a", 1.0)
        with pytest.raises(ThermalModelError, match="island"):
            net.compile()

    def test_valid_network_compiles(self):
        compiled = simple_two_node().compile()
        assert len(compiled) == 2
        assert compiled.node_names == ("a", "b")


class TestCompiledMatrices:
    def test_conductance_matrix_values(self):
        compiled = simple_two_node().compile()
        g = compiled.conductance
        # g_ab = 0.5, ground on b = 0.25
        assert g[0, 0] == pytest.approx(0.5)
        assert g[0, 1] == pytest.approx(-0.5)
        assert g[1, 0] == pytest.approx(-0.5)
        assert g[1, 1] == pytest.approx(0.75)

    def test_conductance_symmetric(self):
        compiled = simple_two_node().compile()
        assert np.allclose(compiled.conductance, compiled.conductance.T)

    def test_capacitance_vector(self):
        compiled = simple_two_node().compile()
        assert compiled.capacitance.tolist() == [1.0, 2.0]

    def test_parallel_resistances_accumulate(self):
        net = ThermalNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_resistance("a", "b", 2.0)
        net.add_resistance("a", "b", 2.0)  # parallel pair -> 1 K/W
        net.add_ground_resistance("b", 1.0)
        g = net.compile().conductance
        assert g[0, 0] == pytest.approx(1.0)

    def test_index_of(self):
        compiled = simple_two_node().compile()
        assert compiled.index_of("b") == 1
        with pytest.raises(ThermalModelError):
            compiled.index_of("zz")


class TestPowerVector:
    def test_assembly(self):
        compiled = simple_two_node().compile()
        p = compiled.power_vector({"a": 3.0})
        assert p.tolist() == [3.0, 0.0]

    def test_unknown_node_rejected(self):
        compiled = simple_two_node().compile()
        with pytest.raises(ThermalModelError):
            compiled.power_vector({"zz": 1.0})

    def test_negative_power_rejected(self):
        compiled = simple_two_node().compile()
        with pytest.raises(ThermalModelError, match="non-negative"):
            compiled.power_vector({"a": -1.0})


class TestBulkConstruction:
    def test_bulk_edges_compile_like_single_ones(self):
        single = ThermalNetwork()
        bulk = ThermalNetwork()
        for name in "abcd":
            single.add_node(name, 1.0)
        nodes = bulk.add_nodes(list("abcd"), np.ones(4))
        assert nodes.tolist() == [0, 1, 2, 3]
        edges = [("a", "b", 2.0), ("b", "c", 0.7), ("a", "c", 3.0), ("c", "d", 1.1)]
        for a, b, r in edges:
            single.add_resistance(a, b, r)
        bulk.add_resistances(
            np.array([0, 1, 0, 2]),
            np.array([1, 2, 2, 3]),
            np.array([2.0, 0.7, 3.0, 1.1]),
        )
        single.add_ground_resistance("d", 0.4)
        bulk.add_ground_resistance("d", 0.4)
        assert np.array_equal(single.compile().conductance, bulk.compile().conductance)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_bulk_resistance_must_be_positive(self, value):
        net = ThermalNetwork()
        net.add_nodes(["a", "b", "c"], np.zeros(3))
        with pytest.raises(ThermalModelError, match="'b'--'c' must be positive"):
            net.add_resistances(
                np.array([0, 1]), np.array([1, 2]), np.array([1.0, value])
            )
        with pytest.raises(ThermalModelError, match="ground resistance on 'c'"):
            net.add_ground_resistance("c", value)

    def test_bulk_self_loop_and_unknown_numbers_rejected(self):
        net = ThermalNetwork()
        net.add_nodes(["a", "b"], np.zeros(2))
        with pytest.raises(ThermalModelError, match="self-loop resistance on node 'b'"):
            net.add_resistances(np.array([0, 1]), np.array([1, 1]), np.ones(2))
        with pytest.raises(ThermalModelError, match="unknown thermal node number"):
            net.add_resistances(np.array([0]), np.array([2]), np.ones(1))

    def test_bulk_nodes_checked_before_any_is_added(self):
        net = ThermalNetwork()
        net.add_node("a")
        with pytest.raises(ThermalModelError, match="duplicate thermal node 'a'"):
            net.add_nodes(["b", "a"], np.zeros(2))
        with pytest.raises(ThermalModelError, match="node 'c': capacitance"):
            net.add_nodes(["b", "c"], np.array([1.0, -1.0]))
        assert net.node_names == ("a",)

    def test_a_long_chain_reaches_ground(self):
        net = ThermalNetwork()
        nodes = net.add_nodes([f"n{i}" for i in range(300)], np.zeros(300))
        net.add_resistances(nodes[:-1], nodes[1:], np.ones(299))
        net.add_ground_resistance("n299", 1.0)
        assert len(net.compile()) == 300

    def test_bulk_arrays_are_copied(self):
        net = ThermalNetwork()
        caps = np.array([1.0, 2.0])
        nodes = net.add_nodes(["a", "b"], caps)
        resistances = np.array([2.0])
        net.add_resistances(nodes[:1], nodes[1:], resistances)
        net.add_ground_resistance("b", 1.0)
        caps[:] = -1.0
        resistances[:] = 1e9
        nodes[:] = 0
        compiled = net.compile()
        assert compiled.capacitance.tolist() == [1.0, 2.0]
        assert compiled.conductance[0, 1] == -0.5
