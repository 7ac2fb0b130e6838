"""Generic thermal RC network.

A :class:`ThermalNetwork` is a graph of thermal nodes connected by
thermal resistances, with optional thermal capacitances on the nodes and
resistive ties to *thermal ground* (the ambient).  It exploits the
thermal-electrical duality the paper inherits from HotSpot:

=============  =====================
thermal        electrical
=============  =====================
temperature    voltage
heat flow      current
R (K/W)        resistance
C (J/K)        capacitance
ambient        ground
power source   current source
=============  =====================

The network is assembled incrementally (``add_node`` / ``add_resistance``
/ ``add_ground_resistance``) and then *sealed* by :meth:`compile`, which
builds the conductance (Laplacian + ground) matrix ``G`` and the
capacitance vector ``C`` used by the solvers.  Compilation validates the
network: every node must have a resistive path to ground, otherwise the
steady-state system ``G dT = P`` is singular.

Temperatures inside the network are expressed as **rises above ambient**
(``dT``); the simulator facade converts to absolute Celsius at its API
boundary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ThermalModelError


class CompiledNetwork:
    """Immutable compiled form of a thermal network.

    Attributes
    ----------
    node_names:
        Node names in matrix order.
    conductance:
        Dense ``(n, n)`` symmetric positive-definite conductance matrix
        ``G`` such that steady state satisfies ``G dT = P``.
    capacitance:
        Length-``n`` vector of node capacitances (J/K); zero entries are
        legal for steady-state-only networks but rejected by the
        transient solver.
    """

    def __init__(
        self,
        node_names: tuple[str, ...],
        conductance: np.ndarray,
        capacitance: np.ndarray,
    ) -> None:
        self.node_names = node_names
        self.conductance = conductance
        self.capacitance = capacitance
        self._index = {name: i for i, name in enumerate(node_names)}

    def __len__(self) -> int:
        return len(self.node_names)

    def index_of(self, name: str) -> int:
        """Matrix row/column of the named node."""
        try:
            return self._index[name]
        except KeyError:
            raise ThermalModelError(f"unknown thermal node {name!r}") from None

    def power_vector(self, power_by_node: dict[str, float]) -> np.ndarray:
        """Assemble the power injection vector from a name->watts mapping.

        Nodes not mentioned inject zero power.  Negative powers are
        rejected: blocks are heat sources, never sinks.
        """
        power = np.zeros(len(self.node_names))
        for name, watts in power_by_node.items():
            if watts < 0.0:
                raise ThermalModelError(
                    f"power injection must be non-negative, got {watts!r} W "
                    f"for node {name!r}"
                )
            power[self.index_of(name)] = watts
        return power


class ThermalNetwork:
    """Mutable builder for a thermal RC network.

    Typical use::

        net = ThermalNetwork()
        net.add_node("die:Icache", capacitance=1.3e-3)
        net.add_node("spreader:center", capacitance=2.1)
        net.add_resistance("die:Icache", "spreader:center", 2.5)
        net.add_ground_resistance("spreader:center", 0.6)
        compiled = net.compile()

    Nodes are numbered in the order they are added, and the bulk methods
    (:meth:`add_nodes`, :meth:`add_resistances`) take names and numbers
    as arrays, so a network builder adds a whole family of nodes or
    edges in one call.  Every edge, single or bulk, goes through the
    same checks and the same :meth:`compile`.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._capacitance: list[np.ndarray] = []
        no_nodes = np.zeros(0, dtype=np.intp)
        # Edge and ground-tie chunks in the order they were added.
        self._edge_a: list[np.ndarray] = [no_nodes]
        self._edge_b: list[np.ndarray] = [no_nodes]
        self._edge_r: list[np.ndarray] = [np.zeros(0)]
        self._ground_nodes: list[np.ndarray] = [no_nodes]
        self._ground_r: list[np.ndarray] = [np.zeros(0)]

    # -- construction ----------------------------------------------------------

    def add_node(self, name: str, capacitance: float = 0.0) -> None:
        """Register a node.

        Parameters
        ----------
        name:
            Unique node name.
        capacitance:
            Thermal capacitance in J/K (0.0 for a massless junction
            node; such nodes are fine for steady-state solves and are
            given a tiny stabilising mass by the transient solver).
        """
        self.add_nodes([name], np.array([capacitance], dtype=float))

    def add_nodes(self, names: Sequence[str], capacitances: np.ndarray) -> np.ndarray:
        """Register several nodes at once; returns their node numbers.

        *capacitances* (J/K, one per name) is copied.
        """
        first = len(self._index)
        fresh: dict[str, int] = {}
        for name in names:
            if name in self._index or name in fresh:
                raise ThermalModelError(f"duplicate thermal node {name!r}")
            fresh[name] = first + len(fresh)
        capacitances = np.array(capacitances, dtype=float)
        negative = ~(capacitances >= 0.0)
        if negative.any():
            bad = int(np.argmax(negative))
            raise ThermalModelError(
                f"node {names[bad]!r}: capacitance must be non-negative, "
                f"got {float(capacitances[bad])!r}"
            )
        self._index.update(fresh)
        self._capacitance.append(capacitances)
        return np.arange(first, len(self._index))

    def has_node(self, name: str) -> bool:
        """True if the node exists."""
        return name in self._index

    def index_of(self, name: str) -> int:
        """The number of the named node (its matrix row after compile)."""
        try:
            return self._index[name]
        except KeyError:
            raise ThermalModelError(
                f"unknown thermal node {name!r}; add_node() it first"
            ) from None

    def add_resistance(self, node_a: str, node_b: str, resistance: float) -> None:
        """Connect two existing nodes with a thermal resistance (K/W)."""
        self._add_edges(
            np.array([self.index_of(node_a)]),
            np.array([self.index_of(node_b)]),
            np.array([resistance], dtype=float),
        )

    def add_resistances(
        self, nodes_a: np.ndarray, nodes_b: np.ndarray, resistances: np.ndarray
    ) -> None:
        """Connect node ``nodes_a[k]`` to ``nodes_b[k]`` through ``resistances[k]``.

        The arrays are copied: changing them afterwards leaves the
        network as it was.
        """
        nodes_a = np.array(nodes_a, dtype=np.intp)
        nodes_b = np.array(nodes_b, dtype=np.intp)
        self._check_numbers(nodes_a)
        self._check_numbers(nodes_b)
        self._add_edges(nodes_a, nodes_b, np.array(resistances, dtype=float))

    def _add_edges(
        self, nodes_a: np.ndarray, nodes_b: np.ndarray, resistances: np.ndarray
    ) -> None:
        loops = nodes_a == nodes_b
        if loops.any():
            node = self.node_names[int(nodes_a[np.argmax(loops)])]
            raise ThermalModelError(f"self-loop resistance on node {node!r}")
        bad = ~(resistances > 0.0)
        if bad.any():
            k = int(np.argmax(bad))
            names = self.node_names
            raise ThermalModelError(
                f"resistance {names[int(nodes_a[k])]!r}--{names[int(nodes_b[k])]!r} "
                f"must be positive, got {float(resistances[k])!r}"
            )
        self._edge_a.append(nodes_a)
        self._edge_b.append(nodes_b)
        self._edge_r.append(resistances)

    def add_ground_resistance(self, node: str, resistance: float) -> None:
        """Connect an existing node to ambient with a resistance (K/W)."""
        index = self.index_of(node)
        if not resistance > 0.0:
            raise ThermalModelError(
                f"ground resistance on {node!r} must be positive, got {resistance!r}"
            )
        self._ground_nodes.append(np.array([index]))
        self._ground_r.append(np.array([resistance], dtype=float))

    def _check_numbers(self, nodes: np.ndarray) -> None:
        if len(nodes) and not (0 <= nodes.min() and nodes.max() < len(self._index)):
            raise ThermalModelError(
                f"unknown thermal node number among {nodes.tolist()!r}"
            )

    # -- inspection ---------------------------------------------------------------

    @property
    def node_names(self) -> tuple[str, ...]:
        """Node names in insertion order (the matrix order after compile)."""
        return tuple(self._index)

    # -- compilation -----------------------------------------------------------------

    def compile(self) -> CompiledNetwork:
        """Validate the network and build its matrices.

        Each edge's conductance is added to its two diagonal entries and
        subtracted from its two off-diagonal ones, edge by edge in the
        order the edges were added (``np.add.at`` is unbuffered), then
        the ground ties are added to the diagonal.

        Raises
        ------
        ThermalModelError
            If the network is empty or any node lacks a resistive path
            to ground (which would make the steady-state system
            singular: that node's temperature would be unbounded for
            any injected power).
        """
        names = self.node_names
        if not names:
            raise ThermalModelError("cannot compile an empty thermal network")
        n = len(names)
        a, b = np.concatenate(self._edge_a), np.concatenate(self._edge_b)
        g = 1.0 / np.concatenate(self._edge_r)
        conductance = np.zeros((n, n))
        np.add.at(
            conductance,
            (np.stack([a, b, a, b], 1).ravel(), np.stack([a, b, b, a], 1).ravel()),
            np.stack([g, g, -g, -g], 1).ravel(),
        )
        grounded = np.concatenate(self._ground_nodes)
        np.add.at(
            conductance, (grounded, grounded), 1.0 / np.concatenate(self._ground_r)
        )

        self._check_grounded(names, a, b, grounded)

        capacitance = np.concatenate(self._capacitance)
        return CompiledNetwork(names, conductance, capacitance)

    @staticmethod
    def _check_grounded(
        names: tuple[str, ...], a: np.ndarray, b: np.ndarray, grounded: np.ndarray
    ) -> None:
        """Every node must reach a ground tie through resistive edges."""
        if not len(grounded):
            raise ThermalModelError(
                "thermal network has no connection to ambient; "
                "add_ground_resistance() at least once"
            )
        # Flood from the grounded nodes, one edge layer per pass.
        reached = np.zeros(len(names), dtype=bool)
        reached[grounded] = True
        while True:
            crossing = reached[a] != reached[b]
            if not crossing.any():
                break
            reached[a[crossing]] = True
            reached[b[crossing]] = True
        if not reached.all():
            floating = [name for name, hit in zip(names, reached.tolist()) if not hit]
            raise ThermalModelError(
                f"thermal nodes have no path to ambient (singular steady state): "
                f"{', '.join(sorted(floating))}"
            )
