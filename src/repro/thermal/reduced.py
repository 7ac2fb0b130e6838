"""Reduced-order superposition operator for block-level steady state.

Steady-state temperatures are linear in power (the paper's modification
M1): ``dT = G^-1 P``.  The scheduler only ever *injects* power at die
blocks and only ever *reads back* die-block temperatures, so the full
``(n_nodes, n_nodes)`` solve is wasted work — the exact block-level
answer is the precomputed influence matrix

    ``R[obs, src] = (G^-1)[obs, src]``    (obs, src ranging over blocks)

applied to a block power vector.  ``R`` is computed **once** per
network via a single multi-RHS Cholesky solve (one unit vector per
block) and from then on every candidate-session evaluation is a
``(n_blocks, n_blocks)`` matvec — and a whole batch of candidates is
one GEMM.  This is the same superposition trick that makes the paper's
STC heuristic cheap, applied to the "accurate" simulator itself.

The dense path (:meth:`~repro.thermal.simulator.ThermalSimulator.steady_state`)
remains for full-field consumers (heatmaps, package-node diagnostics);
the reduced path agrees with it to solver precision because both apply
the exact same factorisation — no physics is approximated.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import ThermalModelError
from .builder import BuiltModel, die_node
from .rc_network import CompiledNetwork
from .steady_state import SteadyStateSolver


class BlockTemperatureField:
    """Array-backed steady-state temperatures of the die blocks only.

    The lightweight result of the reduced path: one contiguous vector
    of block temperature rises, indexed by block position — no per-node
    dict, no name formatting on read.  The block-level API mirrors
    :class:`~repro.thermal.simulator.TemperatureField`.
    """

    __slots__ = ("ambient_c", "block_names", "block_rises", "_index")

    def __init__(
        self,
        ambient_c: float,
        block_names: tuple[str, ...],
        block_rises: np.ndarray,
        index: Mapping[str, int] | None = None,
    ) -> None:
        if block_rises.shape != (len(block_names),):
            raise ThermalModelError(
                f"block rises have shape {block_rises.shape}, expected "
                f"({len(block_names)},)"
            )
        self.ambient_c = ambient_c
        self.block_names = block_names
        self.block_rises = block_rises
        self._index = (
            index
            if index is not None
            else {name: i for i, name in enumerate(block_names)}
        )

    def _index_of(self, block_name: str) -> int:
        try:
            return self._index[block_name]
        except KeyError:
            raise ThermalModelError(f"unknown block {block_name!r}") from None

    def rise_of(self, block_name: str) -> float:
        """Temperature rise of a block above ambient (K)."""
        return float(self.block_rises[self._index_of(block_name)])

    def temperature_c(self, block_name: str) -> float:
        """Absolute block temperature (Celsius)."""
        return self.ambient_c + self.rise_of(block_name)

    def temperatures_for(self, block_names: Sequence[str]) -> np.ndarray:
        """Absolute temperatures (Celsius) of the named blocks, as an array."""
        idx = [self._index_of(name) for name in block_names]
        return self.ambient_c + self.block_rises[idx]

    def block_temperatures_c(self) -> dict[str, float]:
        """All block temperatures (Celsius), by block name."""
        temps = (self.ambient_c + self.block_rises).tolist()
        return dict(zip(self.block_names, temps))

    def max_temperature_c(self) -> float:
        """Hottest block temperature (Celsius)."""
        return self.ambient_c + float(self.block_rises.max())

    def hottest_block(self) -> str:
        """Name of the hottest block (first of any exact ties)."""
        return self.block_names[int(np.argmax(self.block_rises))]


class BlockTemperatureBatch:
    """Steady-state block temperatures for a whole batch of power maps.

    Wraps the ``(n_blocks, k)`` rise matrix produced by one GEMM over
    ``k`` candidate power maps; column ``j`` is the field of map ``j``.
    """

    __slots__ = ("ambient_c", "block_names", "rises", "_index")

    def __init__(
        self,
        ambient_c: float,
        block_names: tuple[str, ...],
        rises: np.ndarray,
        index: Mapping[str, int] | None = None,
    ) -> None:
        if rises.ndim != 2 or rises.shape[0] != len(block_names):
            raise ThermalModelError(
                f"batched rises have shape {rises.shape}, expected "
                f"({len(block_names)}, k)"
            )
        self.ambient_c = ambient_c
        self.block_names = block_names
        self.rises = rises
        self._index = (
            index
            if index is not None
            else {name: i for i, name in enumerate(block_names)}
        )

    def __len__(self) -> int:
        return self.rises.shape[1]

    def __iter__(self) -> Iterator[BlockTemperatureField]:
        return (self.field(j) for j in range(len(self)))

    def field(self, j: int) -> BlockTemperatureField:
        """The field of the *j*-th power map (a view, not a copy)."""
        return BlockTemperatureField(
            ambient_c=self.ambient_c,
            block_names=self.block_names,
            block_rises=self.rises[:, j],
            index=self._index,
        )

    def temperatures_c(self) -> np.ndarray:
        """Absolute temperatures (Celsius), shape ``(n_blocks, k)``."""
        return self.ambient_c + self.rises

    def max_temperatures_c(self) -> np.ndarray:
        """Hottest block temperature (Celsius) per power map, shape ``(k,)``."""
        return self.ambient_c + self.rises.max(axis=0)


class ReducedSteadyOperator:
    """The block-to-block influence matrix ``R[obs, src] = (G^-1)[obs, src]``.

    Built once per compiled network with a single multi-RHS Cholesky
    solve (``n_blocks`` unit-vector right-hand sides); afterwards every
    block-level steady-state question is a matvec against ``R`` and a
    batch of ``k`` candidate power maps is one ``(n_blocks, n_blocks) x
    (n_blocks, k)`` GEMM.  Immutable and shareable: the engine's
    thermal-model cache hands the same operator to every simulator
    facade built over the same network.
    """

    def __init__(
        self,
        network: CompiledNetwork,
        block_names: tuple[str, ...],
        matrix: np.ndarray,
        ambient_c: float,
    ) -> None:
        n = len(block_names)
        if matrix.shape != (n, n):
            raise ThermalModelError(
                f"influence matrix has shape {matrix.shape}, expected ({n}, {n})"
            )
        self._network = network
        self._block_names = block_names
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._ambient_c = ambient_c
        self._index = {name: i for i, name in enumerate(block_names)}

    @classmethod
    def from_solver(
        cls,
        solver: SteadyStateSolver,
        block_names: Sequence[str],
        ambient_c: float,
    ) -> "ReducedSteadyOperator":
        """Compute the operator from a factorised solver.

        One ``solve_many`` with a unit vector per block extracts the
        block columns of ``G^-1``; the block rows of those columns are
        the influence matrix.
        """
        network = solver.network
        names = tuple(block_names)
        indices = np.array([network.index_of(die_node(name)) for name in names])
        rhs = np.zeros((len(network), len(names)))
        rhs[indices, np.arange(len(names))] = 1.0
        columns = solver.solve_many(rhs)
        matrix = np.ascontiguousarray(columns[indices, :])
        return cls(network, names, matrix, ambient_c)

    @classmethod
    def from_model(
        cls, model: BuiltModel, solver: SteadyStateSolver
    ) -> "ReducedSteadyOperator":
        """Compute the operator for a built model and its solver."""
        if solver.network is not model.network:
            raise ThermalModelError(
                "solver was factorised for a different network than the model"
            )
        return cls.from_solver(
            solver, model.floorplan.block_names, model.package.ambient_c
        )

    # -- introspection ---------------------------------------------------------------

    @property
    def network(self) -> CompiledNetwork:
        """The compiled network the operator was extracted from."""
        return self._network

    @property
    def block_names(self) -> tuple[str, ...]:
        """Block names, defining the row/column order of the matrix."""
        return self._block_names

    @property
    def n_blocks(self) -> int:
        """Number of blocks (matrix dimension)."""
        return len(self._block_names)

    @property
    def ambient_c(self) -> float:
        """Ambient temperature (Celsius) used by :meth:`temperatures`."""
        return self._ambient_c

    @property
    def matrix(self) -> np.ndarray:
        """The (read-only) ``(n_blocks, n_blocks)`` influence matrix (K/W)."""
        return self._matrix

    @property
    def block_index(self) -> Mapping[str, int]:
        """Block name -> matrix row/column (shared with emitted fields)."""
        return self._index

    def index_of(self, block_name: str) -> int:
        """Row/column of the named block."""
        try:
            return self._index[block_name]
        except KeyError:
            raise ThermalModelError(f"unknown block {block_name!r}") from None

    # -- resistances ---------------------------------------------------------------------

    def self_resistance(self, block_name: str) -> float:
        """Self thermal resistance of a block (K/W): a diagonal entry."""
        i = self.index_of(block_name)
        return float(self._matrix[i, i])

    def transfer_resistance(self, source: str, observation: str) -> float:
        """Mutual thermal resistance between two blocks (K/W): one entry."""
        return float(self._matrix[self.index_of(observation), self.index_of(source)])

    # -- power assembly ----------------------------------------------------------------

    def power_vector(self, power_by_block: Mapping[str, float]) -> np.ndarray:
        """Block power vector from a name->watts mapping (zeros elsewhere)."""
        power = np.zeros(self.n_blocks)
        for name, watts in power_by_block.items():
            if watts < 0.0:
                raise ThermalModelError(
                    f"power injection must be non-negative, got {watts!r} W "
                    f"for block {name!r}"
                )
            power[self.index_of(name)] = watts
        return power

    def power_matrix(
        self, power_maps: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """``(n_blocks, k)`` power matrix from *k* name->watts mappings."""
        if not power_maps:
            raise ThermalModelError("power_matrix needs at least one power map")
        powers = np.zeros((self.n_blocks, len(power_maps)))
        for j, power_map in enumerate(power_maps):
            for name, watts in power_map.items():
                if watts < 0.0:
                    raise ThermalModelError(
                        f"power injection must be non-negative, got {watts!r} W "
                        f"for block {name!r}"
                    )
                powers[self.index_of(name), j] = watts
        return powers

    # -- application ------------------------------------------------------------------

    def rises(self, power: np.ndarray) -> np.ndarray:
        """Block temperature rises (K) for block power(s) (W).

        Accepts a ``(n_blocks,)`` vector or a ``(n_blocks, k)`` batch;
        returns the matching shape.
        """
        if power.shape[0] != self.n_blocks or power.ndim > 2:
            raise ThermalModelError(
                f"block power has shape {power.shape}, expected "
                f"({self.n_blocks},) or ({self.n_blocks}, k)"
            )
        return self._matrix @ power

    def temperatures(self, power: np.ndarray) -> np.ndarray:
        """Absolute block temperatures (Celsius) for block power(s) (W).

        The batched evaluation path: ``power`` may be a
        ``(n_blocks, k)`` matrix of candidate power maps, evaluated in
        one GEMM.
        """
        return self._ambient_c + self.rises(power)
