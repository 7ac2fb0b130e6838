"""High-level thermal simulation facade.

:class:`ThermalSimulator` is the "accurate thermal simulation" of the
paper's Algorithm 1 (the role HotSpot plays in the original work): given
a floorplan and package it answers *"what temperature does each core
reach for this power map?"* for both steady-state and transient
questions, in Celsius, by block name.

The facade also keeps the bookkeeping the scheduler needs:

* a cached steady-state factorisation (hundreds of candidate sessions
  are solved against the same network);
* a count of how much simulated test time has been requested, which is
  the paper's *simulation effort* metric (see
  :class:`repro.core.scheduler.ThermalAwareScheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import ThermalModelError
from ..floorplan.adjacency import AdjacencyMap
from ..floorplan.floorplan import Floorplan
from .builder import BuiltModel, build_thermal_network, die_node
from .package import DEFAULT_PACKAGE, PackageConfig
from .reduced import (
    BlockTemperatureBatch,
    BlockTemperatureField,
    ReducedSteadyOperator,
)
from .steady_state import SteadyStateSolver
from .transient import TransientResult, TransientSolver


@dataclass(frozen=True)
class TemperatureField:
    """Steady-state temperatures for one power map.

    Attributes
    ----------
    ambient_c:
        Ambient temperature (Celsius).
    rises:
        Temperature rise above ambient per network node (K).
    block_names:
        Floorplan block names (subset of the nodes, without prefixes).
    """

    ambient_c: float
    rises: Mapping[str, float]
    block_names: tuple[str, ...]

    def rise_of(self, block_name: str) -> float:
        """Temperature rise of a block above ambient (K)."""
        node = die_node(block_name)
        if node not in self.rises:
            raise ThermalModelError(f"unknown block {block_name!r}")
        return self.rises[node]

    def temperature_c(self, block_name: str) -> float:
        """Absolute block temperature (Celsius)."""
        return self.ambient_c + self.rise_of(block_name)

    @cached_property
    def _block_rises(self) -> np.ndarray:
        """Block rises in ``block_names`` order, extracted once.

        ``max_temperature_c`` / ``hottest_block`` used to re-do a dict
        lookup plus ``die_node`` string formatting per block per call;
        the array is built on first access and reused.  (A
        ``cached_property`` writes straight to ``__dict__``, which a
        frozen dataclass permits.)
        """
        try:
            return np.array([self.rises[die_node(n)] for n in self.block_names])
        except KeyError as exc:
            raise ThermalModelError(f"unknown block node {exc.args[0]!r}") from None

    def block_temperatures_c(self) -> dict[str, float]:
        """All block temperatures (Celsius), by block name."""
        temps = (self.ambient_c + self._block_rises).tolist()
        return dict(zip(self.block_names, temps))

    def max_temperature_c(self) -> float:
        """Hottest block temperature (Celsius)."""
        return self.ambient_c + float(self._block_rises.max())

    def hottest_block(self) -> str:
        """Name of the hottest block (first of any exact ties)."""
        return self.block_names[int(np.argmax(self._block_rises))]


class ThermalSimulator:
    """Steady-state and transient thermal simulation for one floorplan.

    Parameters
    ----------
    floorplan:
        The die floorplan.
    package:
        Package stack (defaults to :data:`DEFAULT_PACKAGE`).
    adjacency:
        Optional precomputed adjacency map.
    model, steady_solver, reduced:
        Prebuilt handles (see :meth:`from_handles`).  When *model* is
        given the network is not rebuilt and *floorplan* must be
        omitted; when *steady_solver* is also given the Cholesky
        factorisation is re-used instead of recomputed; when *reduced*
        is also given the block-level influence matrix is re-used.
        *reduced* may also be a zero-argument callable returning the
        operator — the engine cache passes a shared lazy slot so the
        extraction happens at most once per cached model, and only if
        some job actually takes the reduced path.
    """

    def __init__(
        self,
        floorplan: Floorplan | None = None,
        package: PackageConfig = DEFAULT_PACKAGE,
        adjacency: AdjacencyMap | None = None,
        *,
        model: BuiltModel | None = None,
        steady_solver: SteadyStateSolver | None = None,
        reduced: (
            ReducedSteadyOperator | Callable[[], ReducedSteadyOperator] | None
        ) = None,
    ) -> None:
        if model is not None:
            if floorplan is not None:
                raise ThermalModelError(
                    "pass either a floorplan to build or a prebuilt model, not both"
                )
            if package is not DEFAULT_PACKAGE or adjacency is not None:
                raise ThermalModelError(
                    "a prebuilt model already fixes the package and adjacency; "
                    "passing them alongside model would be silently ignored"
                )
            self._model = model
        else:
            if floorplan is None:
                raise ThermalModelError(
                    "a floorplan (or a prebuilt model) is required"
                )
            self._model = build_thermal_network(floorplan, package, adjacency)
        if steady_solver is not None:
            if steady_solver.network is not self._model.network:
                raise ThermalModelError(
                    "steady_solver was factorised for a different network"
                )
            self._steady = steady_solver
        else:
            self._steady = SteadyStateSolver(self._model.network)
        self._reduced: ReducedSteadyOperator | None = None
        self._reduced_supplier: Callable[[], ReducedSteadyOperator] | None = None
        if isinstance(reduced, ReducedSteadyOperator):
            self._require_same_network(reduced)
            self._reduced = reduced
        elif reduced is not None:
            self._reduced_supplier = reduced
        self._transient_solvers: dict[float, TransientSolver] = {}
        self._simulated_time_s = 0.0
        self._steady_solve_count = 0

    @classmethod
    def from_handles(
        cls,
        model: BuiltModel,
        steady_solver: SteadyStateSolver | None = None,
        reduced: (
            ReducedSteadyOperator | Callable[[], ReducedSteadyOperator] | None
        ) = None,
    ) -> "ThermalSimulator":
        """A simulator over a prebuilt network and (optionally) its factorisation.

        This is the sharing hook the batch engine's thermal-model cache
        uses: the expensive immutable artefacts (the compiled RC
        network, its Cholesky factor and the reduced-order influence
        matrix) are built once per distinct floorplan+package and every
        job gets a lightweight facade with its *own* effort counters
        around them.
        """
        return cls(model=model, steady_solver=steady_solver, reduced=reduced)

    # -- introspection -------------------------------------------------------------

    @property
    def floorplan(self) -> Floorplan:
        """The floorplan being simulated."""
        return self._model.floorplan

    @property
    def adjacency(self) -> AdjacencyMap:
        """Adjacency map of the floorplan."""
        return self._model.adjacency

    @property
    def package(self) -> PackageConfig:
        """Package configuration."""
        return self._model.package

    @property
    def model(self) -> BuiltModel:
        """The underlying compiled RC model."""
        return self._model

    @property
    def steady_solver(self) -> SteadyStateSolver:
        """The cached-factorisation steady-state solver (shareable handle)."""
        return self._steady

    def _require_same_network(self, operator: ReducedSteadyOperator) -> None:
        if operator.network is not self._model.network:
            raise ThermalModelError(
                "reduced operator was extracted from a different network"
            )

    @property
    def reduced_operator(self) -> ReducedSteadyOperator:
        """The block-level influence operator (built lazily, shareable).

        Extracting it costs one multi-RHS solve against the cached
        factorisation; afterwards every :meth:`block_steady_state` call
        is a ``(n_blocks, n_blocks)`` matvec.  Like the Cholesky
        factorisation itself, the extraction is setup cost and is not
        charged to :attr:`steady_solve_count`.
        """
        if self._reduced is None:
            if self._reduced_supplier is not None:
                operator = self._reduced_supplier()
                self._require_same_network(operator)
                self._reduced = operator
            else:
                self._reduced = ReducedSteadyOperator.from_model(
                    self._model, self._steady
                )
        return self._reduced

    @property
    def ambient_c(self) -> float:
        """Ambient temperature (Celsius)."""
        return self._model.package.ambient_c

    # -- effort accounting ------------------------------------------------------------

    @property
    def simulated_time_s(self) -> float:
        """Cumulative simulated test time requested so far (s).

        This is the paper's *simulation effort*: every call to
        :meth:`simulate_session` adds the session's duration, whether or
        not the session is eventually kept.  The scheduler reads (and
        may reset) this counter.
        """
        return self._simulated_time_s

    @property
    def steady_solve_count(self) -> int:
        """Steady-state queries answered so far (diagnostics).

        One per power map asked about: a full-network solve, a reduced
        matvec, one map of a batched GEMM, or one singleton read off the
        influence matrix's diagonal.  A caller that holds the answer to
        a query it repeats charges it with :meth:`charge_steady_solve`,
        so the count is one per query Algorithm 1 makes of the
        simulator, whether computed or repeated.
        """
        return self._steady_solve_count

    def charge_steady_solve(self) -> None:
        """Count one steady-state query whose answer the caller already holds."""
        self._steady_solve_count += 1

    def reset_effort(self) -> None:
        """Zero the simulation-effort counters."""
        self._simulated_time_s = 0.0
        self._steady_solve_count = 0

    # -- simulation ---------------------------------------------------------------------

    def _check_block_names(self, power_by_block: Mapping[str, float]) -> None:
        for name in power_by_block:
            if name not in self.floorplan:
                raise ThermalModelError(
                    f"power map names unknown block {name!r}; floorplan has "
                    f"{', '.join(self.floorplan.block_names)}"
                )

    def _power_vector(self, power_by_block: Mapping[str, float]) -> np.ndarray:
        self._check_block_names(power_by_block)
        prefixed = {
            die_node(name): watts for name, watts in power_by_block.items()
        }
        return self._model.network.power_vector(prefixed)

    def steady_state(self, power_by_block: Mapping[str, float]) -> TemperatureField:
        """Steady-state temperatures for a block power map (W by name).

        Blocks not present in the map dissipate zero power (they are
        passive cores in the test-session reading).
        """
        power = self._power_vector(power_by_block)
        rises = self._steady.solve(power)
        self._steady_solve_count += 1
        return TemperatureField(
            ambient_c=self.ambient_c,
            rises=dict(zip(self._model.network.node_names, rises.tolist())),
            block_names=self.floorplan.block_names,
        )

    def block_steady_state(
        self, power_by_block: Mapping[str, float]
    ) -> BlockTemperatureField:
        """Block-level steady state via the reduced operator (fast path).

        Numerically equivalent to :meth:`steady_state` restricted to
        the die blocks (same factorisation, superposed), but a single
        ``(n_blocks, n_blocks)`` matvec instead of a full-network
        back-substitution plus a per-node dict.  Use :meth:`steady_state`
        when package-node temperatures are needed (full-field heatmaps).
        """
        self._check_block_names(power_by_block)
        operator = self.reduced_operator
        rises = operator.rises(operator.power_vector(power_by_block))
        self._steady_solve_count += 1
        return BlockTemperatureField(
            ambient_c=self.ambient_c,
            block_names=operator.block_names,
            block_rises=rises,
            index=operator.block_index,
        )

    def block_steady_temperatures_c(
        self, columns: Sequence[int], watts: Sequence[float]
    ) -> np.ndarray:
        """Steady temperatures (Celsius) of the blocks that dissipate power.

        Block ``columns[k]`` of the reduced operator (see
        :meth:`ReducedSteadyOperator.index_of`) dissipates ``watts[k]``
        and every other block none; the result is aligned with
        *columns*.  The same scatter, matvec and gather as
        :meth:`block_steady_state` followed by
        :meth:`BlockTemperatureField.temperatures_for`, for a caller
        that resolved its block names to columns once.  Charges one
        steady solve.
        """
        if min(watts) < 0.0:
            raise ThermalModelError(
                f"power injection must be non-negative, got {min(watts)!r} W"
            )
        operator = self.reduced_operator
        power = np.zeros(operator.n_blocks)
        power[columns] = watts
        rises = operator.rises(power)
        self._steady_solve_count += 1
        return self.ambient_c + rises[columns]

    def solo_block_temperatures_c(
        self, power_by_block: Mapping[str, float]
    ) -> np.ndarray:
        """Each named block's steady temperature (Celsius) when tested alone.

        Block *b* dissipating ``power_by_block[b]`` with every other
        block passive reaches ``ambient + R[b, b] * P[b]``, read off the
        reduced operator's diagonal; the result is aligned with the
        mapping's order.  Bit-identical to the own-temperature entries
        of :meth:`block_steady_state_batch` over the singleton maps,
        whose every other product is an exact zero, and charged the
        same: one steady solve per block.
        """
        self._check_block_names(power_by_block)
        operator = self.reduced_operator
        columns = [operator.index_of(name) for name in power_by_block]
        watts = np.fromiter(power_by_block.values(), float, len(columns))
        if (watts < 0.0).any():
            raise ThermalModelError(
                f"power injection must be non-negative, got {watts.min()!r} W"
            )
        self._steady_solve_count += len(columns)
        return self.ambient_c + operator.matrix.diagonal()[columns] * watts

    def block_steady_state_batch(
        self, power_maps: Sequence[Mapping[str, float]]
    ) -> BlockTemperatureBatch:
        """Block-level steady state for *k* power maps in one GEMM.

        Each map is one operator application, so the batch charges
        ``k`` to :attr:`steady_solve_count` — the counter tracks real
        work requested, not Python call counts.
        """
        for power_map in power_maps:
            self._check_block_names(power_map)
        operator = self.reduced_operator
        rises = operator.rises(operator.power_matrix(power_maps))
        self._steady_solve_count += len(power_maps)
        return BlockTemperatureBatch(
            ambient_c=self.ambient_c,
            block_names=operator.block_names,
            rises=rises,
            index=operator.block_index,
        )

    def simulate_session(
        self, power_by_block: Mapping[str, float], duration_s: float
    ) -> TemperatureField:
        """Simulate one test session and charge its duration as effort.

        The thermal answer is the steady-state field (the paper's
        modification M1: steady-state temperatures upper-bound the
        transient peaks, so validating against them is conservative),
        but the *cost* charged is the session duration, mirroring how
        the paper counts "the amount of test session time which needs
        to be simulated".
        """
        if duration_s <= 0.0:
            raise ThermalModelError(
                f"session duration must be positive, got {duration_s!r}"
            )
        field = self.steady_state(power_by_block)
        self._simulated_time_s += duration_s
        return field

    def transient(
        self,
        power_by_block: Mapping[str, float],
        duration_s: float,
        dt: float = 1e-3,
        initial_rises: np.ndarray | None = None,
    ) -> TransientResult:
        """Transient response to a constant power map from ambient.

        A solver is cached per step size; repeated calls with the same
        ``dt`` re-use the matrix factorisation.
        """
        solver = self._transient_solvers.get(dt)
        if solver is None:
            solver = TransientSolver(self._model.network, dt)
            self._transient_solvers[dt] = solver
        power = self._power_vector(power_by_block)
        return solver.simulate(power, duration_s, initial_rises=initial_rises)

    def transient_schedule(
        self,
        intervals: list[tuple[Mapping[str, float], float]],
        dt: float = 1e-3,
    ) -> TransientResult:
        """Transient response to a piecewise-constant schedule of power maps."""
        solver = self._transient_solvers.get(dt)
        if solver is None:
            solver = TransientSolver(self._model.network, dt)
            self._transient_solvers[dt] = solver
        power_intervals = [
            (self._power_vector(power_map), duration)
            for power_map, duration in intervals
        ]
        return solver.simulate_schedule(power_intervals)

    def block_peak_transient_c(
        self, power_by_block: Mapping[str, float], duration_s: float, dt: float = 1e-3
    ) -> dict[str, float]:
        """Peak transient temperature (Celsius) of every block."""
        result = self.transient(power_by_block, duration_s, dt)
        return {
            name: self.ambient_c + result.peak_rise(die_node(name))
            for name in self.floorplan.block_names
        }
