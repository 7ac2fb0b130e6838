"""Reduced-order superposition operator: exactness, batching, sharing.

The operator is pure linear algebra over the same Cholesky factor as
the dense path, so the bar is numerical *equivalence* (solver
precision, asserted at 1e-9), not approximation quality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.scenarios import ScenarioSpec
from repro.errors import ThermalModelError
from repro.floorplan.generator import slicing_floorplan
from repro.power.generator import PowerGeneratorConfig, generate_power_profile
from repro.soc.library import alpha15_soc, hypothetical7_soc
from repro.thermal.reduced import (
    BlockTemperatureBatch,
    BlockTemperatureField,
    ReducedSteadyOperator,
)
from repro.thermal.simulator import ThermalSimulator

#: Reduced-vs-dense agreement bound (K): both paths apply the same
#: factorisation, so only accumulation order differs.
TOL = 1e-9


@pytest.fixture(scope="module")
def soc():
    return hypothetical7_soc()


@pytest.fixture(scope="module")
def simulator(soc):
    return ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)


@pytest.fixture(scope="module")
def operator(simulator):
    return simulator.reduced_operator


class TestOperator:
    def test_shape_and_names(self, soc, operator):
        n = len(soc.floorplan.block_names)
        assert operator.n_blocks == n
        assert operator.matrix.shape == (n, n)
        assert operator.block_names == soc.floorplan.block_names

    def test_matrix_is_symmetric_and_positive(self, operator):
        # G is symmetric, so the sampled inverse block is too; all
        # influence entries are positive (heat anywhere warms everything
        # in a connected resistive network).
        assert np.allclose(operator.matrix, operator.matrix.T, atol=1e-12)
        assert (operator.matrix > 0.0).all()

    def test_matrix_is_read_only(self, operator):
        with pytest.raises(ValueError):
            operator.matrix[0, 0] = 1.0

    def test_resistances_match_solver(self, soc, simulator, operator):
        from repro.thermal.builder import die_node

        solver = simulator.steady_solver
        names = soc.floorplan.block_names
        for name in names:
            assert operator.self_resistance(name) == pytest.approx(
                solver.input_output_resistance(die_node(name)), abs=TOL
            )
        assert operator.transfer_resistance(
            names[0], names[1]
        ) == pytest.approx(
            solver.transfer_resistance(die_node(names[0]), die_node(names[1])),
            abs=TOL,
        )

    def test_unknown_block_rejected(self, operator):
        with pytest.raises(ThermalModelError, match="unknown block"):
            operator.index_of("nope")
        with pytest.raises(ThermalModelError, match="unknown block"):
            operator.power_vector({"nope": 1.0})

    def test_negative_power_rejected(self, soc, operator):
        name = soc.floorplan.block_names[0]
        with pytest.raises(ThermalModelError, match="non-negative"):
            operator.power_vector({name: -1.0})
        with pytest.raises(ThermalModelError, match="non-negative"):
            operator.power_matrix([{name: -1.0}])

    def test_empty_batch_rejected(self, operator):
        with pytest.raises(ThermalModelError, match="at least one"):
            operator.power_matrix([])

    def test_batched_temperatures_are_columnwise_matvecs(self, soc, operator):
        maps = [
            {soc.floorplan.block_names[0]: 5.0},
            {name: 2.0 for name in soc.floorplan.block_names},
        ]
        powers = operator.power_matrix(maps)
        batched = operator.temperatures(powers)
        for j, power_map in enumerate(maps):
            single = operator.temperatures(operator.power_vector(power_map))
            # GEMM and GEMV accumulate in different orders, so the
            # agreement is to precision, not bit-exact.
            np.testing.assert_allclose(batched[:, j], single, rtol=0, atol=TOL)


class TestSimulatorFastPath:
    def test_block_steady_state_matches_dense(self, soc, simulator):
        power = soc.test_power_map()
        dense = simulator.steady_state(power)
        fast = simulator.block_steady_state(power)
        for name in soc.floorplan.block_names:
            assert fast.temperature_c(name) == pytest.approx(
                dense.temperature_c(name), abs=TOL
            )
        assert fast.max_temperature_c() == pytest.approx(
            dense.max_temperature_c(), abs=TOL
        )
        assert fast.hottest_block() == dense.hottest_block()

    def test_block_field_api(self, soc, simulator):
        power = soc.test_power_map()
        fast = simulator.block_steady_state(power)
        assert isinstance(fast, BlockTemperatureField)
        temps = fast.block_temperatures_c()
        assert set(temps) == set(soc.floorplan.block_names)
        name = soc.floorplan.block_names[0]
        assert temps[name] == pytest.approx(fast.temperature_c(name))
        assert fast.rise_of(name) == pytest.approx(
            fast.temperature_c(name) - fast.ambient_c
        )
        gathered = fast.temperatures_for([name, soc.floorplan.block_names[1]])
        assert gathered[0] == pytest.approx(fast.temperature_c(name))
        with pytest.raises(ThermalModelError, match="unknown block"):
            fast.temperature_c("nope")

    def test_batch_matches_singles(self, soc, simulator):
        names = list(soc.core_names)
        maps = [{n: soc[n].test_power_w} for n in names]
        batch = simulator.block_steady_state_batch(maps)
        assert isinstance(batch, BlockTemperatureBatch)
        assert len(batch) == len(maps)
        for j, power_map in enumerate(maps):
            single = simulator.block_steady_state(power_map)
            field = batch.field(j)
            np.testing.assert_allclose(
                field.block_rises, single.block_rises, rtol=0, atol=TOL
            )
        # Each block's own temperature off the operator's diagonal is
        # bit-identical to its entry in the batch: every other product
        # in the GEMM is an exact zero.
        own = simulator.solo_block_temperatures_c(soc.test_power_map())
        for j, n in enumerate(names):
            assert own[j] == batch.field(j).temperature_c(n)
        np.testing.assert_array_equal(
            batch.max_temperatures_c(),
            [batch.field(j).max_temperature_c() for j in range(len(batch))],
        )

    def test_solo_temperatures_reject_bad_input(self, soc, simulator):
        with pytest.raises(ThermalModelError, match="unknown block"):
            simulator.solo_block_temperatures_c({"nope": 1.0})
        with pytest.raises(ThermalModelError, match="non-negative"):
            simulator.solo_block_temperatures_c({soc.core_names[0]: -1.0})

    def test_session_temperatures_match_the_field(self, soc, simulator):
        operator = simulator.reduced_operator
        session = list(soc.core_names)[1::2]
        field = simulator.block_steady_state(soc.session_power_map(session))
        before = simulator.steady_solve_count
        temps = simulator.block_steady_temperatures_c(
            [operator.index_of(n) for n in session],
            [soc[n].test_power_w for n in session],
        )
        assert simulator.steady_solve_count == before + 1
        np.testing.assert_array_equal(temps, field.temperatures_for(session))
        with pytest.raises(ThermalModelError, match="non-negative"):
            simulator.block_steady_temperatures_c([0], [-1.0])

    def test_unknown_block_in_power_map(self, simulator):
        with pytest.raises(ThermalModelError, match="unknown block"):
            simulator.block_steady_state({"nope": 1.0})
        with pytest.raises(ThermalModelError, match="unknown block"):
            simulator.block_steady_state_batch([{"nope": 1.0}])

    def test_solve_counting(self, soc):
        sim = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        assert sim.steady_solve_count == 0
        sim.block_steady_state(soc.test_power_map())
        assert sim.steady_solve_count == 1
        sim.block_steady_state_batch(
            [{n: soc[n].test_power_w} for n in soc.core_names]
        )
        assert sim.steady_solve_count == 1 + len(soc)
        sim.solo_block_temperatures_c(soc.test_power_map())
        assert sim.steady_solve_count == 1 + 2 * len(soc)

    def test_operator_is_lazy_and_cached(self, soc):
        sim = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        first = sim.reduced_operator
        assert sim.reduced_operator is first

    def test_from_handles_shares_operator(self, soc, simulator):
        shared = ThermalSimulator.from_handles(
            simulator.model, simulator.steady_solver, simulator.reduced_operator
        )
        assert shared.reduced_operator is simulator.reduced_operator
        assert shared.steady_solve_count == 0

    def test_foreign_operator_rejected(self, soc, simulator):
        other = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        with pytest.raises(ThermalModelError, match="different network"):
            ThermalSimulator.from_handles(
                simulator.model,
                simulator.steady_solver,
                other.reduced_operator,
            )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_cores=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    subset_seed=st.integers(min_value=0, max_value=10_000),
)
def test_reduced_matches_dense_on_random_floorplans(n_cores, seed, subset_seed):
    """Property: block_steady_state == steady_state (blocks) within 1e-9."""
    plan = slicing_floorplan(n_cores, seed=seed)
    profile = generate_power_profile(plan, PowerGeneratorConfig(seed=seed))
    simulator = ThermalSimulator(plan)
    rng = np.random.default_rng(subset_seed)
    names = list(plan.block_names)
    active = [n for n in names if rng.random() < 0.6] or [names[0]]
    power = {n: profile[n].test_w for n in active}

    dense = simulator.steady_state(power)
    fast = simulator.block_steady_state(power)
    for name in names:
        assert abs(fast.temperature_c(name) - dense.temperature_c(name)) <= TOL
    assert abs(fast.max_temperature_c() - dense.max_temperature_c()) <= TOL


def test_alpha15_reduced_matches_dense_exhaustively():
    """Every singleton and the all-active map on the calibrated platform."""
    soc = alpha15_soc()
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    maps = [{n: soc[n].test_power_w} for n in soc.core_names]
    maps.append(soc.test_power_map())
    batch = simulator.block_steady_state_batch(maps)
    for j, power_map in enumerate(maps):
        dense = simulator.steady_state(power_map)
        field = batch.field(j)
        for name in soc.floorplan.block_names:
            assert abs(field.temperature_c(name) - dense.temperature_c(name)) <= TOL


@pytest.mark.parametrize("size", [8, 12, 16])
def test_solo_temperatures_equal_the_batch_on_grids(size):
    """Diagonal read == own entries of the singleton GEMM, bit for bit."""
    soc = ScenarioSpec(kind="grid", rows=size, cols=size, power_seed=size).build_soc()
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    names = list(soc.core_names)
    batch = simulator.block_steady_state_batch(
        [{n: soc[n].test_power_w} for n in names]
    )
    own = simulator.solo_block_temperatures_c(soc.test_power_map())
    diagonal = batch.rises[np.arange(len(names)), np.arange(len(names))]
    np.testing.assert_array_equal(own, batch.ambient_c + diagonal)
