"""Cross-check: the session model's algebra vs the matrix solver.

The session thermal model computes each active core's equivalent
resistance with closed-form parallel combination (paper Figure 4).
That same rewired network — one node per active core, every remaining
path a tie to thermal ground — can be built explicitly and solved with
the generic :class:`~repro.thermal.steady_state.SteadyStateSolver`.
The two code paths share no arithmetic, so agreement is a strong check
on both.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session_model import (
    PAPER_SESSION_MODEL,
    SessionModelConfig,
    SessionThermalModel,
)
from repro.floorplan.generator import slicing_floorplan
from repro.power.generator import uniform_test_power_profile
from repro.soc.system import SocUnderTest
from repro.thermal.rc_network import ThermalNetwork
from repro.thermal.steady_state import SteadyStateSolver
from repro.units import parallel


def star_network_rth(model: SessionThermalModel, core: str, active: list[str]) -> float:
    """Rth of *core* via an explicit network solve of the rewired model."""
    net = ThermalNetwork()
    net.add_node(core, capacitance=1.0)
    active_set = set(active)
    paths = 0
    for neighbour, resistance in model.neighbour_resistances(core).items():
        if neighbour in active_set:
            continue  # M2: dropped
        net.add_ground_resistance(core, resistance)  # M3: grounded
        paths += 1
    edge = model.edge_resistance(core)
    if math.isfinite(edge):
        net.add_ground_resistance(core, edge)
        paths += 1
    if paths == 0:
        return math.inf
    solver = SteadyStateSolver(net.compile())
    return solver.input_output_resistance(core)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    session_bits=st.integers(min_value=1, max_value=2**12 - 1),
)
def test_parallel_algebra_matches_matrix_solve(n, seed, session_bits):
    """For random floorplans and random active sets, the closed-form
    Rth equals the explicit star-network solve for every active core."""
    plan = slicing_floorplan(n, seed=seed)
    soc = SocUnderTest.from_profile(
        plan, uniform_test_power_profile(plan, 10.0)
    )
    model = SessionThermalModel(soc, PAPER_SESSION_MODEL)

    names = list(plan.block_names)
    active = [name for i, name in enumerate(names) if session_bits >> i & 1]
    if not active:
        active = [names[0]]

    for core in active:
        closed_form = model.equivalent_resistance(core, active)
        explicit = star_network_rth(model, core, active)
        if math.isinf(closed_form):
            assert math.isinf(explicit)
        else:
            assert closed_form == pytest.approx(explicit, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rth_antitone_in_active_set(n, seed):
    """Growing the active set can only remove escape paths, so every
    member's Rth is monotone non-decreasing as cores are added."""
    plan = slicing_floorplan(n, seed=seed)
    soc = SocUnderTest.from_profile(
        plan, uniform_test_power_profile(plan, 10.0)
    )
    model = SessionThermalModel(soc, PAPER_SESSION_MODEL)
    names = list(plan.block_names)
    focus = names[0]
    active = [focus]
    previous = model.equivalent_resistance(focus, active)
    for name in names[1:]:
        active.append(name)
        current = model.equivalent_resistance(focus, active)
        if math.isinf(previous):
            assert math.isinf(current)
        else:
            assert current >= previous - 1e-12
        previous = current


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    session_bits=st.integers(min_value=1, max_value=2**12 - 1),
    include_vertical=st.booleans(),
)
def test_kernel_equals_parallel_bit_for_bit(n, seed, session_bits, include_vertical):
    """The pricing kernel sums the surviving paths exactly as
    :func:`~repro.units.parallel` does: neighbours in adjacency order,
    then the die edge, then the vertical stack."""
    plan = slicing_floorplan(n, seed=seed)
    soc = SocUnderTest.from_profile(plan, uniform_test_power_profile(plan, 10.0))
    config = SessionModelConfig(include_vertical=include_vertical)
    model = SessionThermalModel(soc, config)
    names = list(plan.block_names)
    active = [name for i, name in enumerate(names) if session_bits >> i & 1]
    active = active or [names[0]]
    for core in active:
        paths = [
            resistance
            for neighbour, resistance in model.neighbour_resistances(core).items()
            if neighbour not in active
        ]
        paths.append(model.edge_resistance(core))
        if include_vertical:
            paths.append(model.vertical_resistance(core))
        assert model.equivalent_resistance(core, active) == parallel(*paths)
