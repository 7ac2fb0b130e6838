"""Repeated validations are reused, and counted as the queries they repeat.

After a discard whose retry would grow the same cores
(:meth:`SessionThermalModel.repeats`), :class:`ThermalAwareScheduler`
skips the growth pass and the simulation too: the session's cores and
powers are unchanged, so its temperatures and violators are as well.
A counting simulator checks that a run computes one validation per
distinct validated session (every growth pass, forced singletons
included).  The name-keyed reference of ``algorithm1_reference``
validates every session it proposes, and the scheduler must still
equal it field for field, ``steady_solves`` and the simulator's own
counter included, on the reduced, dense and transient validation paths
and without feedback at ``max_discards``.  ``steady_solves`` counts one
query per core in phase A and one per validation, computed or repeated,
on the steady paths, and none on the transient path.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import ScheduleResult, SchedulerConfig, ThermalAwareScheduler
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.errors import ScheduleInfeasibleError
from repro.soc.library import ALPHA15_STC_SCALE, alpha15_soc
from repro.thermal.simulator import ThermalSimulator

from .algorithm1_reference import reference_schedule, run
from .test_scheduler_reduced import ABLATIONS, limits_for, scenario_soc, singleton_limit

ORACLE = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class CountingSimulator(ThermalSimulator):
    """A simulator that counts the operator applications it computes."""

    applications = 0

    def steady_state(self, power_by_block):
        self.applications += 1
        return super().steady_state(power_by_block)

    def block_steady_state(self, power_by_block):
        self.applications += 1
        return super().block_steady_state(power_by_block)

    def block_steady_temperatures_c(self, columns, watts):
        self.applications += 1
        return super().block_steady_temperatures_c(columns, watts)

    def block_peak_transient_c(self, power_by_block, duration_s, dt=1e-3):
        self.applications += 1
        return super().block_peak_transient_c(power_by_block, duration_s, dt)


class CountingModel(SessionThermalModel):
    """A session model that counts its growth passes."""

    passes = 0

    def grow(self, candidates, stcl, weights):
        self.passes += 1
        return super().grow(candidates, stcl, weights)


def both_runs(soc, model_config, config, limits):
    """The scheduler's run and the reference's, on facades of one network.

    ``limits(model, scheduler)`` picks (TL, STCL) on a third facade, so
    neither run's counters see it.  Returns both outcomes (``run``'s
    form), both simulators and the scheduler's model.
    """
    base = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    handles = (base.model, base.steady_solver, base.reduced_operator)
    model = CountingModel(soc, model_config)
    tl_c, stcl = limits(model, ThermalAwareScheduler(soc, base, model, config=config))
    simulator = CountingSimulator.from_handles(*handles)
    reference = ThermalSimulator.from_handles(*handles)
    scheduler = ThermalAwareScheduler(soc, simulator, model, config=config)
    got = run(lambda: scheduler.schedule(tl_c, stcl))
    want = run(lambda: reference_schedule(soc, reference, model, config, tl_c, stcl))
    return got, want, simulator, reference, model


def assert_same_result(got, want):
    """Two results equal field for field, sessions and map orders included."""
    for name in (f.name for f in dataclasses.fields(ScheduleResult)):
        if name == "schedule":
            assert list(got.schedule) == list(want.schedule)
        elif name in ("bcmt_c", "weights"):
            assert list(getattr(got, name).items()) == list(
                getattr(want, name).items()
            ), name
        else:
            assert getattr(got, name) == getattr(want, name), name


def phase_a_applications(soc, config):
    """Phase A reads the reduced operator's diagonal, or simulates each core."""
    reduced = config.validation == "steady" and config.steady_path == "reduced"
    return 0 if reduced else len(soc)


def check(soc, config, got, want, simulator, reference, model):
    """Same outcome and counters as the reference, one application per pass."""
    assert simulator.steady_solve_count == reference.steady_solve_count
    if got[0] == "error" or want[0] == "error":
        assert got == want
        event(got[1].__name__)
    else:
        got, want = got[1], want[1]
        assert_same_result(got, want)
        validations = got.n_sessions + got.n_discarded
        steady = config.validation == "steady"
        assert got.steady_solves == (len(soc) + validations if steady else 0)
        event("reused" if model.passes < validations else "none reused")
    assert simulator.applications == phase_a_applications(soc, config) + model.passes


def weightings():
    """Feedback factors, and no feedback under a small ``max_discards``."""
    return st.one_of(
        st.builds(dict, weight_factor=st.sampled_from([1.05, 1.1, 2.0])),
        st.builds(
            dict,
            weight_factor=st.just(1.0),
            max_discards=st.integers(min_value=1, max_value=6),
        ),
    )


@ORACLE
@given(
    shape=st.one_of(
        st.tuples(st.just("slicing"), st.integers(min_value=2, max_value=30)),
        st.tuples(st.just("grid"), st.integers(min_value=1, max_value=10)),
        st.tuples(
            st.sampled_from(["alpha15", "hypothetical7", "worked_example6"]),
            st.just(0),
        ),
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    path=st.sampled_from(["reduced", "dense"]),
    order=st.sampled_from(["input", "power_desc", "area_asc", "density_desc"]),
    ablation=st.sampled_from(sorted(ABLATIONS)),
    weighting=weightings(),
    tight=st.sampled_from([True, True, False]),  # tight limits discard
    draw=st.floats(min_value=0.0, max_value=1.0),
)
def test_steady_runs_reuse_repeats_and_equal_the_reference(
    shape, seed, path, order, ablation, weighting, tight, draw
):
    soc = scenario_soc(*shape, seed)
    config = SchedulerConfig(steady_path=path, candidate_order=order, **weighting)

    def limits(model, scheduler):
        return limits_for(soc, model, scheduler, tight, draw)

    check(soc, config, *both_runs(soc, ABLATIONS[ablation], config, limits))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_cores=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    order=st.sampled_from(["input", "power_desc"]),
    weighting=weightings(),
    tl_headroom=st.floats(min_value=1.001, max_value=1.1),
    stcl_factor=st.floats(min_value=1.0, max_value=5.0),
)
def test_transient_runs_reuse_repeats_and_equal_the_reference(
    n_cores, seed, order, weighting, tl_headroom, stcl_factor
):
    """TL just over the hottest transient singleton, so sessions discard."""
    soc = scenario_soc("slicing", n_cores, seed)
    config = SchedulerConfig(
        validation="transient", transient_dt_s=0.05, candidate_order=order, **weighting
    )

    def limits(model, scheduler):
        hottest = max(scheduler.best_case_max_temperatures()[0].values())
        ambient = soc.package.ambient_c
        return (
            ambient + tl_headroom * (hottest - ambient),
            singleton_limit(model, soc.core_names, None, stcl_factor),
        )

    check(soc, config, *both_runs(soc, SessionModelConfig(), config, limits))


ALPHA15_MODEL = SessionModelConfig(stc_scale=ALPHA15_STC_SCALE)


@pytest.mark.parametrize(
    "config, tl_c, validations, passes",
    [
        (SchedulerConfig(), 165.0, 19, 10),
        (SchedulerConfig(steady_path="dense"), 165.0, 19, 10),
        (SchedulerConfig(validation="transient", transient_dt_s=0.05), 90.0, 41, 23),
    ],
    ids=["reduced", "dense", "transient"],
)
def test_alpha15_validates_each_distinct_session_once(
    config, tl_c, validations, passes
):
    """STCL 60: of the run's validations, only the growth passes' are computed."""
    soc = alpha15_soc()
    simulator = CountingSimulator(soc.floorplan, soc.package, soc.adjacency)
    model = CountingModel(soc, ALPHA15_MODEL)
    result = ThermalAwareScheduler(soc, simulator, model, config=config).schedule(
        tl_c, 60.0
    )
    reference = ThermalSimulator(soc.floorplan, soc.package)
    assert_same_result(
        result, reference_schedule(soc, reference, model, config, tl_c, 60.0)
    )
    assert (result.n_sessions + result.n_discarded, model.passes) == (
        validations,
        passes,
    )
    steady = config.validation == "steady"
    assert result.steady_solves == (15 + validations if steady else 0)
    assert simulator.steady_solve_count == reference.steady_solve_count
    assert simulator.applications == phase_a_applications(soc, config) + passes


def test_without_feedback_one_validation_stands_for_every_discard():
    """``weight_factor=1.0``: the first discard repeats until ``max_discards``."""
    soc = alpha15_soc()
    config = SchedulerConfig(weight_factor=1.0, max_discards=7)
    simulator = CountingSimulator(soc.floorplan, soc.package, soc.adjacency)
    reference = ThermalSimulator(soc.floorplan, soc.package)
    model = CountingModel(soc, ALPHA15_MODEL)
    got = run(
        lambda: ThermalAwareScheduler(soc, simulator, model, config=config).schedule(
            165.0, 60.0
        )
    )
    want = run(lambda: reference_schedule(soc, reference, model, config, 165.0, 60.0))
    assert got == want and got[1] is ScheduleInfeasibleError
    assert "exceeded max_discards=7 " in got[2]
    assert model.passes == simulator.applications == 1
    assert simulator.steady_solve_count == reference.steady_solve_count == 15 + 7
