"""Scheduler equivalence: reduced steady path vs dense, incremental STC.

Two independent guarantees:

* switching ``SchedulerConfig.steady_path`` between ``"reduced"`` and
  ``"dense"`` changes *how* candidate sessions are validated but not
  *what* is decided — same sessions, same discards, same effort, same
  solve counts; temperatures agree to solver precision;
* :meth:`~repro.core.session_model.SessionThermalModel.grow_session`
  admits a candidate exactly when the from-scratch
  ``STC(S + [c]) <= STCL`` holds, for every admission sequence and
  every ablation configuration, and whole scheduler runs equal the
  name-keyed reference of ``algorithm1_reference`` (from-scratch
  growth, dict weights, name-keyed validation) field for field.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    ScheduleResult,
    SchedulerConfig,
    ThermalAwareScheduler,
)
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.engine.scenarios import ScenarioSpec
from repro.errors import ScheduleInfeasibleError, SchedulingError, ThermalModelError
from repro.floorplan.generator import grid_floorplan, slicing_floorplan
from repro.power.generator import (
    PowerGeneratorConfig,
    generate_power_profile,
    uniform_test_power_profile,
)
from repro.soc.library import (
    ALPHA15_STC_SCALE,
    alpha15_soc,
    hypothetical7_soc,
)
from repro.soc.system import SocUnderTest
from repro.thermal.simulator import ThermalSimulator

from .algorithm1_reference import reference_schedule, run


def build_random_soc(n_cores: int, seed: int) -> SocUnderTest:
    plan = slicing_floorplan(n_cores, seed=seed)
    profile = generate_power_profile(plan, PowerGeneratorConfig(seed=seed))
    return SocUnderTest.from_profile(plan, profile)


def run_schedule(soc, model, path, tl_c, stcl):
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    scheduler = ThermalAwareScheduler(
        soc,
        simulator=simulator,
        session_model=model,
        config=SchedulerConfig(steady_path=path),
    )
    return scheduler.schedule(tl_c=tl_c, stcl=stcl)


def assert_same_decisions(reduced, dense):
    """Same partition, same discards, same metrics; temps to precision."""
    assert [s.cores for s in reduced.schedule] == [s.cores for s in dense.schedule]
    assert [s.duration_s for s in reduced.schedule] == [
        s.duration_s for s in dense.schedule
    ]
    assert reduced.length_s == dense.length_s
    assert reduced.effort_s == dense.effort_s
    assert reduced.steady_solves == dense.steady_solves
    assert reduced.forced_singletons == dense.forced_singletons
    assert dict(reduced.weights) == dict(dense.weights)
    assert [(d.cores, d.violators, d.iteration) for d in reduced.discarded] == [
        (d.cores, d.violators, d.iteration) for d in dense.discarded
    ]
    assert reduced.max_temperature_c == pytest.approx(
        dense.max_temperature_c, abs=1e-9
    )
    for name in reduced.bcmt_c:
        assert reduced.bcmt_c[name] == pytest.approx(
            dense.bcmt_c[name], abs=1e-9
        )


class TestReducedVsDenseScheduling:
    @pytest.mark.parametrize(
        "tl_c, stcl", [(165.0, 60.0), (175.0, 40.0), (180.0, 90.0)]
    )
    def test_alpha15_decisions_identical(self, tl_c, stcl):
        soc = alpha15_soc()
        model = SessionThermalModel(
            soc, SessionModelConfig(stc_scale=ALPHA15_STC_SCALE)
        )
        reduced = run_schedule(soc, model, "reduced", tl_c, stcl)
        dense = run_schedule(soc, model, "dense", tl_c, stcl)
        assert_same_decisions(reduced, dense)

    def test_hypothetical7_decisions_identical(self):
        soc = hypothetical7_soc()
        model = SessionThermalModel(soc, SessionModelConfig(include_vertical=True))
        reduced = run_schedule(soc, model, "reduced", 200.0, 4000.0)
        dense = run_schedule(soc, model, "dense", 200.0, 4000.0)
        assert_same_decisions(reduced, dense)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_cores=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=5_000),
        tl_c=st.floats(min_value=100.0, max_value=220.0),
        stcl=st.floats(min_value=10.0, max_value=3_000.0),
    )
    def test_random_soc_decisions_identical(self, n_cores, seed, tl_c, stcl):
        soc = build_random_soc(n_cores, seed)
        model = SessionThermalModel(soc)
        try:
            reduced = run_schedule(soc, model, "reduced", tl_c, stcl)
        except Exception as reduced_exc:
            with pytest.raises(type(reduced_exc)):
                run_schedule(soc, model, "dense", tl_c, stcl)
            return
        dense = run_schedule(soc, model, "dense", tl_c, stcl)
        assert_same_decisions(reduced, dense)


#: Every session-model ablation the growth must agree with.
ABLATIONS = {
    "paper": SessionModelConfig(),
    "no-M2": SessionModelConfig(drop_active_active=False),
    "no-M3": SessionModelConfig(ground_passive=False),
    "no-M2-no-M3": SessionModelConfig(drop_active_active=False, ground_passive=False),
    "vertical": SessionModelConfig(include_vertical=True),
    "scaled": SessionModelConfig(stc_scale=ALPHA15_STC_SCALE),
}


def singleton_limit(model, names, weights, factor):
    """*factor* times the largest finite singleton STC (1.0 when none is)."""
    finite = [
        stc
        for stc in (model.session_thermal_characteristic([n], weights) for n in names)
        if math.isfinite(stc)
    ]
    return factor * max(finite, default=1.0)


def reference_growth(model, candidates, weights, stcl):
    """Algorithm 1 lines 9-15 with the STC recomputed from scratch."""
    session: list[str] = []
    for candidate in candidates:
        if model.session_thermal_characteristic(session + [candidate], weights) <= stcl:
            session.append(candidate)
    return session


def grow_by_name(model, candidates, weights, stcl):
    """:meth:`SessionThermalModel.grow_session` driven with core names."""
    names = model.soc.core_names
    index = {name: i for i, name in enumerate(names)}
    by_index = [weights.get(name, 1.0) for name in names]
    grown = model.grow_session([index[c] for c in candidates], stcl, by_index)
    return [names[i] for i in grown]


class TestSessionGrowth:
    @pytest.fixture(scope="class")
    def soc(self):
        return alpha15_soc()

    def _grow_and_compare(self, model, names, weights, stcl):
        """The O(degree) pass agrees with from-scratch growth on every prefix."""
        for end in range(1, len(names) + 1):
            candidates = names[:end]
            assert grow_by_name(model, candidates, weights, stcl) == reference_growth(
                model, candidates, weights, stcl
            )

    @pytest.mark.parametrize("config", ABLATIONS.values(), ids=ABLATIONS.keys())
    def test_bit_identical_across_configs(self, soc, config):
        model = SessionThermalModel(soc, config)
        rng = random.Random(7)
        names = list(soc.core_names)
        weights = {n: 1.0 + rng.random() for n in names}
        for trial in range(5):
            rng.shuffle(names)
            stcl = singleton_limit(model, names, weights, 10 ** rng.uniform(-0.3, 1.5))
            self._grow_and_compare(model, list(names), weights, stcl)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ablation=st.sampled_from(sorted(ABLATIONS)),
        n_cores=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        order_seed=st.integers(min_value=0, max_value=10_000),
        log_factor=st.floats(min_value=-1.0, max_value=2.0),
    )
    def test_bit_identical_on_random_floorplans(
        self, ablation, n_cores, seed, order_seed, log_factor
    ):
        soc = build_random_soc(n_cores, seed)
        model = SessionThermalModel(soc, ABLATIONS[ablation])
        rng = random.Random(order_seed)
        names = list(soc.core_names)
        rng.shuffle(names)
        weights = {n: 1.0 + rng.random() * 3.0 for n in names}
        stcl = singleton_limit(model, names, weights, 10**log_factor)
        self._grow_and_compare(model, names, weights, stcl)

    def test_neighbour_over_the_limit_rejects_the_candidate(self):
        """A candidate whose own term fits is still refused when it pushes
        an admitted neighbour over the limit, and leaves no trace."""
        plan = grid_floorplan(1, 3)
        soc = SocUnderTest.from_profile(plan, uniform_test_power_profile(plan, 10.0))
        model = SessionThermalModel(soc)
        weights = {"C0_0": 1e-6}
        stcl = model.session_thermal_characteristic(["C0_1"], weights)
        assert model.core_contributions(["C0_0", "C0_1"], weights)["C0_0"] <= stcl
        assert grow_by_name(model, ["C0_1", "C0_0"], weights, stcl) == ["C0_1"]
        # Refusing C0_0 left no trace: C0_2 is priced next to C0_1 alone.
        candidates = ["C0_1", "C0_0", "C0_2"]
        assert grow_by_name(model, candidates, weights, stcl) == reference_growth(
            model, candidates, weights, stcl
        )

    def test_duplicate_admission_rejected(self, soc):
        model = SessionThermalModel(soc)
        with pytest.raises(SchedulingError, match="already part"):
            model.grow_session([0, 0], 1e12, [1.0] * len(soc))

    def test_unknown_core_rejected(self, soc):
        """Names are checked where they enter the model's index space."""
        model = SessionThermalModel(soc)
        first = soc.core_names[0]
        with pytest.raises(SchedulingError, match="unknown core"):
            model.session_thermal_characteristic([first, "nope"])
        with pytest.raises(SchedulingError, match="unknown core"):
            model.core_contributions(["nope"])
        with pytest.raises(SchedulingError, match="unknown core"):
            model.equivalent_resistance(first, [first, "nope"])

    def test_empty_session_stc_is_zero(self, soc):
        model = SessionThermalModel(soc)
        assert model.session_thermal_characteristic([]) == 0.0
        assert model.grow_session([], 60.0, [1.0] * len(soc)) == []


def scenario_soc(kind, size, seed):
    if kind == "grid":
        spec = ScenarioSpec(kind="grid", rows=size, cols=size, power_seed=seed)
    elif kind == "slicing":
        spec = ScenarioSpec(
            kind="slicing", n_blocks=size, floorplan_seed=seed, power_seed=seed
        )
    else:
        spec = ScenarioSpec(kind=kind, power_seed=seed)
    return spec.build_soc()


def limits_for(soc, model, scheduler, tight, draw):
    """A (TL, STCL) pair: tight (discards, forced singletons) or loose."""
    bcmt, _ = scheduler.best_case_max_temperatures()
    ambient = soc.package.ambient_c
    tl_headroom, stcl_factor = (
        (1.05 + 0.3 * draw, 0.8 + 1.2 * draw)
        if tight
        else (1.5 + 6.5 * draw, 1.5 + 8.5 * draw)
    )
    tl_c = ambient + tl_headroom * (max(bcmt.values()) - ambient)
    stcl = singleton_limit(model, soc.core_names, None, stcl_factor)
    return tl_c, stcl


def assert_same_as_reference(soc, simulator, model, config, tl_c, stcl):
    """The scheduler and the reference agree on every field, or fail alike."""
    got = run(
        lambda: ThermalAwareScheduler(
            soc, simulator=simulator, session_model=model, config=config
        ).schedule(tl_c, stcl)
    )
    want = run(
        lambda: reference_schedule(soc, simulator, model, config, tl_c, stcl)
    )
    if got[0] == "error" or want[0] == "error":
        assert got == want
        return got
    got, want = got[1], want[1]
    for name in (f.name for f in dataclasses.fields(ScheduleResult)):
        if name == "schedule":
            assert list(got.schedule) == list(want.schedule)
        elif name in ("bcmt_c", "weights"):
            assert list(getattr(got, name).items()) == list(
                getattr(want, name).items()
            ), name
        else:
            assert getattr(got, name) == getattr(want, name), name
    return ("ok", got)


def outcome_kind(outcome):
    """``"scheduled"`` or the exception's name (a hypothesis event label)."""
    return "scheduled" if outcome[0] == "ok" else outcome[1].__name__


def weight_configs():
    """``weight_factor`` 1.1 and 1.5, and 1.0 with a small ``max_discards``.

    Without feedback any discard repeats until ``max_discards`` stops
    the run, so 1.0 is drawn less often to keep most runs scheduling.
    """
    return st.one_of(
        st.builds(dict, weight_factor=st.sampled_from([1.1, 1.1, 1.5])),
        st.builds(
            dict,
            weight_factor=st.just(1.0),
            max_discards=st.integers(min_value=1, max_value=4),
        ),
    )


#: ``on_stuck="error"`` ends a run at its first empty session; drawn a
#: third of the time so that most runs reach their forced singletons.
ON_STUCK = st.sampled_from(["force", "force", "error"])


class TestGrowthMatchesFromScratch:
    """Whole runs against the name-keyed reference in ``algorithm1_reference``."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.one_of(
            st.tuples(st.just("slicing"), st.integers(min_value=2, max_value=40)),
            st.tuples(st.just("grid"), st.integers(min_value=1, max_value=12)),
            st.tuples(
                st.sampled_from(["alpha15", "hypothetical7", "worked_example6"]),
                st.just(0),
            ),
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        order=st.sampled_from(["input", "power_desc", "area_asc", "density_desc"]),
        ablation=st.sampled_from(sorted(ABLATIONS)),
        weighting=weight_configs(),
        on_stuck=ON_STUCK,
        tight=st.booleans(),
        draw=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_schedule_equals_from_scratch_growth(
        self, shape, seed, order, ablation, weighting, on_stuck, tight, draw
    ):
        soc = scenario_soc(*shape, seed)
        model = SessionThermalModel(soc, ABLATIONS[ablation])
        config = SchedulerConfig(candidate_order=order, on_stuck=on_stuck, **weighting)
        simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        scheduler = ThermalAwareScheduler(
            soc, simulator=simulator, session_model=model, config=config
        )
        tl_c, stcl = limits_for(soc, model, scheduler, tight, draw)
        outcome = assert_same_as_reference(soc, simulator, model, config, tl_c, stcl)
        event(outcome_kind(outcome))

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_cores=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        path=st.sampled_from(
            [
                {"steady_path": "dense"},
                {"validation": "transient", "transient_dt_s": 0.05},
            ]
        ),
        order=st.sampled_from(["input", "power_desc"]),
        weighting=weight_configs(),
        on_stuck=ON_STUCK,
        tight=st.booleans(),
        draw=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_dense_and_transient_validation_equal_the_reference(
        self, n_cores, seed, path, order, weighting, on_stuck, tight, draw
    ):
        soc = scenario_soc("slicing", n_cores, seed)
        model = SessionThermalModel(soc)
        config = SchedulerConfig(
            candidate_order=order, on_stuck=on_stuck, **path, **weighting
        )
        simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        scheduler = ThermalAwareScheduler(
            soc, simulator=simulator, session_model=model, config=config
        )
        tl_c, stcl = limits_for(soc, model, scheduler, tight, draw)
        outcome = assert_same_as_reference(soc, simulator, model, config, tl_c, stcl)
        event(outcome_kind(outcome))

    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    @pytest.mark.parametrize(
        "shape",
        [("alpha15", 0), ("hypothetical7", 0), ("worked_example6", 0),
         ("grid", 12), ("slicing", 40)],
        ids=lambda shape: f"{shape[0]}{shape[1] or ''}",
    )
    def test_largest_shapes_equal_the_reference(self, shape, ablation):
        """The builtins and the largest generated shapes, tight limits."""
        soc = scenario_soc(*shape, 3)
        model = SessionThermalModel(soc, ABLATIONS[ablation])
        simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        scheduler = ThermalAwareScheduler(soc, simulator=simulator, session_model=model)
        tl_c, stcl = limits_for(soc, model, scheduler, True, 0.3)
        outcome = assert_same_as_reference(
            soc, simulator, model, SchedulerConfig(), tl_c, stcl
        )
        assert outcome[0] == "ok"

    @pytest.mark.parametrize("on_stuck", ["force", "error"])
    def test_stuck_runs_fail_or_force_alike(self, on_stuck):
        """An STCL below every singleton: forced singletons or the same error."""
        soc = scenario_soc("grid", 3, 4)
        model = SessionThermalModel(soc)
        simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        config = SchedulerConfig(on_stuck=on_stuck)
        outcome = assert_same_as_reference(soc, simulator, model, config, 500.0, 1e-9)
        if on_stuck == "error":
            assert outcome[1] is ScheduleInfeasibleError
        else:
            assert outcome[1].forced_singletons == len(soc)

    def test_simulator_lacking_a_core_still_raises(self):
        soc = scenario_soc("grid", 3, 1)
        smaller = ThermalSimulator(grid_floorplan(2, 3))
        model = SessionThermalModel(soc)
        for path in ("reduced", "dense"):
            config = SchedulerConfig(steady_path=path)
            with pytest.raises(ThermalModelError):
                ThermalAwareScheduler(
                    soc, simulator=smaller, session_model=model, config=config
                ).schedule(500.0, 1e9)
            with pytest.raises(ThermalModelError):
                reference_schedule(soc, smaller, model, config, 500.0, 1e9)

    @pytest.mark.parametrize("tight", [False, True])
    def test_simulator_with_more_blocks_than_the_soc(self, tight):
        """Sessions are scattered into the larger operator by block name."""
        soc = scenario_soc("grid", 2, 3)
        larger = ThermalSimulator(grid_floorplan(3, 3))
        assert larger.reduced_operator.n_blocks > len(soc)
        model = SessionThermalModel(soc)
        scheduler = ThermalAwareScheduler(soc, simulator=larger, session_model=model)
        tl_c, stcl = limits_for(soc, model, scheduler, tight, 0.5)
        outcome = assert_same_as_reference(
            soc, larger, model, SchedulerConfig(), tl_c, stcl
        )
        assert outcome[0] == "ok"
