"""Scheduler equivalence: reduced steady path vs dense, incremental STC.

Two independent guarantees:

* switching ``SchedulerConfig.steady_path`` between ``"reduced"`` and
  ``"dense"`` changes *how* candidate sessions are validated but not
  *what* is decided — same sessions, same discards, same effort, same
  solve counts; temperatures agree to solver precision;
* :class:`~repro.core.session_model.SessionGrowth` admits a candidate
  exactly when the from-scratch ``STC(S + [c]) <= STCL`` holds, and its
  running STC is **bit-identical** to the from-scratch value, for every
  admission sequence and every ablation configuration; a scheduler
  whose growth recomputes the STC from scratch per candidate produces
  the same schedule, field for field.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    ScheduleResult,
    SchedulerConfig,
    ThermalAwareScheduler,
)
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.engine.scenarios import ScenarioSpec
from repro.errors import SchedulingError
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


class TestSessionGrowth:
    @pytest.fixture(scope="class")
    def soc(self):
        return alpha15_soc()

    def _grow_and_compare(self, model, names, weights, stcl):
        """Greedy growth double-checked against from-scratch STC."""
        growth = model.start_session(stcl, weights)
        session: list[str] = []
        for candidate in names:
            fits = (
                model.session_thermal_characteristic(session + [candidate], weights)
                <= stcl
            )
            assert growth.try_add(candidate) is fits
            if fits:
                session.append(candidate)
            # Bit-identical, not approximately equal: the stored terms
            # come from the same kernel on the same operands.
            assert growth.stc() == model.session_thermal_characteristic(
                session, weights
            )
        assert list(growth.cores) == session

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
        growth = model.start_session(stcl, weights)
        assert growth.try_add("C0_1")
        assert model.core_contributions(["C0_0", "C0_1"], weights)["C0_0"] <= stcl
        assert not growth.try_add("C0_0")
        assert growth.cores == ("C0_1",)
        assert growth.stc() == stcl
        assert not growth.try_add("C0_2")
        assert growth.cores == ("C0_1",)

    def test_duplicate_admission_rejected(self, soc):
        model = SessionThermalModel(soc)
        growth = model.start_session(1e12)
        first = soc.core_names[0]
        assert growth.try_add(first)
        with pytest.raises(SchedulingError, match="already part"):
            growth.try_add(first)

    def test_unknown_core_rejected(self, soc):
        model = SessionThermalModel(soc)
        growth = model.start_session(1e12)
        with pytest.raises(SchedulingError, match="unknown core"):
            growth.try_add("nope")

    def test_empty_session_stc_is_zero(self, soc):
        model = SessionThermalModel(soc)
        assert model.start_session(60.0).stc() == 0.0


class FromScratchGrowthScheduler(ThermalAwareScheduler):
    """Reference Algorithm 1: the STC of ``S + [c]`` recomputed per candidate."""

    def _grow_session(self, pending, stcl, weights):
        mapping = weights.as_mapping()
        session: list[str] = []
        for candidate in self._ordered(pending):
            stc = self.session_model.session_thermal_characteristic(
                session + [candidate], mapping
            )
            if stc <= stcl:
                session.append(candidate)
        return session


def scenario_soc(kind, size, seed):
    if kind == "grid":
        spec = ScenarioSpec(kind="grid", rows=size, cols=size, power_seed=seed)
    else:
        spec = ScenarioSpec(
            kind="slicing", n_blocks=size, floorplan_seed=seed, power_seed=seed
        )
    return spec.build_soc()


class TestGrowthMatchesFromScratch:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.one_of(
            st.tuples(st.just("slicing"), st.integers(min_value=2, max_value=40)),
            st.tuples(st.just("grid"), st.integers(min_value=1, max_value=12)),
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        order=st.sampled_from(["input", "power_desc", "area_asc", "density_desc"]),
        tight=st.booleans(),
        draw=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_schedule_equals_from_scratch_growth(self, shape, seed, order, tight, draw):
        soc = scenario_soc(*shape, seed)
        model = SessionThermalModel(soc)
        config = SchedulerConfig(candidate_order=order)
        fast = ThermalAwareScheduler(soc, session_model=model, config=config)
        bcmt, _ = fast.best_case_max_temperatures()
        ambient = soc.package.ambient_c
        # Tight: TL just above the hottest singleton and STCL near the
        # largest singleton STC (discards, forced singletons); loose:
        # well above both (fewer, larger sessions).
        tl_headroom, stcl_factor = (
            (1.05 + 0.3 * draw, 0.8 + 1.2 * draw)
            if tight
            else (1.5 + 6.5 * draw, 1.5 + 8.5 * draw)
        )
        tl_c = ambient + tl_headroom * (max(bcmt.values()) - ambient)
        stcl = singleton_limit(model, soc.core_names, None, stcl_factor)
        reference = FromScratchGrowthScheduler(soc, session_model=model, config=config)
        got = fast.schedule(tl_c, stcl)
        want = reference.schedule(tl_c, stcl)
        for name in (f.name for f in dataclasses.fields(ScheduleResult)):
            if name == "schedule":
                assert list(got.schedule) == list(want.schedule)
            else:
                assert getattr(got, name) == getattr(want, name), name
