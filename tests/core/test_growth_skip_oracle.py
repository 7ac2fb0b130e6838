"""Skipped growth passes against the real passes they stand for.

After a grown session is discarded, only the violators' weights rise.
:meth:`SessionThermalModel.repeats` decides from those cores' terms at
their admission masks and final masks whether the retry's growth pass
would admit the same cores, and :class:`ThermalAwareScheduler` skips the
pass when it would.  A spy model grows every retry for real beside the
verdict: a pass is skipped exactly when the real pass repeats (masks
included), and a run that skips returns what a run that grows every
retry returns, errors included, on every model variant, candidate order
and weight factor.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.scheduler import SchedulerConfig, ThermalAwareScheduler
from repro.core.session_model import PAPER_SESSION_MODEL, SessionThermalModel
from repro.errors import ScheduleInfeasibleError
from repro.thermal.simulator import ThermalSimulator

from .test_pricing_oracle import ORACLE, configs, socs

ORDERS = st.sampled_from(["input", "power_desc", "area_asc", "density_desc"])


class Spy(SessionThermalModel):
    """A session model that checks every repeat verdict against a real pass.

    With ``skip=False`` it never lets the scheduler skip, so the run
    grows every retry, as the scheduler did before skipping existed.
    """

    def __init__(self, soc, config, skip):
        super().__init__(soc, config)
        self.skip = skip
        self.candidates = None
        self.skipped = 0
        self.regrown = 0

    def grow(self, candidates, stcl, weights):
        self.candidates = candidates
        return super().grow(candidates, stcl, weights)

    def repeats(self, grown, raised, stcl, weights):
        verdict = super().repeats(grown, raised, stcl, weights)
        real = SessionThermalModel.grow(self, self.candidates, stcl, weights)
        # Skipped exactly when the real pass admits the same cores, and
        # then the skipped pass is the real one, masks and all.
        assert verdict == (real.cores == grown.cores)
        if verdict:
            assert real == grown
            self.skipped += 1
        self.regrown += real.cores == grown.cores
        return verdict and self.skip


def limits(soc, model, simulator, tl_headroom, stcl_headroom):
    """A TL above every core's phase-A peak and an STCL over its singletons."""
    scheduler = ThermalAwareScheduler(soc, simulator, model)
    bcmt = max(scheduler.best_case_max_temperatures()[0].values())
    ambient = soc.package.ambient_c
    finite = [s for s in model.singleton_stcs(range(len(soc))) if s < float("inf")]
    return (
        ambient + tl_headroom * (bcmt - ambient),
        stcl_headroom * max(finite, default=1.0),
    )


def outcome(scheduler, tl_c, stcl):
    """Everything a run returns, or the error it raises."""
    try:
        result = scheduler.schedule(tl_c, stcl)
    except ScheduleInfeasibleError as error:
        return ("infeasible", str(error))
    sessions = [
        (s.cores, s.duration_s, s.max_temperature_c, dict(s.core_temperatures_c))
        for s in result.schedule
    ]
    return (
        sessions,
        result.discarded,
        dict(result.weights),
        dict(result.bcmt_c),
        result.effort_s,
        result.steady_solves,
        result.forced_singletons,
        result.length_s,
        result.max_temperature_c,
    )


def both_runs(soc, model_config, config, tl_headroom, stcl_headroom):
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    spies = [Spy(soc, model_config, skip) for skip in (True, False)]
    tl_c, stcl = limits(soc, spies[0], simulator, tl_headroom, stcl_headroom)
    outcomes = [
        outcome(ThermalAwareScheduler(soc, simulator, spy, config=config), tl_c, stcl)
        for spy in spies
    ]
    return outcomes, spies


@ORACLE
@given(
    soc=socs(),
    model_config=configs,
    order=ORDERS,
    factor=st.sampled_from([1.05, 1.1, 2.0]),
    tl_headroom=st.sampled_from([1.02, 1.1, 1.3, 2.0]),
    stcl_headroom=st.sampled_from([1.0, 1.5, 3.0]),
)
def test_skipped_passes_are_the_real_passes(
    soc, model_config, order, factor, tl_headroom, stcl_headroom
):
    config = SchedulerConfig(
        weight_factor=factor, candidate_order=order, max_discards=3000
    )
    (skipping, growing), (spy, _) = both_runs(
        soc, model_config, config, tl_headroom, stcl_headroom
    )
    assert skipping == growing
    assert spy.skipped == spy.regrown


@ORACLE
@given(
    soc=socs(),
    order=ORDERS,
    factor=st.sampled_from([1.05, 1.1, 2.0]),
    tl_headroom=st.sampled_from([1.02, 1.1, 1.3]),
    stcl_headroom=st.sampled_from([1.5, 3.0]),
)
def test_every_retry_that_regrows_its_session_is_skipped_in_the_paper_setting(
    soc, order, factor, tl_headroom, stcl_headroom
):
    config = SchedulerConfig(
        weight_factor=factor, candidate_order=order, max_discards=3000
    )
    (skipping, growing), (spy, never) = both_runs(
        soc, PAPER_SESSION_MODEL, config, tl_headroom, stcl_headroom
    )
    assert skipping == growing
    assert spy.skipped == spy.regrown == never.regrown


@ORACLE
@given(
    soc=socs(),
    model_config=configs,
    order=ORDERS,
    max_discards=st.sampled_from([1, 2, 7, 50]),
    tl_headroom=st.sampled_from([1.02, 1.1, 1.3]),
)
def test_without_feedback_the_same_error_comes_at_max_discards(
    soc, model_config, order, max_discards, tl_headroom
):
    config = SchedulerConfig(
        weight_factor=1.0, candidate_order=order, max_discards=max_discards
    )
    (skipping, growing), (spy, _) = both_runs(
        soc, model_config, config, tl_headroom, 1.5
    )
    assert skipping == growing
    if skipping[0] == "infeasible":
        assert f"exceeded max_discards={max_discards} " in skipping[1]
        # Weights never move, so a grown session that is discarded once
        # is validated again without a pass until the cap; a forced
        # singleton is never grown, so its retries are not skipped.
        assert spy.skipped in (0, max_discards - 1)
    else:
        assert not skipping[1]
