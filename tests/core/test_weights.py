"""Algorithm 1's adaptive core weights, observed through whole runs.

Weights start at 1.0 and a violating core's weight is multiplied by the
factor (line 20) each time it violates, so a core's final weight is the
factor applied once per discarded session that named it a violator.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.scheduler import (
    PAPER_WEIGHT_FACTOR,
    SchedulerConfig,
    ThermalAwareScheduler,
)
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.errors import ScheduleInfeasibleError, SchedulingError
from repro.soc.library import ALPHA15_STC_SCALE, alpha15_soc

from .algorithm1_reference import reference_schedule, run

#: alpha15 limits whose run discards sessions: one core violates once,
#: five violate repeatedly and nine never do.
TL_C, STCL = 160.0, 40.0


@pytest.fixture(scope="module")
def soc():
    return alpha15_soc()


@pytest.fixture(scope="module")
def model(soc):
    return SessionThermalModel(soc, SessionModelConfig(stc_scale=ALPHA15_STC_SCALE))


def schedule(soc, model, config=SchedulerConfig(), tl_c=TL_C, stcl=STCL):
    return ThermalAwareScheduler(soc, session_model=model, config=config).schedule(
        tl_c, stcl
    )


def violations(result) -> Counter:
    """How many discarded sessions named each core a violator."""
    return Counter(core for d in result.discarded for core in d.violators)


class TestConstruction:
    def test_initial_weights_are_one(self, soc, model):
        result = schedule(soc, model, tl_c=250.0, stcl=100.0)
        assert not result.discarded
        assert list(result.weights.items()) == [(n, 1.0) for n in soc.core_names]

    def test_paper_factor_default(self):
        assert SchedulerConfig().weight_factor == PAPER_WEIGHT_FACTOR == 1.1

    def test_shrinking_factor_rejected(self):
        with pytest.raises(SchedulingError, match="weight_factor"):
            SchedulerConfig(weight_factor=0.9)


class TestPenalisation:
    def test_single_penalty_is_paper_rule(self, soc, model):
        result = schedule(soc, model)
        once = [core for core, n in violations(result).items() if n == 1]
        assert once
        for core in once:
            assert result.weights[core] == 1.0 * 1.1

    def test_penalties_compound(self, soc, model):
        result = schedule(soc, model)
        counts = violations(result)
        assert max(counts.values()) > 1
        for core, weight in result.weights.items():
            expected = 1.0
            for _ in range(counts[core]):
                expected = expected * 1.1
            assert weight == expected, core

    def test_penalise_all(self, soc, model):
        """Every violator of a discarded session escalates; nobody else."""
        result = schedule(soc, model)
        assert any(len(d.violators) > 1 for d in result.discarded)
        counts = violations(result)
        for core, weight in result.weights.items():
            assert (weight > 1.0) == (counts[core] > 0), core
        want = reference_schedule(
            soc, ThermalAwareScheduler(soc).simulator, model, SchedulerConfig(),
            TL_C, STCL,
        )
        assert list(result.weights.items()) == list(want.weights.items())

    def test_factor_one_disables_feedback(self, soc, model):
        """Without escalation the violating session is proposed again and
        again until ``max_discards`` stops the run."""
        config = SchedulerConfig(weight_factor=1.0, max_discards=3)
        got = run(lambda: schedule(soc, model, config))
        assert got[0] == "error" and got[1] is ScheduleInfeasibleError
        assert "max_discards=3" in got[2]
        simulator = ThermalAwareScheduler(soc).simulator
        assert got == run(
            lambda: reference_schedule(soc, simulator, model, config, TL_C, STCL)
        )


class TestAudit:
    def test_snapshot_is_independent(self, soc, model):
        first = schedule(soc, model)
        snapshot = dict(first.weights)
        first.weights[soc.core_names[0]] = 99.0  # type: ignore[index]
        second = schedule(soc, model)
        assert second.weights is not first.weights
        assert dict(second.weights) == snapshot
