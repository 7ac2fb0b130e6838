"""Malformed thermal-aware params are refused, not run.

``SchedulerConfig`` is built straight from request ``params``, which the
wire protocol accepts as any JSON (NaN included).  A NaN
``max_discards`` used to keep a worker discarding forever, a NaN
``weight_factor`` committed schedules whose weights read NaN, and an
unknown ``validation`` or ``on_stuck`` silently picked the other branch.
Every field is now checked for type and range at the config, so each
front door (``Workbench.solve``, a batch job, a TCP submit)
answers with the library's error instead.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.api import ScheduleRequest, Workbench
from repro.core.scheduler import SchedulerConfig
from repro.engine.runner import BatchRunner
from repro.engine.scenarios import ScenarioSpec
from repro.errors import SchedulingError, ServiceError
from repro.service import AsyncServiceClient, ScheduleServer, ScheduleService

#: (params, the field the error names); none of them may run.
BAD_PARAMS = [
    ({"weight_factor": 1.0, "max_discards": math.nan}, "max_discards"),
    ({"max_discards": 2.5}, "max_discards"),
    ({"max_discards": True}, "max_discards"),
    ({"max_discards": 0}, "max_discards"),
    ({"max_discards": "7"}, "max_discards"),
    ({"weight_factor": math.nan}, "weight_factor"),
    ({"weight_factor": math.inf}, "weight_factor"),
    ({"weight_factor": True}, "weight_factor"),
    ({"weight_factor": 0.9}, "weight_factor"),
    ({"weight_factor": "abc"}, "weight_factor"),
    ({"transient_dt_s": math.nan}, "transient_dt_s"),
    ({"transient_dt_s": math.inf}, "transient_dt_s"),
    ({"transient_dt_s": True}, "transient_dt_s"),
    ({"transient_dt_s": 0.0}, "transient_dt_s"),
    ({"count_phase_a_effort": "no"}, "count_phase_a_effort"),
    ({"count_phase_a_effort": 1}, "count_phase_a_effort"),
    ({"validation": "bogus"}, "validation"),
    ({"on_stuck": "bogus"}, "on_stuck"),
    ({"candidate_order": "bogus"}, "candidate_order"),
    ({"candidate_order": ["input"]}, "candidate_order"),
]
IDS = [f"{field}={next(iter(p.values()))!r}" for p, field in BAD_PARAMS]

#: alpha15 limits at which the NaN ``max_discards`` case used to hang.
LIMITS = {"tl_c": 150.0, "stcl": 30.0}


@pytest.mark.parametrize("params, field", BAD_PARAMS, ids=IDS)
def test_config_rejects(params, field):
    with pytest.raises(SchedulingError, match=field):
        SchedulerConfig(**params)


def test_config_rejects_an_unknown_steady_path():
    with pytest.raises(SchedulingError, match="steady_path"):
        SchedulerConfig(steady_path="bogus")  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "params",
    [
        {"weight_factor": 1},
        {"weight_factor": np.float64(1.3)},
        {"max_discards": np.int64(5)},
        {"transient_dt_s": 1},
        {"count_phase_a_effort": True},
        {"validation": "transient", "on_stuck": "error"},
    ],
)
def test_config_accepts_well_formed_values(params):
    SchedulerConfig(**params)


@pytest.mark.parametrize("params, field", BAD_PARAMS, ids=IDS)
def test_workbench_solve_rejects(params, field):
    request = ScheduleRequest(soc="alpha15", params=params, **LIMITS)
    with pytest.raises(SchedulingError, match=f"rejected params.*{field}"):
        Workbench().solve(request)


@pytest.mark.parametrize("params, field", BAD_PARAMS, ids=IDS)
def test_batch_job_becomes_an_error_outcome(params, field):
    request = ScheduleRequest(
        scenario=ScenarioSpec(kind="alpha15", power_seed=2005),
        params=params,
        **LIMITS,
    )
    _, outcome = BatchRunner().run({"bad": request})["bad"]
    assert outcome.status == "error"
    assert field in outcome.error


def test_tcp_submit_gets_an_error_frame_and_no_hang():
    """Each bad request is answered with an error; the worker stays free."""

    async def main():
        async with ScheduleService(backend="thread", max_workers=1) as service:
            server = ScheduleServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                async with await AsyncServiceClient.connect(
                    port=server.port
                ) as client:
                    for params, field in BAD_PARAMS[:3] + BAD_PARAMS[5:6]:
                        request = ScheduleRequest(
                            soc="alpha15", params=params, **LIMITS
                        )
                        with pytest.raises(ServiceError, match=field):
                            await asyncio.wait_for(client.submit(request), 30)
                    good = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0)
                    report = await asyncio.wait_for(client.submit(good), 30)
                    assert report.max_temperature_c < 165.0
            finally:
                await server.stop()

    asyncio.run(main())
