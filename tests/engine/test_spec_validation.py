"""Scenario fields and ``stc_scale`` must be finite, positive numbers.

A NaN power scale, test time, ambient or cooling used to reach the
scheduler and commit schedules with NaN temperatures or lengths, a NaN
``stc_scale`` forced every core into a singleton and an infinite one
packed as if there were no STCL.  Every front door now rejects them with
the library's own errors: :class:`ScenarioSpec` (hence
:class:`ScheduleRequest`, :class:`JobSpec` and their dict loaders), the
wire protocol, and the session-model configuration.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.api import ScheduleRequest, Workbench, request_from_dict
from repro.api.request import request_to_dict
from repro.core.session_model import SessionModelConfig
from repro.engine.jobs import JobSpec, job_spec_from_dict, job_spec_to_dict
from repro.engine.scenarios import ScenarioSpec
from repro.errors import ProtocolError, RequestError, SchedulingError
from repro.service.protocol import decode_frame, parse_submit_frame, submit_frame
from repro.soc.library import alpha15_soc

#: (field, rejected value) pairs; each value is rejected on every kind.
BAD_FIELDS = [
    ("rows", 1.5),
    ("rows", 0),
    ("rows", True),
    ("rows", math.nan),
    ("cols", -2),
    ("cols", "3"),
    ("n_blocks", 2.5),
    ("n_blocks", 0),
    ("floorplan_seed", -1),
    ("floorplan_seed", 0.5),
    ("power_seed", math.nan),
    ("power_seed", -3),
    ("die_width", math.nan),
    ("die_width", 0.0),
    ("die_height", math.inf),
    ("power_scale", math.nan),
    ("power_scale", math.inf),
    ("power_scale", 0.0),
    ("test_time_s", math.nan),
    ("test_time_s", math.inf),
    ("test_time_s", -1.0),
    ("convection_resistance", math.nan),
    ("convection_resistance", 0.0),
    ("ambient_c", math.nan),
    ("ambient_c", -math.inf),
    ("split_bias", math.nan),
    ("split_bias", 0.0),
    ("split_bias", 1.0),
]

BAD_STC_SCALES = [math.nan, math.inf, -math.inf, 0.0, -1.0, True, "2"]

GRID = {"kind": "grid", "rows": 3, "cols": 3}


def _ids(pair):
    return f"{pair[0]}={pair[1]!r}"


@pytest.mark.parametrize("field,value", BAD_FIELDS, ids=map(_ids, BAD_FIELDS))
class TestScenarioFields:
    def test_scenario_spec(self, field, value):
        with pytest.raises(SchedulingError, match=field):
            ScenarioSpec(**{**GRID, field: value})

    def test_schedule_request(self, field, value):
        with pytest.raises(SchedulingError, match=field):
            ScheduleRequest(
                scenario=ScenarioSpec(**{**GRID, field: value}),
                tl_c=120.0,
                stcl=60.0,
            )

    def test_job_spec(self, field, value):
        with pytest.raises(SchedulingError, match=field):
            JobSpec(
                job_id="j",
                scenario=ScenarioSpec(**{**GRID, field: value}),
                tl_c=120.0,
                stcl=60.0,
            )

    def test_request_from_dict(self, field, value):
        data = request_to_dict(
            ScheduleRequest(scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)
        )
        data["scenario"][field] = value
        with pytest.raises(SchedulingError, match=field):
            request_from_dict(data)

    def test_job_spec_from_dict(self, field, value):
        data = job_spec_to_dict(
            JobSpec(job_id="j", scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)
        )
        data["scenario"][field] = value
        with pytest.raises(SchedulingError, match=field):
            job_spec_from_dict(data)

    def test_builtin_kinds_check_them_too(self, field, value):
        with pytest.raises(SchedulingError, match=field):
            ScenarioSpec(kind="alpha15", **{field: value})


@pytest.mark.parametrize(
    "field", ["power_scale", "test_time_s", "ambient_c", "convection_resistance"]
)
def test_nan_scenario_in_a_submit_frame_is_a_protocol_error(field):
    frame = submit_frame(
        "c1", ScheduleRequest(scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)
    )
    frame["request"]["scenario"][field] = math.nan
    line = json.dumps(frame)
    assert f'"{field}": NaN' in line
    with pytest.raises(ProtocolError, match=field):
        parse_submit_frame(decode_frame(line))


@pytest.mark.parametrize("value", BAD_STC_SCALES, ids=repr)
class TestStcScale:
    def test_schedule_request(self, value):
        with pytest.raises(RequestError, match="stc_scale"):
            ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0, stc_scale=value)

    def test_job_spec(self, value):
        with pytest.raises(SchedulingError, match="stc_scale"):
            JobSpec(
                job_id="j",
                scenario=ScenarioSpec(**GRID),
                tl_c=120.0,
                stcl=60.0,
                stc_scale=value,
            )

    def test_request_from_dict(self, value):
        data = request_to_dict(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
        data["stc_scale"] = value
        with pytest.raises(RequestError, match="stc_scale"):
            request_from_dict(data)

    def test_job_spec_from_dict(self, value):
        data = job_spec_to_dict(
            JobSpec(job_id="j", scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)
        )
        data["stc_scale"] = value
        with pytest.raises(SchedulingError, match="stc_scale"):
            job_spec_from_dict(data)

    def test_session_model_config(self, value):
        with pytest.raises(SchedulingError, match="stc_scale"):
            SessionModelConfig(stc_scale=value)

    def test_solve_soc(self, value):
        with pytest.raises(RequestError, match="stc_scale"):
            Workbench().solve_soc(alpha15_soc(), tl_c=165.0, stcl=60.0, stc_scale=value)


def test_nan_stc_scale_submit_frame_is_a_protocol_error():
    frame = submit_frame("c1", ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
    frame["request"]["stc_scale"] = math.nan
    with pytest.raises(ProtocolError, match="stc_scale"):
        parse_submit_frame(decode_frame(json.dumps(frame)))


def test_valid_numeric_types_still_accepted():
    spec = ScenarioSpec(
        kind="grid",
        rows=np.int64(2),
        cols=2,
        power_seed=np.int64(4),
        die_width=np.float64(16e-3),
        ambient_c=-10.0,
    )
    assert len(spec.build_soc()) == 4
    request = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0, stc_scale=1e-3)
    assert request.stc_scale == 1e-3
