"""Scenario fields and ``stc_scale`` must be finite, positive numbers.

A NaN power scale, test time, ambient or cooling used to reach the
scheduler and commit schedules with NaN temperatures or lengths, a NaN
``stc_scale`` forced every core into a singleton and an infinite one
packed as if there were no STCL.  Every front door now rejects them with
the library's own errors: :class:`ScenarioSpec` (hence
:class:`ScheduleRequest` and its dict loader), the batch archive loader,
the wire protocol, and the session-model configuration.  A warm-start
skips an archived answer that carries one and keeps warming from the
records behind it.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.api import ScheduleRequest, Workbench, request_from_dict
from repro.api.request import request_to_dict
from repro.core.serialize import load_jsonl
from repro.core.session_model import SessionModelConfig
from repro.engine.runner import BatchRunner, load_batch_jsonl
from repro.engine.scenarios import MAX_SCENARIO_BLOCKS, ScenarioSpec
from repro.errors import ProtocolError, RequestError, SchedulingError
from repro.service.answer_cache import AnswerCache, warm_cache_from_archive
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


@pytest.fixture(scope="module")
def archived_job(tmp_path_factory) -> dict[str, Any]:
    """The ``ok`` batch archive record of one 3x3 grid job."""
    path = tmp_path_factory.mktemp("batch") / "fleet.jsonl"
    BatchRunner().run(
        {"j": ScheduleRequest(scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)},
        jsonl_path=path,
    )
    (record,) = load_jsonl(path)
    assert record["status"] == "ok"
    return record


def _with_request(record: dict[str, Any], edit) -> dict[str, Any]:
    """A copy of *record* with *edit* applied to both copies of its request."""
    record = copy.deepcopy(record)
    edit(record["request"])
    edit(record["report"]["request"])
    return record


def _write_jsonl(path: Path, *records: dict[str, Any]) -> Path:
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


def _assert_batch_archive_rejects(tmp_path, record, match):
    path = _write_jsonl(tmp_path / "fleet.jsonl", record)
    with pytest.raises(SchedulingError, match=rf"fleet\.jsonl:1: .*{match}"):
        load_batch_jsonl(path)


def _assert_warm_start_skips(tmp_path, good, drifted):
    """The drifted newest record neither loads nor takes the one slot."""
    path = _write_jsonl(tmp_path / "served.jsonl", good, drifted)
    cache = AnswerCache(max_entries=1)
    assert warm_cache_from_archive(cache, path) == 1
    outcome = cache.get(good["request_hash"])
    assert outcome is not None and outcome.report is not None
    assert outcome.report.request.content_hash() == good["request_hash"]


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

    def test_request_from_dict(self, field, value):
        data = request_to_dict(
            ScheduleRequest(scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)
        )
        data["scenario"][field] = value
        with pytest.raises(SchedulingError, match=field):
            request_from_dict(data)

    def test_batch_archive(self, field, value, archived_job, tmp_path):
        record = _with_request(
            archived_job, lambda request: request["scenario"].update({field: value})
        )
        _assert_batch_archive_rejects(tmp_path, record, field)

    def test_warm_start_skips_it(self, field, value, archived_job, tmp_path):
        drifted = _with_request(
            archived_job, lambda request: request["scenario"].update({field: value})
        )
        _assert_warm_start_skips(tmp_path, archived_job, drifted)

    def test_builtin_kinds_check_them_too(self, field, value):
        with pytest.raises(SchedulingError, match=field):
            ScenarioSpec(kind="alpha15", **{field: value})


#: Generated scenarios past the dense model's block limit.  None is built:
#: construction refuses them before any geometry exists.
TOO_MANY_BLOCKS = [
    {"kind": "grid", "rows": 200, "cols": 200},
    {"kind": "grid", "rows": MAX_SCENARIO_BLOCKS + 1, "cols": 1},
    {"kind": "grid", "rows": 33, "cols": 32},
    {"kind": "slicing", "n_blocks": MAX_SCENARIO_BLOCKS + 1},
    {"kind": "slicing", "n_blocks": 1_000_000},
]


@pytest.mark.parametrize("fields", TOO_MANY_BLOCKS, ids=repr)
class TestBlockLimit:
    def test_scenario_spec(self, fields):
        with pytest.raises(SchedulingError, match="blocks exceeds the limit of 1024"):
            ScenarioSpec(**fields)

    def test_schedule_request(self, fields):
        with pytest.raises(SchedulingError, match="blocks exceeds"):
            ScheduleRequest(scenario=ScenarioSpec(**fields), tl_c=120.0, stcl=60.0)

    def test_request_from_dict(self, fields):
        data = request_to_dict(
            ScheduleRequest(scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)
        )
        data["scenario"].update(fields)
        with pytest.raises(SchedulingError, match="blocks exceeds"):
            request_from_dict(data)

    def test_submit_frame(self, fields):
        frame = submit_frame(
            "c1", ScheduleRequest(scenario=ScenarioSpec(**GRID), tl_c=120.0, stcl=60.0)
        )
        frame["request"]["scenario"].update(fields)
        with pytest.raises(ProtocolError, match="blocks exceeds"):
            parse_submit_frame(decode_frame(json.dumps(frame)))


def test_block_limit_admits_its_own_size():
    assert MAX_SCENARIO_BLOCKS == 1024
    ScenarioSpec(kind="grid", rows=32, cols=32)
    ScenarioSpec(kind="grid", rows=MAX_SCENARIO_BLOCKS, cols=1)
    ScenarioSpec(kind="slicing", n_blocks=MAX_SCENARIO_BLOCKS)
    # The generator fields of other kinds are not block counts.
    ScenarioSpec(kind="alpha15", rows=200, cols=200, n_blocks=10**6)


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

    def test_request_from_dict(self, value):
        data = request_to_dict(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
        data["stc_scale"] = value
        with pytest.raises(RequestError, match="stc_scale"):
            request_from_dict(data)

    def test_batch_archive(self, value, archived_job, tmp_path):
        record = _with_request(
            archived_job, lambda request: request.update(stc_scale=value)
        )
        _assert_batch_archive_rejects(tmp_path, record, "stc_scale")

    def test_warm_start_skips_it(self, value, archived_job, tmp_path):
        drifted = _with_request(
            archived_job, lambda request: request.update(stc_scale=value)
        )
        _assert_warm_start_skips(tmp_path, archived_job, drifted)

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


def test_non_finite_limits_in_a_batch_archive_rejected(
    non_finite_limits, archived_job, tmp_path
):
    def edit(request):
        request.update({"tl_c": None, "stcl": None, **non_finite_limits})

    record = _with_request(archived_job, edit)
    _assert_batch_archive_rejects(tmp_path, record, "must be a finite number")


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
