"""Every dataclass field rides every serialization path, simultaneously.

The codec-drift lint proves this statically; these tests prove it
dynamically, by introspecting the dataclasses with
``dataclasses.fields`` — so a future field addition that misses a
codec fails here without anyone editing the test.  Three paths are
exercised on the same objects:

* the dict codecs (``*_to_dict`` / ``*_from_dict``),
* a JSONL hop (``json.dumps`` one line, ``json.loads`` it back),
* the wire frames (``submit_frame``/``parse_submit_frame`` and
  ``report_frame``), which must embed the dict codecs.

Plus the back-compat promise: records written before the ``timings``
and ``cached`` fields existed keep loading forever.
"""

from __future__ import annotations

import dataclasses
import json
import math

from repro.api import ScheduleRequest, solve
from repro.api.request import (
    SolveReport,
    report_from_dict,
    report_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.core.serialize import result_to_dict
from repro.engine.scenarios import ScenarioSpec
from repro.service.archive import outcome_from_record, outcome_record
from repro.service.execution import SolveOutcome, solve_requests
from repro.service.protocol import (
    parse_submit_frame,
    report_frame,
    submit_frame,
)

REQUEST = ScheduleRequest(
    soc="worked_example6",
    tl_c=80.0,
    stcl=60.0,
    params={"weight_factor": 1.5},
)

GRID = ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=11)
GRID_REQUEST = ScheduleRequest(scenario=GRID, tl_c=160.0, stcl=60.0)


def jsonl_hop(payload: dict) -> dict:
    """One archive line there and back (strict JSON enforced)."""
    line = json.dumps(payload, separators=(",", ":"))
    assert "\n" not in line
    assert "NaN" not in line and "Infinity" not in line
    return json.loads(line)


def field_values(obj):
    return {
        f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
    }


def assert_reports_equal(a: SolveReport, b: SolveReport) -> None:
    """Field-by-field equality, future fields included automatically."""
    for name, value in field_values(a).items():
        other = getattr(b, name)
        if name == "result":
            assert result_to_dict(other) == result_to_dict(value), name
        elif name == "stcl":
            assert (
                math.isnan(other)
                if math.isnan(value)
                else other == value
            ), name
        else:
            assert other == value, name


class TestRequestAllFields:
    def test_every_field_appears_in_the_dict_form(self):
        data = request_to_dict(REQUEST)
        for f in dataclasses.fields(ScheduleRequest):
            assert f.name in data, f.name

    def test_dict_jsonl_and_wire_agree(self):
        via_dict = request_from_dict(jsonl_hop(request_to_dict(REQUEST)))
        frame = jsonl_hop(submit_frame("f1", REQUEST, timeout_s=2.5))
        via_wire, timeout_s, _ = parse_submit_frame(frame)
        assert via_dict == REQUEST  # frozen dataclass equality: all fields
        assert via_wire == REQUEST
        assert timeout_s == 2.5


class TestReportAllFields:
    def test_every_field_appears_in_the_dict_form(self):
        report = solve(REQUEST)
        data = report_to_dict(report)
        for f in dataclasses.fields(SolveReport):
            assert f.name in data, f.name

    def test_dict_jsonl_and_wire_agree(self):
        report = solve(REQUEST)
        assert report.timings is not None  # the traced path is exercised

        via_dict = report_from_dict(jsonl_hop(report_to_dict(report)))
        assert_reports_equal(via_dict, report)

        frame = jsonl_hop(report_frame("f2", report))
        assert frame["request_hash"] == report.request_hash
        via_wire = report_from_dict(frame["report"])
        assert_reports_equal(via_wire, report)

        # The wire payload IS the dict codec's payload: no forked format.
        assert frame["report"] == jsonl_hop(report_to_dict(report))


class TestOutcomeAllFields:
    def test_every_field_appears_in_the_record(self):
        (outcome,) = solve_requests([GRID_REQUEST])
        data = jsonl_hop(outcome_record(GRID_REQUEST, outcome))
        for f in dataclasses.fields(SolveOutcome):
            assert f.name in data, f.name

    def test_every_field_round_trips(self):
        infeasible = dataclasses.replace(GRID_REQUEST, tl_c=46.0)
        for request, outcome in zip(
            (GRID_REQUEST, infeasible),
            solve_requests([GRID_REQUEST, infeasible]),
        ):
            loaded = outcome_from_record(jsonl_hop(outcome_record(request, outcome)))
            for name, value in field_values(outcome).items():
                other = getattr(loaded, name)
                if name == "report" and value is not None:
                    assert_reports_equal(other, value)
                else:
                    assert other == value, name


class TestPreTimingsBackCompat:
    def test_record_predating_timings_and_cached_loads(self):
        report = solve(REQUEST)
        data = report_to_dict(report)
        # What a PR-5-era writer produced: neither field exists yet.
        del data["timings"]
        del data["cached"]
        loaded = report_from_dict(jsonl_hop(data))
        assert loaded.timings is None
        assert loaded.cached is False
        assert result_to_dict(loaded.result) == result_to_dict(report.result)

    def test_old_wire_frame_still_parses(self):
        frame = submit_frame("f3", REQUEST)
        frame["request"].pop("params")  # a pre-params submitter
        request, _, _ = parse_submit_frame(jsonl_hop(frame))
        assert request.params == {}
