"""Randomised JSONL round-trip coverage for requests and reports.

Property: any valid :class:`ScheduleRequest` survives
``request_to_dict -> json -> request_from_dict`` unchanged, with a
stable content hash (the dedup key of the scheduling service) — over
inline scenarios, headroom vs absolute limits and arbitrary solver
params.  Solved (and failed) reports round-trip through the same JSONL
dialect the wire protocol and archives use.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ScheduleRequest,
    request_from_dict,
    request_to_dict,
    solve,
)
from repro.api.request import report_from_dict, report_to_dict
from repro.engine import ScenarioSpec
from repro.errors import RequestError
from repro.service import outcome_record, solve_requests

# -- strategies -----------------------------------------------------------------------

finite_floats = st.floats(
    min_value=0.1, max_value=1e3, allow_nan=False, allow_infinity=False
)

param_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    finite_floats,
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
)

params_dicts = st.dictionaries(
    st.text(min_size=1, max_size=12), param_values, max_size=4
)

scenarios = st.builds(
    ScenarioSpec,
    kind=st.sampled_from(["grid", "slicing"]),
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    n_blocks=st.integers(min_value=2, max_value=12),
    floorplan_seed=st.integers(min_value=0, max_value=99),
    power_seed=st.integers(min_value=0, max_value=99),
    power_scale=st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
    test_time_s=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)


@st.composite
def requests(draw) -> ScheduleRequest:
    if draw(st.booleans()):
        system = {"soc": draw(st.sampled_from(
            ["alpha15", "hypothetical7", "worked_example6"]
        ))}
    else:
        system = {"scenario": draw(scenarios)}
    if draw(st.booleans()):
        tl = {"tl_c": draw(st.floats(min_value=40.0, max_value=250.0,
                                     allow_nan=False))}
    else:
        tl = {"tl_headroom": draw(st.floats(min_value=1.01, max_value=3.0,
                                            allow_nan=False))}
    stcl_choice = draw(st.integers(min_value=0, max_value=2))
    stcl = (
        {}
        if stcl_choice == 0
        else {"stcl": draw(finite_floats)}
        if stcl_choice == 1
        else {"stcl_headroom": draw(finite_floats)}
    )
    return ScheduleRequest(
        **system,
        **tl,
        **stcl,
        solver=draw(st.sampled_from(
            ["thermal_aware", "sequential", "power_constrained", "random",
             "someone_elses_solver"]
        )),
        params=draw(params_dicts),
        include_vertical=draw(st.booleans()),
        stc_scale=draw(st.one_of(st.none(), finite_floats)),
    )


class TestRequestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(requests())
    def test_jsonl_round_trip_preserves_request_and_hash(self, request_):
        line = json.dumps(request_to_dict(request_))
        loaded = request_from_dict(json.loads(line))
        assert loaded == request_
        assert hash(loaded) == hash(request_)
        assert loaded.content_hash() == request_.content_hash()

    @settings(max_examples=30, deadline=None)
    @given(requests())
    def test_content_hash_is_stable_not_id_based(self, request_):
        clone = request_from_dict(request_to_dict(request_))
        assert clone is not request_
        assert clone.content_hash() == request_.content_hash()

    def test_content_hash_distinguishes_every_field(self):
        base = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0)
        variants = [
            ScheduleRequest(soc="hypothetical7", tl_c=165.0, stcl=60.0),
            ScheduleRequest(soc="alpha15", tl_c=166.0, stcl=60.0),
            ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=61.0),
            ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0,
                            solver="sequential"),
            ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0,
                            params={"weight_factor": 1.2}),
            ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0,
                            include_vertical=True),
            ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0,
                            stc_scale=2.0),
            dataclasses.replace(base, tl_c=None, tl_headroom=1.5),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_param_order_does_not_change_hash(self):
        a = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0,
                            params={"x": 1, "y": 2})
        b = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0,
                            params={"y": 2, "x": 1})
        assert a.content_hash() == b.content_hash()


@pytest.fixture(scope="module")
def solved_reports():
    """A small spread of real reports (limits styles x solvers)."""
    return [
        solve(ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)),
        solve(ScheduleRequest(soc="worked_example6", tl_c=80.0,
                              solver="sequential")),
        solve(
            ScheduleRequest(
                scenario=ScenarioSpec(kind="grid", rows=2, cols=2),
                tl_headroom=1.3,
                stcl_headroom=2.0,
            )
        ),
        solve(
            ScheduleRequest(
                soc="worked_example6",
                tl_c=80.0,
                solver="power_constrained",
                params={"power_limit_w": 25.0},
            )
        ),
    ]


class TestReportRoundTrip:
    def test_jsonl_round_trip_preserves_report(self, solved_reports):
        for report in solved_reports:
            line = json.dumps(report_to_dict(report))
            loaded = report_from_dict(json.loads(line))
            assert loaded.solver == report.solver
            assert loaded.request == report.request
            assert loaded.request_hash == report.request_hash
            assert loaded.tl_c == pytest.approx(report.tl_c)
            assert (
                math.isnan(loaded.stcl)
                if math.isnan(report.stcl)
                else loaded.stcl == pytest.approx(report.stcl)
            )
            assert loaded.length_s == pytest.approx(report.length_s)
            assert loaded.n_sessions == report.n_sessions
            assert loaded.max_temperature_c == pytest.approx(
                report.max_temperature_c
            )
            assert loaded.steady_solves == report.steady_solves
            assert dict(loaded.extras) == dict(report.extras)

    def test_provenance_mismatch_rejected(self, solved_reports):
        data = report_to_dict(solved_reports[0])
        data["request_hash"] = "0" * 64
        with pytest.raises(RequestError, match="provenance"):
            report_from_dict(data)

    def test_unknown_schema_version_rejected(self, solved_reports):
        data = report_to_dict(solved_reports[0])
        data["schema_version"] = 99
        with pytest.raises(RequestError, match="schema version"):
            report_from_dict(data)

    def test_requestless_reports_cannot_serialise(self, solved_reports):
        report = dataclasses.replace(solved_reports[0], request=None)
        with pytest.raises(RequestError, match="without a request"):
            report_to_dict(report)


class TestErrorRecordRoundTrip:
    def test_error_outcome_record_survives_jsonl(self):
        request = ScheduleRequest(soc="worked_example6", tl_c=30.0, stcl=60.0)
        record = outcome_record(request, solve_requests([request])[0])
        loaded = json.loads(json.dumps(record))
        assert loaded["status"] == "error"
        assert loaded["error_type"] == "CoreThermalViolationError"
        assert loaded["report"] is None
        # The embedded request still loads and re-hashes identically.
        embedded = request_from_dict(loaded["request"])
        assert embedded == request
        assert loaded["request_hash"] == embedded.content_hash()
