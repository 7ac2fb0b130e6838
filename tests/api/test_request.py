"""ScheduleRequest validation and serialisation."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import ScheduleRequest, request_from_dict, request_to_dict
from repro.engine import ScenarioSpec
from repro.errors import RequestError

GRID = ScenarioSpec(kind="grid", rows=2, cols=2)


class TestValidation:
    def test_exactly_one_system_source(self):
        with pytest.raises(RequestError, match="exactly one"):
            ScheduleRequest(tl_c=100.0)
        with pytest.raises(RequestError, match="exactly one"):
            ScheduleRequest(soc="alpha15", scenario=GRID, tl_c=100.0)

    def test_unknown_builtin_rejected(self):
        with pytest.raises(RequestError, match="unknown built-in"):
            ScheduleRequest(soc="omega99", tl_c=100.0)

    def test_hyphenated_builtin_canonicalised(self):
        request = ScheduleRequest(soc="worked-example6", tl_c=100.0)
        assert request.soc == "worked_example6"

    def test_exactly_one_tl_source(self):
        with pytest.raises(RequestError, match="tl_c / tl_headroom"):
            ScheduleRequest(soc="alpha15")
        with pytest.raises(RequestError, match="tl_c / tl_headroom"):
            ScheduleRequest(soc="alpha15", tl_c=100.0, tl_headroom=1.2)

    def test_tl_headroom_must_exceed_one(self):
        with pytest.raises(RequestError, match="> 1"):
            ScheduleRequest(soc="alpha15", tl_headroom=0.9)

    def test_stcl_pair_is_exclusive(self):
        with pytest.raises(RequestError, match="at most one"):
            ScheduleRequest(
                soc="alpha15", tl_c=100.0, stcl=60.0, stcl_headroom=2.0
            )

    def test_stcl_must_be_positive(self):
        with pytest.raises(RequestError, match="positive"):
            ScheduleRequest(soc="alpha15", tl_c=100.0, stcl=-1.0)

    def test_non_finite_limits_rejected(self, non_finite_limits):
        with pytest.raises(RequestError, match="must be a finite number"):
            ScheduleRequest(soc="alpha15", **non_finite_limits)

    def test_non_numeric_limit_rejected(self):
        with pytest.raises(RequestError, match="tl_c must be a finite number"):
            ScheduleRequest(soc="alpha15", tl_c="hot", stcl=60.0)

    def test_solver_name_required(self):
        with pytest.raises(RequestError, match="solver"):
            ScheduleRequest(soc="alpha15", tl_c=100.0, solver="")

    def test_params_default_to_fresh_dict(self):
        a = ScheduleRequest(soc="alpha15", tl_c=100.0)
        b = ScheduleRequest(soc="alpha15", tl_c=100.0)
        assert a.params == {}
        assert a.params is not b.params

    def test_has_stcl(self):
        assert ScheduleRequest(soc="alpha15", tl_c=100.0, stcl=60.0).has_stcl
        assert ScheduleRequest(
            soc="alpha15", tl_c=100.0, stcl_headroom=2.0
        ).has_stcl
        assert not ScheduleRequest(soc="alpha15", tl_c=100.0).has_stcl


class TestRoundTrip:
    def test_dict_round_trip_builtin(self):
        request = ScheduleRequest(
            soc="alpha15", tl_c=165.0, stcl=60.0, params={"weight_factor": 1.2}
        )
        assert request_from_dict(request_to_dict(request)) == request

    def test_jsonl_round_trip_scenario(self):
        request = ScheduleRequest(
            scenario=GRID,
            tl_headroom=1.2,
            stcl_headroom=2.0,
            solver="power_constrained",
            params={"power_limit_w": 45.0},
        )
        line = json.dumps(request_to_dict(request))
        assert request_from_dict(json.loads(line)) == request

    def test_unknown_schema_version_rejected(self):
        data = request_to_dict(ScheduleRequest(soc="alpha15", tl_c=100.0))
        data["schema_version"] = 99
        with pytest.raises(RequestError, match="schema version"):
            request_from_dict(data)

    def test_picklable(self):
        request = ScheduleRequest(scenario=GRID, tl_headroom=1.2, stcl_headroom=2.0)
        assert pickle.loads(pickle.dumps(request)) == request


class TestDescribe:
    def test_mentions_solver_system_and_limits(self):
        text = ScheduleRequest(
            soc="alpha15", tl_c=165.0, stcl=60.0, solver="thermal_aware"
        ).describe()
        assert "thermal_aware" in text
        assert "alpha15" in text
        assert "165" in text


class TestHashability:
    def test_requests_are_hashable_despite_params_dict(self):
        a = ScheduleRequest(scenario=GRID, tl_c=100.0, params={"x": 1})
        b = ScheduleRequest(scenario=GRID, tl_c=100.0, params={"x": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_nested_param_values_hash(self):
        request = ScheduleRequest(
            scenario=GRID, tl_c=100.0, params={"pool": [1, 2], "cfg": {"k": 3}}
        )
        assert isinstance(hash(request), int)

    def test_params_cannot_be_mutated_in_place(self):
        request = ScheduleRequest(scenario=GRID, tl_c=100.0, params={"x": 1})
        with pytest.raises(TypeError, match="immutable"):
            request.params["x"] = 2
        with pytest.raises(TypeError, match="immutable"):
            request.params.clear()
        assert hash(request) == hash(
            ScheduleRequest(scenario=GRID, tl_c=100.0, params={"x": 1})
        )
