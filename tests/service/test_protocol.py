"""Wire-frame codec tests for the JSONL protocol."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.api.request as request_module
from repro.api import ScheduleRequest, Workbench
from repro.engine import ScenarioSpec
from repro.errors import ProtocolError
from repro.service import (
    decode_frame,
    encode_frame,
    error_frame,
    parse_submit_frame,
    ping_frame,
    report_frame,
    stats_frame,
    submit_frame,
)

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
SCENARIO_REQUEST = ScheduleRequest(
    scenario=ScenarioSpec(kind="grid", rows=2, cols=2),
    tl_headroom=1.3,
    stcl_headroom=2.0,
    solver="thermal_aware",
    params={"weight_factor": 1.2},
)


class TestFrameCodec:
    def test_encode_is_one_newline_terminated_line(self):
        wire = encode_frame(ping_frame("p1"))
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1

    def test_round_trip(self):
        frame = submit_frame("c1", REQUEST, timeout_s=5.0)
        assert decode_frame(encode_frame(frame)) == frame

    def test_decode_accepts_str_and_bytes(self):
        frame = stats_frame("s1")
        assert decode_frame(encode_frame(frame)) == frame
        assert decode_frame(json.dumps(frame)) == frame

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"{not json}\n")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1, 2]\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_frame(b'{"type": "teleport"}\n')

    def test_missing_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_frame(b'{"id": "x"}\n')

    def test_non_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(b'\xff\xfe{"type": "ping"}\n')


class TestSubmitFrames:
    @pytest.mark.parametrize("request_", [REQUEST, SCENARIO_REQUEST])
    def test_request_round_trips_through_submit_frame(self, request_):
        frame = decode_frame(encode_frame(submit_frame("c7", request_)))
        parsed, timeout_s, stream = parse_submit_frame(frame)
        assert parsed == request_
        assert parsed.content_hash() == request_.content_hash()
        assert timeout_s is None
        assert stream is False

    def test_timeout_parsed(self):
        parsed, timeout_s, _ = parse_submit_frame(submit_frame("c1", REQUEST, 2.5))
        assert parsed == REQUEST
        assert timeout_s == 2.5

    def test_stream_flag_round_trips(self):
        frame = decode_frame(
            encode_frame(submit_frame("c1", REQUEST, stream=True))
        )
        _, _, stream = parse_submit_frame(frame)
        assert stream is True

    def test_plain_submit_carries_no_stream_key(self):
        assert "stream" not in submit_frame("c1", REQUEST)

    @pytest.mark.parametrize("bad", [1, "yes", None])
    def test_bad_stream_rejected(self, bad):
        frame = submit_frame("c1", REQUEST)
        frame["stream"] = bad
        with pytest.raises(ProtocolError, match="stream"):
            parse_submit_frame(frame)

    def test_missing_request_rejected(self):
        with pytest.raises(ProtocolError, match="no request"):
            parse_submit_frame({"type": "submit", "id": "c1"})

    def test_invalid_request_rejected(self):
        frame = submit_frame("c1", REQUEST)
        frame["request"]["soc"] = "not-a-platform"
        with pytest.raises(ProtocolError, match="bad request"):
            parse_submit_frame(frame)

    def test_malformed_request_payload_rejected(self):
        frame = submit_frame("c1", REQUEST)
        frame["request"]["no_such_field"] = 1
        with pytest.raises(ProtocolError, match="malformed request"):
            parse_submit_frame(frame)

    def test_nan_limit_rejected(self):
        frame = submit_frame("c1", REQUEST)
        frame["request"]["tl_c"] = float("nan")
        line = json.dumps(frame)
        assert '"tl_c": NaN' in line
        with pytest.raises(ProtocolError, match="tl_c must be a finite number"):
            parse_submit_frame(decode_frame(line))

    @pytest.mark.parametrize("bad", [0.0, -1.0, "soon"])
    def test_bad_timeout_rejected(self, bad):
        frame = submit_frame("c1", REQUEST)
        frame["timeout_s"] = bad
        with pytest.raises(ProtocolError, match="timeout_s"):
            parse_submit_frame(frame)


class TestErrorFrames:
    def test_error_frame_carries_type_and_hash(self):
        frame = error_frame(
            "c9", "boom", "SchedulingError", request_hash="abc123"
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded["error_type"] == "SchedulingError"
        assert decoded["request_hash"] == "abc123"
        assert decoded["id"] == "c9"


class TestReportFrameHashing:
    def test_framing_a_fresh_report_hashes_its_request_once(self, monkeypatch):
        solved = Workbench().solve(REQUEST)
        report = dataclasses.replace(solved, request=dataclasses.replace(REQUEST))
        calls = []
        original = request_module.request_to_dict

        def counting(request):
            calls.append(request)
            return original(request)

        monkeypatch.setattr(request_module, "request_to_dict", counting)
        frame = report_frame("r1", report)
        # One call embeds the request in the report, one hashes it.
        assert len(calls) == 2
        calls.clear()
        assert report_frame("r2", report)["report"] == frame["report"]
        assert len(calls) == 1
        assert frame["request_hash"] == frame["report"]["request_hash"]
        assert frame["request_hash"] == REQUEST.content_hash()
