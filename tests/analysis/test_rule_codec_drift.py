"""Fixture snippets for the codec-drift rule."""

from __future__ import annotations

import textwrap

from repro.analysis import Project, get_rule
from repro.analysis.runner import run_rules

RULE = "codec-drift"


def findings_for(**sources: str):
    project = Project.from_sources(
        {
            f"repro/{name}.py": textwrap.dedent(source)
            for name, source in sources.items()
        }
    )
    return run_rules(project, [get_rule(RULE)])


# A miniature ScheduleRequest with explicit (non-asdict) codecs, complete.
COMPLETE = """
from dataclasses import dataclass

@dataclass
class ScheduleRequest:
    soc: str
    tl_c: float

def request_to_dict(request):
    return {"schema_version": 1, "soc": request.soc, "tl_c": request.tl_c}

def request_from_dict(data):
    return ScheduleRequest(soc=data["soc"], tl_c=data["tl_c"])
"""


class TestToCodec:
    def test_complete_explicit_codec_is_clean(self):
        assert not findings_for(requests=COMPLETE)

    def test_missing_field_in_to_dict_is_flagged(self):
        found = findings_for(
            requests=COMPLETE.replace(' "tl_c": request.tl_c', ' "x": 0')
        )
        assert any(
            "request_to_dict() does not write field 'tl_c'" in f.message
            for f in found
        )
        f = next(f for f in found if "to_dict" in f.message)
        assert f.path == "repro/requests.py"
        assert f.rule == RULE

    def test_new_dataclass_field_must_ride_the_codec(self):
        # The historical failure mode: a field lands on the dataclass
        # but not in the codec.
        found = findings_for(
            requests=COMPLETE.replace(
                "    tl_c: float", "    tl_c: float\n    stcl: float = 0.0"
            )
        )
        messages = [f.message for f in found]
        assert any(
            "request_to_dict() does not write field 'stcl'" in m
            for m in messages
        )
        assert any(
            "request_from_dict() does not pass field 'stcl'" in m
            for m in messages
        )

    def test_asdict_codec_is_complete_by_construction(self):
        assert not findings_for(
            requests="""
            from dataclasses import asdict, dataclass

            @dataclass
            class ScheduleRequest:
                soc: str
                tl_c: float
                stcl: float

            def request_to_dict(request):
                data = asdict(request)
                data["schema_version"] = 1
                return data

            def request_from_dict(data):
                payload = {k: v for k, v in data.items() if k != "schema_version"}
                return ScheduleRequest(**payload)
            """
        )

    def test_missing_to_codec_function_is_flagged(self):
        found = findings_for(
            requests=COMPLETE.replace("def request_to_dict", "def renamed_to_dict")
        )
        assert any(
            "has no request_to_dict() codec" in f.message for f in found
        )


class TestFromCodec:
    def test_missing_from_codec_function_is_flagged(self):
        found = findings_for(
            requests=COMPLETE.replace(
                "def request_from_dict", "def renamed_from_dict"
            )
        )
        assert any(
            "has no request_from_dict() codec" in f.message for f in found
        )

    def test_from_codec_that_never_constructs_is_flagged(self):
        found = findings_for(
            requests=COMPLETE.replace(
                'return ScheduleRequest(soc=data["soc"], tl_c=data["tl_c"])',
                "return None",
            )
        )
        assert any(
            "request_from_dict() never constructs ScheduleRequest" in f.message
            for f in found
        )

    def test_splat_construction_is_complete_by_construction(self):
        assert not findings_for(
            requests=COMPLETE.replace(
                'return ScheduleRequest(soc=data["soc"], tl_c=data["tl_c"])',
                "return ScheduleRequest(**data)",
            )
        )


class TestWireLinks:
    def test_frame_builder_forking_off_the_codec_is_flagged(self):
        found = findings_for(
            proto="""
            def report_frame(frame_id, report):
                return {"type": "report", "id": frame_id, "report": vars(report)}
            """
        )
        assert len(found) == 1
        assert "report_frame() no longer embeds report_to_dict()" in found[0].message

    def test_frame_builder_embedding_the_codec_is_clean(self):
        assert not findings_for(
            proto="""
            def report_frame(frame_id, report):
                return {"type": "report", "id": frame_id,
                        "report": report_to_dict(report)}
            """
        )


class TestFixtureScoping:
    def test_absent_dataclasses_are_simply_skipped(self):
        # A fixture (or a refactor in flight) only carries some types;
        # the rule must not invent findings about the missing ones.
        assert not findings_for(other="x = 1\n")
