"""Schema back-compat of the ``timings`` field.

Pre-tracing archives (and wire peers) have no ``timings`` key at all;
records written in between may carry an explicit ``null``.  Both must
keep loading forever — an observability field must never invalidate an
archive.
"""

from __future__ import annotations

import asyncio
import json

from repro.api import ScheduleRequest, solve
from repro.api.request import report_from_dict, report_to_dict
from repro.engine import BatchRunner, ScenarioSpec, load_batch_jsonl
from repro.service import (
    AnswerCache,
    ReportArchive,
    ScheduleService,
    warm_cache_from_archive,
)

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)


class TestReportTimingsRoundTrip:
    def test_traced_report_round_trips_through_json(self):
        report = solve(REQUEST)
        assert report.timings is not None
        assert "solver" in report.timings
        data = json.loads(json.dumps(report_to_dict(report)))
        loaded = report_from_dict(data)
        assert loaded.timings == report.timings

    def test_pre_tracing_dict_without_key_loads_as_none(self):
        report = solve(REQUEST)
        data = report_to_dict(report)
        del data["timings"]  # what a pre-tracing writer produced
        loaded = report_from_dict(data)
        assert loaded.timings is None
        assert loaded.result is not None

    def test_explicit_null_timings_load_as_none(self):
        data = report_to_dict(solve(REQUEST))
        data["timings"] = None
        assert report_from_dict(data).timings is None

    def test_describe_mentions_phases_only_when_present(self):
        report = solve(REQUEST)
        assert "phases:" in report.describe()
        data = report_to_dict(report)
        del data["timings"]
        assert "phases:" not in report_from_dict(data).describe()


GRID = ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=11)
JOBS = {"j0": ScheduleRequest(scenario=GRID, tl_c=160.0, stcl=60.0)}


class TestBatchTimingsRoundTrip:
    def test_batch_job_carries_worker_phase_and_round_trips(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        _, outcome = BatchRunner().run(JOBS, jsonl_path=path)["j0"]
        assert outcome.status == "ok"
        timings = outcome.report.timings
        assert timings is not None
        assert timings["worker"] == outcome.elapsed_s
        assert timings["total"] <= timings["worker"]
        _, loaded = load_batch_jsonl(path)["j0"]
        assert loaded.report.timings == timings

    def test_pre_tracing_job_record_loads_as_none(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        BatchRunner().run(JOBS, jsonl_path=path)
        record = json.loads(path.read_text())
        del record["report"]["timings"]
        path.write_text(json.dumps(record) + "\n")
        _, loaded = load_batch_jsonl(path)["j0"]
        assert loaded.report.timings is None


class TestWarmStartFromPreTracingArchive:
    def test_old_archive_without_timings_still_warms(self, tmp_path):
        archive_path = tmp_path / "served.jsonl"

        async def serve_once():
            async with ScheduleService(
                backend="thread", archive=ReportArchive(archive_path)
            ) as svc:
                await svc.solve(REQUEST)

        asyncio.run(serve_once())

        # Rewrite the archive as a pre-tracing service would have
        # written it: no timings key anywhere in the record.
        records = [
            json.loads(line)
            for line in archive_path.read_text().splitlines()
        ]
        for record in records:
            record.pop("timings", None)
            if record.get("report"):
                record["report"].pop("timings", None)
        archive_path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )

        cache = AnswerCache(max_entries=8)
        assert warm_cache_from_archive(cache, archive_path) == 1
        stored = cache.get(REQUEST.content_hash())
        assert stored is not None
        assert stored.report.timings is None
