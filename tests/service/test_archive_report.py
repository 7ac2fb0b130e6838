"""Service archive writer + `repro report` aggregation tests."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.api import ScheduleRequest
from repro.engine import JobSpec, ScenarioSpec, BatchRunner
from repro.errors import SchedulingError
from repro.service import (
    ReportArchive,
    ScheduleService,
    load_service_archive,
    outcome_record,
    record_stats,
    render_summary_table,
    solve_requests,
    summarize_archives,
    summarize_records,
)

REQUEST = ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
SEQUENTIAL = ScheduleRequest(soc="worked_example6", tl_c=80.0, solver="sequential")
INFEASIBLE = ScheduleRequest(soc="worked_example6", tl_c=30.0, stcl=60.0)


def solve_one(request):
    """One request through the service's worker path (a group of one)."""
    (outcome,) = solve_requests([request])
    return outcome


class TestReportArchive:
    def test_creates_missing_parent_directories(self, tmp_path):
        # A fresh results dir must not kill the first append.
        path = tmp_path / "results" / "nested" / "served.jsonl"
        archive = ReportArchive(path)
        archive.append_outcome(REQUEST, solve_one(REQUEST))
        assert path.exists()
        assert archive.count == 1

    def test_appends_are_cumulative_across_writers(self, tmp_path):
        path = tmp_path / "served.jsonl"
        ReportArchive(path).append_outcome(REQUEST, solve_one(REQUEST))
        second = ReportArchive(path)  # a restarted service reopens it
        second.append_outcome(
            SEQUENTIAL, solve_one(SEQUENTIAL)
        )
        records = load_service_archive(path)
        assert len(records) == 2
        assert second.count == 1  # own appends only

    def test_record_shape(self):
        outcome = solve_one(REQUEST)
        record = outcome_record(REQUEST, outcome)
        assert record["kind"] == "service"
        assert record["status"] == "ok"
        assert record["solver"] == "thermal_aware"
        assert record["request_hash"] == REQUEST.content_hash()
        assert record["report"]["tl_c"] == pytest.approx(80.0)

    def test_error_record_shape(self):
        outcome = solve_one(INFEASIBLE)
        record = outcome_record(INFEASIBLE, outcome)
        assert record["status"] == "error"
        assert record["report"] is None
        assert "CoreThermalViolationError" in record["error"]

    def test_service_archives_every_resolved_outcome(self, tmp_path):
        path = tmp_path / "fresh-dir" / "served.jsonl"

        async def main():
            async with ScheduleService(
                backend="thread", max_workers=2, archive=path
            ) as svc:
                await svc.solve(REQUEST)
                job = await svc.submit(INFEASIBLE)
                await job.outcome()

        asyncio.run(main())
        records = load_service_archive(path)
        assert {r["status"] for r in records} == {"ok", "error"}
        # One record per solve, not per waiter.
        assert len(records) == 2


class TestAggregation:
    def make_service_records(self):
        return [
            outcome_record(REQUEST, solve_one(REQUEST)),
            outcome_record(SEQUENTIAL, solve_one(SEQUENTIAL)),
            outcome_record(INFEASIBLE, solve_one(INFEASIBLE)),
        ]

    def test_summaries_per_solver(self):
        summaries = summarize_records(self.make_service_records())
        by_name = {s.solver: s for s in summaries}
        assert set(by_name) == {"thermal_aware", "sequential"}
        thermal = by_name["thermal_aware"]
        assert thermal.jobs == 2
        assert thermal.errors == 1
        assert thermal.error_rate == pytest.approx(0.5)
        # The successful thermal-aware solve stayed under TL.
        assert thermal.hot_spot_rate == pytest.approx(0.0)
        assert thermal.mean_headroom_c > 0.0
        assert thermal.mean_length_s > 0.0
        sequential = by_name["sequential"]
        assert sequential.jobs == 1
        assert sequential.errors == 0

    def test_batch_and_service_dialects_aggregate_together(self, tmp_path):
        service_path = tmp_path / "served.jsonl"
        archive = ReportArchive(service_path)
        for record in self.make_service_records():
            archive.append_record(record)

        batch_path = tmp_path / "batch.jsonl"
        jobs = [
            JobSpec(
                job_id=f"j{i}",
                scenario=ScenarioSpec(kind="grid", rows=2, cols=2),
                tl_headroom=1.3,
                stcl_headroom=2.0,
            )
            for i in range(2)
        ]
        # Same scenario twice -> distinct ids, identical stats.
        BatchRunner().run(jobs, jsonl_path=batch_path)

        summaries = summarize_archives([service_path, batch_path])
        by_name = {s.solver: s for s in summaries}
        assert by_name["thermal_aware"].jobs == 4  # 2 service + 2 batch
        assert by_name["sequential"].jobs == 1

    def test_unknown_record_shape_rejected(self):
        with pytest.raises(SchedulingError, match="unrecognised archive record"):
            record_stats({"hello": "world"})

    def test_empty_archives_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SchedulingError, match="no records"):
            summarize_archives([empty])

    def test_error_only_solver_renders_dashes(self):
        records = [outcome_record(INFEASIBLE, solve_one(INFEASIBLE))]
        summaries = summarize_records(records)
        assert len(summaries) == 1
        assert math.isnan(summaries[0].mean_length_s)
        table = render_summary_table(summaries)
        assert "-" in table.splitlines()[2]

    def test_table_lists_every_solver(self):
        table = render_summary_table(summarize_records(self.make_service_records()))
        assert "thermal_aware" in table
        assert "sequential" in table
        assert table.splitlines()[0].startswith("solver")


class TestTornTailArchives:
    """Reporting a live archive races its appender: the final record
    may be half-written.  `repro report` skips it with a warning; the
    library default stays strict."""

    def make_torn_archive(self, tmp_path):
        path = tmp_path / "served.jsonl"
        archive = ReportArchive(path)
        archive.append_outcome(REQUEST, solve_one(REQUEST))
        archive.append_outcome(
            SEQUENTIAL, solve_one(SEQUENTIAL)
        )
        # Simulate an append caught mid-write: a truncated final line.
        with path.open("a") as handle:
            handle.write('{"kind": "service", "status": "ok", "repo')
        return path

    def test_summarize_raises_by_default(self, tmp_path):
        path = self.make_torn_archive(tmp_path)
        with pytest.raises(SchedulingError, match="corrupt JSONL record"):
            summarize_archives([path])

    def test_summarize_tolerates_torn_tail_with_warning(self, tmp_path):
        path = self.make_torn_archive(tmp_path)
        with pytest.warns(UserWarning, match="torn final JSONL record"):
            summaries = summarize_archives([path], tolerate_torn_tail=True)
        by_name = {s.solver: s for s in summaries}
        assert by_name["thermal_aware"].jobs == 1
        assert by_name["sequential"].jobs == 1

    def test_report_cli_skips_torn_tail(self, tmp_path, capsys):
        from repro.cli import report_main

        path = self.make_torn_archive(tmp_path)
        with pytest.warns(UserWarning, match="torn final JSONL record"):
            code = report_main([str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "thermal_aware" in out
        assert "sequential" in out
