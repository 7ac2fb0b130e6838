"""Archive writer + `repro report` aggregation tests."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.api import ScheduleRequest
from repro.cli import report_main
from repro.engine import (
    BatchRunner,
    FleetConfig,
    ScenarioSpec,
    ThermalModelCache,
    generate_fleet,
)
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
        request = ScheduleRequest(
            scenario=ScenarioSpec(kind="grid", rows=2, cols=2),
            tl_headroom=1.3,
            stcl_headroom=2.0,
        )
        jobs = {"j0": request, "j1": request}
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


#: A legacy batch job record, written by the ``job_result_to_dict``
#: codec the batch engine used before it adopted the outcome record.
LEGACY_ARCHIVE = Path(__file__).parent / "data" / "legacy_job_result.jsonl"


def legacy_record() -> dict:
    return json.loads(LEGACY_ARCHIVE.read_text())


def ok_record_without_result() -> dict:
    record = outcome_record(REQUEST, solve_one(REQUEST))
    del record["report"]["result"]
    return record


def legacy_record_with_non_numeric_limit() -> dict:
    record = legacy_record()
    record["tl_c"] = "hot"
    return record


@pytest.mark.parametrize(
    "make_record, message",
    [
        (lambda: [1, 2], "AttributeError"),
        (ok_record_without_result, "KeyError: 'result'"),
        (legacy_record_with_non_numeric_limit, "ValueError"),
        (lambda: {"hello": "world"}, "unrecognised archive record"),
    ],
    ids=["non-object", "ok-without-result", "legacy-hot-tl", "unknown-shape"],
)
def test_report_names_a_malformed_record(tmp_path, capsys, make_record, message):
    """`repro report` names the bad record and exits 1, no traceback."""
    path = tmp_path / "bad.jsonl"
    good = outcome_record(REQUEST, solve_one(REQUEST))
    path.write_text(json.dumps(good) + "\n" + json.dumps(make_record()) + "\n")
    assert report_main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {path}:2: ")
    assert message in err


def summary_rows(path) -> list:
    """Per-solver summary rows of one archive, solve time aside."""
    return [
        dataclasses.replace(row, mean_elapsed_s=0.0)
        for row in summarize_archives([path])
    ]


class TestOneArchiveFormat:
    """Batch and service archives are one format, all on cold caches."""

    @pytest.fixture
    def fleet(self):
        config = FleetConfig(include_builtins=False)
        return {
            f"{solver}/{job_id}": request
            for solver in ("thermal_aware", "sequential")
            for job_id, request in generate_fleet(
                3, seed=3, config=config, solver=solver
            ).items()
        }

    def test_service_warmed_from_a_batch_archive_answers_from_cache(
        self, tmp_path, fleet
    ):
        path = tmp_path / "fleet.jsonl"
        BatchRunner(cache=ThermalModelCache()).run(fleet, jsonl_path=path)

        async def main():
            async with ScheduleService(
                backend="thread", max_workers=1, warm_from=path
            ) as svc:
                reports = [await svc.solve(request) for request in fleet.values()]
                return reports, svc.metrics()

        reports, metrics = asyncio.run(main())
        assert all(report.cached for report in reports)
        assert metrics.answer_cache.warmed == len(fleet)
        assert metrics.answer_hits == len(fleet)
        assert metrics.solves_started == 0

    def test_batch_and_service_archives_summarise_alike(self, tmp_path, fleet):
        batch_path = tmp_path / "fleet.jsonl"
        BatchRunner(cache=ThermalModelCache()).run(fleet, jsonl_path=batch_path)
        service_path = tmp_path / "served.jsonl"

        async def main():
            async with ScheduleService(
                backend="thread", max_workers=1, archive=service_path
            ) as svc:
                for request in fleet.values():
                    await svc.solve(request)

        asyncio.run(main())
        rows = summary_rows(batch_path)
        assert [row.solver for row in rows] == ["sequential", "thermal_aware"]
        assert rows == summary_rows(service_path)

    def test_legacy_job_record_still_summarises(self, tmp_path, capsys):
        assert report_main([str(LEGACY_ARCHIVE)]) == 0
        out = capsys.readouterr().out
        assert "thermal_aware" in out
        assert "1 records over 1 solvers, 0 errors" in out
        # The legacy record answers the same question a batch job asks
        # today; both summarise to the same row.
        spec = legacy_record()["spec"]
        request = ScheduleRequest(
            scenario=ScenarioSpec(**spec["scenario"]),
            tl_headroom=spec["tl_headroom"],
            stcl_headroom=spec["stcl_headroom"],
        )
        path = tmp_path / "fleet.jsonl"
        BatchRunner().run({spec["job_id"]: request}, jsonl_path=path)
        assert summary_rows(LEGACY_ARCHIVE) == summary_rows(path)

    def test_legacy_record_without_solver_reads_as_thermal_aware(self):
        record = legacy_record()
        del record["spec"]["solver"]  # written before the solver field
        assert record_stats(record).solver == "thermal_aware"
