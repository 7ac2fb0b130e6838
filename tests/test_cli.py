"""Integration tests for the repro-schedule CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import (
    batch_main,
    load_power_csv,
    main,
    metrics_main,
    parse_solver_params,
    report_main,
    repro_main,
    solve_main,
    submit_main,
    top_main,
)
from repro.errors import ReproError
from repro.floorplan.generator import grid_floorplan
from repro.floorplan.hotspot_format import write_flp


@pytest.fixture()
def custom_soc_files(tmp_path):
    """A 2x2 grid .flp plus a matching power CSV."""
    flp = tmp_path / "chip.flp"
    write_flp(grid_floorplan(2, 2), flp)
    powers = tmp_path / "powers.csv"
    powers.write_text(
        "core,test_w,functional_w\n"
        "C0_0,30.0,10.0\nC0_1,25.0,8.0\nC1_0,28.0,9.0\nC1_1,26.0,7.0\n"
    )
    return flp, powers


class TestBuiltinSoc:
    def test_alpha15_run(self, capsys):
        exit_code = main(["--soc", "alpha15", "--tl", "165", "--stcl", "60"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Thermal-aware schedule" in out
        assert "SAFE" in out
        assert "utilisation" in out

    def test_gantt_and_heatmap_flags(self, capsys):
        exit_code = main(
            ["--soc", "alpha15", "--tl", "175", "--stcl", "40",
             "--gantt", "--heatmap"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Gantt" in out
        assert "scale:" in out  # heatmap footer

    def test_save_json(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        exit_code = main(
            ["--soc", "alpha15", "--tl", "165", "--stcl", "60",
             "--save", str(target)]
        )
        assert exit_code == 0
        data = json.loads(target.read_text())
        assert data["tl_c"] == 165.0

    def test_missing_limits_is_an_error(self, capsys):
        exit_code = main(["--soc", "alpha15", "--tl", "165"])
        assert exit_code == 1
        assert "stcl" in capsys.readouterr().err.lower()


class TestCustomSoc:
    def test_flp_plus_csv_flow(self, custom_soc_files, capsys):
        flp, powers = custom_soc_files
        exit_code = main(
            ["--flp", str(flp), "--powers", str(powers),
             "--tl", "140", "--auto-stcl", "2.0"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "auto-derived STCL" in out
        assert "SAFE" in out

    def test_missing_powers_is_an_error(self, custom_soc_files, capsys):
        flp, _ = custom_soc_files
        exit_code = main(["--flp", str(flp), "--tl", "140", "--stcl", "10"])
        assert exit_code == 1
        assert "powers" in capsys.readouterr().err

    def test_infeasible_core_reports_cleanly(self, custom_soc_files, capsys):
        flp, powers = custom_soc_files
        # TL below what any core reaches alone -> CoreThermalViolation.
        exit_code = main(
            ["--flp", str(flp), "--powers", str(powers),
             "--tl", "50", "--auto-stcl", "2.0"]
        )
        assert exit_code == 1
        assert "tested" in capsys.readouterr().err


class TestReproDispatcher:
    def test_schedule_subcommand_delegates(self, capsys):
        exit_code = repro_main(
            ["schedule", "--soc", "alpha15", "--tl", "165", "--stcl", "60"]
        )
        assert exit_code == 0
        assert "Thermal-aware schedule" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert repro_main([]) == 2
        assert "usage: repro" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert repro_main(["--help"]) == 0
        assert "batch" in capsys.readouterr().out

    def test_unknown_command_rejected(self, capsys):
        assert repro_main(["bogus"]) == 2
        assert "unknown command" in capsys.readouterr().err


class TestBatchCommand:
    def test_small_fleet_runs(self, capsys):
        exit_code = repro_main(
            ["batch", "--count", "5", "--seed", "0", "--limit", "2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Batch of 5 jobs" in out
        assert "model cache" in out

    def test_jsonl_archive_written(self, tmp_path, capsys):
        target = tmp_path / "fleet.jsonl"
        exit_code = batch_main(
            ["--count", "4", "--no-builtins", "--out", str(target)]
        )
        assert exit_code == 0
        assert "archived" in capsys.readouterr().out
        assert len(target.read_text().splitlines()) == 4

    def test_bad_count_reported(self, capsys):
        assert batch_main(["--count", "0"]) == 1
        assert "count" in capsys.readouterr().err


class TestPowerCsv:
    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,watts\nx,1\n")
        with pytest.raises(ReproError, match="columns"):
            load_power_csv(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("core,test_w,functional_w\nx,ten,1\n")
        with pytest.raises(ReproError, match="bad number"):
            load_power_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("core,test_w,functional_w\n")
        with pytest.raises(ReproError, match="no cores"):
            load_power_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_power_csv(tmp_path / "nope.csv")


class TestSolveCommand:
    def test_builtin_thermal_aware(self, capsys):
        exit_code = solve_main(["--soc", "alpha15", "--tl", "165", "--stcl", "60"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "thermal_aware solve" in out
        assert "hot-spot rate 0%" in out

    def test_solver_switch_power_constrained(self, capsys):
        exit_code = solve_main(
            ["--soc", "alpha15", "--tl", "165",
             "--solver", "power_constrained", "--param", "power_limit_w=60"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "power_constrained solve" in out
        assert "power_limit_w=60.0" in out

    def test_scenario_flags(self, capsys):
        exit_code = solve_main(
            ["--kind", "grid", "--rows", "2", "--cols", "2",
             "--tl-headroom", "1.3", "--stcl-headroom", "2.0", "--gantt"]
        )
        assert exit_code == 0
        assert "Gantt" in capsys.readouterr().out

    def test_grid_past_the_block_limit_is_refused(self, capsys):
        exit_code = solve_main(
            ["--kind", "grid", "--rows", "200", "--cols", "200",
             "--tl-headroom", "1.3", "--stcl-headroom", "2.0"]
        )
        assert exit_code == 1
        assert "error: a grid scenario of 40000 blocks" in capsys.readouterr().err

    def test_save_json(self, tmp_path, capsys):
        target = tmp_path / "solve.json"
        exit_code = solve_main(
            ["--soc", "alpha15", "--tl", "165", "--solver", "sequential",
             "--save", str(target)]
        )
        assert exit_code == 0
        data = json.loads(target.read_text())
        assert data["tl_c"] == 165.0
        assert data["stcl"] is None  # baselines run without an STCL

    def test_requires_one_system_source(self, capsys):
        exit_code = solve_main(["--tl", "165"])
        assert exit_code == 1
        assert "--soc or --kind" in capsys.readouterr().err

    def test_bad_param_syntax_reported(self, capsys):
        exit_code = solve_main(
            ["--soc", "alpha15", "--tl", "165", "--param", "oops"]
        )
        assert exit_code == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_param_reported(self, capsys):
        exit_code = solve_main(
            ["--soc", "alpha15", "--tl", "165", "--stcl", "60",
             "--param", "bogus=1"]
        )
        assert exit_code == 1
        assert "does not accept" in capsys.readouterr().err

    def test_umbrella_delegates(self, capsys):
        exit_code = repro_main(
            ["solve", "--soc", "alpha15", "--tl", "165", "--stcl", "60"]
        )
        assert exit_code == 0
        assert "thermal_aware solve" in capsys.readouterr().out


class TestBatchSolverSwitch:
    @pytest.mark.parametrize("solver", ["power_constrained", "sequential"])
    def test_fleet_with_alternate_solver(self, solver, tmp_path, capsys):
        target = tmp_path / "fleet.jsonl"
        exit_code = batch_main(
            ["--count", "4", "--seed", "0", "--solver", solver,
             "--out", str(target)]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(records) == 4
        assert {r["request"]["solver"] for r in records} == {solver}
        assert all(r["status"] == "ok" for r in records)

    def test_solver_param_forwarded(self, tmp_path):
        target = tmp_path / "fleet.jsonl"
        exit_code = batch_main(
            ["--count", "3", "--no-builtins", "--solver", "power_constrained",
             "--param", "sort_descending=false", "--out", str(target)]
        )
        assert exit_code == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert all(
            r["request"]["params"] == {"sort_descending": False}
            for r in records
        )


class TestParseSolverParams:
    def test_type_coercion(self):
        params = parse_solver_params(
            ["cap=45.5", "count=3", "flag=true", "off=False", "name=ffd"]
        )
        assert params == {
            "cap": 45.5, "count": 3, "flag": True, "off": False, "name": "ffd"
        }

    def test_rejects_missing_equals(self):
        with pytest.raises(ReproError, match="KEY=VALUE"):
            parse_solver_params(["nope"])


class TestPythonDashM:
    @staticmethod
    def _run(*args: str):
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_module_entry_point_runs(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert "repro solve" in proc.stdout

    def test_module_entry_point_solves(self):
        proc = self._run(
            "solve", "--soc", "alpha15", "--tl", "165", "--solver", "sequential"
        )
        assert proc.returncode == 0
        assert "sequential solve" in proc.stdout


class TestBadParamValues:
    def test_bad_value_reported_not_traceback(self, capsys):
        exit_code = solve_main(
            ["--soc", "alpha15", "--tl", "165", "--stcl", "60",
             "--param", "weight_factor=abc"]
        )
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "rejected params" in err


@pytest.fixture()
def live_server():
    """A real ScheduleService + TCP server on a background event loop."""
    import asyncio
    import threading

    from repro.service import ScheduleServer, ScheduleService

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def boot():
        service = ScheduleService(backend="thread", max_workers=2)
        await service.start()
        server = ScheduleServer(service, host="127.0.0.1", port=0)
        await server.start()
        return service, server

    service, server = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)
    try:
        yield server.port
    finally:
        async def teardown():
            await server.stop()
            await service.stop(drain=True)

        asyncio.run_coroutine_threadsafe(teardown(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()


class TestSubmitCommand:
    def test_single_request_prints_full_report(self, live_server, capsys):
        exit_code = submit_main(
            ["--port", str(live_server), "--soc", "worked-example6",
             "--tl", "80", "--stcl", "60"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "thermal_aware solve" in out
        assert "1/1 requests answered ok" in out

    def test_repeat_burst_is_deduplicated_serverside(self, live_server, capsys):
        exit_code = submit_main(
            ["--port", str(live_server), "--soc", "worked-example6",
             "--tl", "81", "--stcl", "60", "--repeat", "4", "--stats"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert out.count("length") == 4
        assert "service stats:" in out
        assert "4/4 requests answered ok" in out

    def test_infeasible_request_reports_error_and_fails(
        self, live_server, capsys
    ):
        exit_code = submit_main(
            ["--port", str(live_server), "--soc", "worked-example6",
             "--tl", "30", "--stcl", "60"]
        )
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "CoreThermalViolation" in captured.err
        assert "0/1 requests answered ok" in captured.out

    def test_requests_file_submits_every_record(
        self, live_server, tmp_path, capsys
    ):
        from repro.api import ScheduleRequest, request_to_dict

        path = tmp_path / "requests.jsonl"
        records = [
            request_to_dict(
                ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
            ),
            request_to_dict(
                ScheduleRequest(
                    soc="worked_example6", tl_c=80.0, solver="sequential"
                )
            ),
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        exit_code = submit_main(
            ["--port", str(live_server), "--requests", str(path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2/2 requests answered ok" in out
        assert "sequential" in out
        # --repeat multiplies the file's records too.
        assert submit_main(
            ["--port", str(live_server), "--requests", str(path),
             "--repeat", "2"]
        ) == 0
        assert "4/4 requests answered ok" in capsys.readouterr().out

    def test_requests_file_conflicts_with_request_flags(
        self, tmp_path, capsys
    ):
        path = tmp_path / "requests.jsonl"
        path.write_text("{}\n")
        exit_code = submit_main(
            ["--requests", str(path), "--soc", "alpha15"]
        )
        assert exit_code == 1
        assert "--requests replaces" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line, error_type",
        [
            ("[1, 2]", "AttributeError"),
            (
                '{"schema_version": 2, "soc": "alpha15", "tl_c": 165.0, '
                '"stcl": 60.0, "bogus": 1}',
                "TypeError",
            ),
        ],
        ids=["not-an-object", "unknown-key"],
    )
    def test_malformed_request_record_names_its_line(
        self, bad_line, error_type, tmp_path, capsys
    ):
        from repro.api import ScheduleRequest, request_to_dict

        good = request_to_dict(
            ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
        )
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad_line + "\n")
        # Parsing precedes the connection: nothing listens on port 1.
        exit_code = submit_main(["--port", "1", "--requests", str(path)])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: malformed request record")
        assert error_type in err
        assert "Traceback" not in err

    def test_unreachable_service_is_a_clean_error(self, capsys):
        exit_code = submit_main(
            ["--port", "1", "--soc", "worked-example6",
             "--tl", "80", "--stcl", "60"]
        )
        assert exit_code == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_bad_repeat_rejected(self, capsys):
        exit_code = submit_main(
            ["--repeat", "0", "--soc", "worked-example6",
             "--tl", "80", "--stcl", "60"]
        )
        assert exit_code == 1
        assert "--repeat" in capsys.readouterr().err


class TestReportCommand:
    def test_batch_archive_summary(self, tmp_path, capsys):
        archive = tmp_path / "fleet.jsonl"
        assert batch_main(
            ["--count", "3", "--no-builtins", "--out", str(archive)]
        ) == 0
        capsys.readouterr()  # drop the batch output
        assert report_main([str(archive)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("solver")
        assert "thermal_aware" in out
        assert "3 records over 1 solvers" in out

    def test_missing_archive_is_a_clean_error(self, tmp_path, capsys):
        exit_code = report_main([str(tmp_path / "nope.jsonl")])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "cannot load" in captured.err
        assert "Traceback" not in captured.err

    def test_empty_archive_reports_no_records_cleanly(self, tmp_path, capsys):
        """A freshly created (or blank-lines-only) archive is a state,
        not an error: say "no records", exit 0, print no empty table."""
        empty = tmp_path / "served.jsonl"
        empty.write_text("")
        assert report_main([str(empty)]) == 0
        captured = capsys.readouterr()
        assert "no records" in captured.out
        assert str(empty) in captured.out
        assert "solver" not in captured.out  # no headers-only table
        assert captured.err == ""

        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n")
        assert report_main([str(empty), str(blank)]) == 0
        assert "no records" in capsys.readouterr().out

    def test_idle_service_archive_reports_no_records(self, tmp_path, capsys):
        """The exact boot-window state: `repro serve --archive` has
        constructed its archive but nothing has resolved yet."""
        from repro.service import ReportArchive

        archive = tmp_path / "served.jsonl"
        ReportArchive(archive)  # what service construction does
        assert archive.exists()
        assert report_main([str(archive)]) == 0
        assert "no records" in capsys.readouterr().out


class TestMetricsCommand:
    def test_scrape_prints_prometheus_text(self, live_server, capsys):
        submit_main(
            ["--port", str(live_server), "--soc", "worked-example6",
             "--tl", "80", "--stcl", "60", "--quiet"]
        )
        assert metrics_main(["--port", str(live_server)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_submitted_total counter" in out
        assert "repro_submitted_total 1" in out
        assert "# TYPE repro_solve_seconds summary" in out
        assert "repro_solve_seconds_count 1" in out
        assert 'repro_e2e_seconds{quantile="0.95"}' in out

    def test_no_server_is_a_clean_error(self, capsys):
        assert metrics_main(["--port", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTopCommand:
    def test_single_frame_renders_dashboard(self, live_server, capsys):
        submit_main(
            ["--port", str(live_server), "--soc", "worked-example6",
             "--tl", "80", "--stcl", "60", "--quiet"]
        )
        exit_code = top_main(
            ["--port", str(live_server), "--count", "1", "--no-clear"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "repro top — backend 'thread'" in out
        assert "queue   [" in out and "workers [" in out
        assert "1 submitted" in out
        assert "end-to-end" in out  # latency table populated
        assert "\x1b[2J" not in out  # --no-clear really appends

    def test_nonpositive_interval_is_a_clean_error(self, capsys):
        assert top_main(["--interval", "0"]) == 1
        assert "interval" in capsys.readouterr().err

    def test_no_server_is_a_clean_error(self, capsys):
        assert top_main(["--port", "1", "--count", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")


def boot_serve_subprocess(extra_args):
    """Spawn ``repro serve --port 0 ...``; return (proc, port) once the
    listening banner appears.  One launcher for every subprocess serve
    test, so the banner format and env plumbing live in one place."""
    import os
    import pathlib
    import re
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
    assert match, f"no listening banner in {line!r}"
    return proc, int(match.group(1))


def drain_serve_subprocess(proc):
    """SIGINT the serve subprocess, wait for a clean exit, and return
    the rest of its stdout (the drain banner + final metrics)."""
    import signal
    import subprocess

    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    rest = proc.stdout.read()
    proc.stdout.close()
    assert proc.returncode == 0
    return rest


class TestServeCommandSubprocess:
    def test_serve_drains_on_sigint(self, tmp_path):
        """`repro serve` end to end: boot, answer over TCP, drain."""
        archive = tmp_path / "out" / "served.jsonl"
        proc, port = boot_serve_subprocess(
            ["--workers", "2", "--archive", str(archive)]
        )
        try:
            exit_code = submit_main(
                ["--port", str(port), "--soc", "worked-example6",
                 "--tl", "80", "--stcl", "60", "--repeat", "3", "--quiet"]
            )
            assert exit_code == 0
        finally:
            rest = drain_serve_subprocess(proc)
        assert "draining..." in rest
        assert "schedule service on backend" in rest
        # The archive (in a fresh directory) holds one record per
        # solve: between 1 (all three submits overlapped in flight and
        # deduped) and 3 (none overlapped — dedup is in-flight only,
        # so timing decides), never one per waiter beyond that.
        assert archive.exists()
        records = archive.read_text().strip().splitlines()
        assert 1 <= len(records) <= 3
        assert all('"status":"ok"' in line for line in records)


class TestServeFlags:
    def test_warm_from_conflicts_with_no_answer_cache(self, tmp_path, capsys):
        from repro.cli import serve_main

        exit_code = serve_main(
            ["--port", "0", "--no-answer-cache",
             "--warm-from", str(tmp_path / "x.jsonl")]
        )
        assert exit_code == 1
        assert "warm_from" in capsys.readouterr().err

    def test_warm_from_missing_archive_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import serve_main

        exit_code = serve_main(
            ["--port", "0", "--warm-from", str(tmp_path / "missing.jsonl")]
        )
        assert exit_code == 1
        assert "cannot load" in capsys.readouterr().err

    def test_bad_min_workers_is_a_clean_error(self, capsys):
        from repro.cli import serve_main

        exit_code = serve_main(
            ["--port", "0", "--workers", "2", "--min-workers", "5"]
        )
        assert exit_code == 1
        assert "min_workers" in capsys.readouterr().err

    def test_negative_answer_ttl_is_a_clean_error(self, capsys):
        """Only exactly 0 means never-expires; a typoed sign must not
        silently pin stale answers forever."""
        from repro.cli import serve_main

        exit_code = serve_main(["--port", "0", "--answer-ttl", "-300"])
        assert exit_code == 1
        assert "ttl_s" in capsys.readouterr().err


class TestWarmStartSubprocess:
    def test_serve_warm_from_hits_cache_over_tcp(self, tmp_path):
        """Archive a solve, reboot warm, assert the first TCP answer is
        a cache hit (no solve) — the `--warm-from` aha moment."""
        archive = tmp_path / "served.jsonl"
        request_flags = ["--soc", "worked-example6", "--tl", "80", "--stcl", "60"]

        # First life: answer once, archive the outcome.
        proc, port = boot_serve_subprocess(
            ["--workers", "2", "--archive", str(archive)]
        )
        try:
            assert submit_main(
                ["--port", str(port), *request_flags, "--quiet"]
            ) == 0
        finally:
            drain_serve_subprocess(proc)
        assert archive.exists()

        # Second life: warm-started — the very same question must be
        # answered from the cache without a single solve.
        proc, port = boot_serve_subprocess(
            ["--workers", "2", "--warm-from", str(archive)]
        )
        try:
            import io
            from contextlib import redirect_stdout

            buffer = io.StringIO()
            with redirect_stdout(buffer):
                exit_code = submit_main(
                    ["--port", str(port), *request_flags, "--quiet", "--stats"]
                )
            assert exit_code == 0
            stats_line = buffer.getvalue()
            assert "answer_hits=1" in stats_line
            assert "solves_started=0" in stats_line
        finally:
            rest = drain_serve_subprocess(proc)
        assert "1 answer-cache hits" in rest


class TestServeObservabilityFlags:
    def test_log_json_and_slow_request_ms_write_event_trail(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        proc, port = boot_serve_subprocess(
            ["--workers", "2", "--log-json", str(log_path),
             "--slow-request-ms", "0.001"]
        )
        try:
            assert submit_main(
                ["--port", str(port), "--soc", "worked-example6",
                 "--tl", "80", "--stcl", "60", "--quiet"]
            ) == 0
        finally:
            drain_serve_subprocess(proc)
        events = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        names = [e["event"] for e in events]
        assert "request_admitted" in names
        assert "request_completed" in names
        assert "slow_request" in names  # sub-microsecond threshold
        completed = next(
            e for e in events if e["event"] == "request_completed"
        )
        assert "service_total" in completed["timings"]

    def test_negative_slow_threshold_is_a_clean_error(self, capsys):
        from repro.cli import serve_main

        exit_code = serve_main(["--port", "0", "--slow-request-ms", "-5"])
        assert exit_code == 1
        assert "slow_request_ms" in capsys.readouterr().err


class TestUmbrellaUsage:
    def test_usage_lists_service_commands(self, capsys):
        assert repro_main([]) == 2
        out = capsys.readouterr().out
        for command in ("serve", "submit", "metrics", "top", "report"):
            assert f"repro {command}" in out
