"""Fixture snippets for the async-blocking rule."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis import Project, get_rule
from repro.analysis.rules.async_blocking import SOLVER_ENTRYPOINTS
from repro.analysis.runner import run_rules

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

RULE = "async-blocking"


def findings_for(source: str):
    project = Project.from_sources(
        {"repro/fixture.py": textwrap.dedent(source)}
    )
    return run_rules(project, [get_rule(RULE)])


class TestPositive:
    def test_time_sleep_in_async_def(self):
        found = findings_for(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """
        )
        assert len(found) == 1
        f = found[0]
        assert f.rule == RULE
        assert f.path == "repro/fixture.py"
        assert f.line == 5
        assert "time.sleep" in f.message
        assert "asyncio.sleep" in f.hint

    def test_aliased_import_is_resolved(self):
        found = findings_for(
            """
            from time import sleep as snooze

            async def handler():
                snooze(1)
            """
        )
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_subprocess_and_os_system(self):
        found = findings_for(
            """
            import os
            import subprocess

            async def handler():
                subprocess.run(["ls"])
                os.system("ls")
            """
        )
        assert {f.line for f in found} == {6, 7}

    def test_blocking_builtins(self):
        found = findings_for(
            """
            async def handler(path):
                with open(path) as fh:
                    return fh
            """
        )
        assert len(found) == 1
        assert "open()" in found[0].message

    def test_path_io_methods(self):
        found = findings_for(
            """
            async def handler(path):
                return path.read_text()
            """
        )
        assert len(found) == 1
        assert ".read_text()" in found[0].message

    def test_direct_solver_invocation(self):
        found = findings_for(
            """
            async def handler(request):
                return process_solve(request)
            """
        )
        assert len(found) == 1
        assert "process_solve" in found[0].message
        assert "run_in_executor" in found[0].hint

    def test_group_entry_points(self):
        found = findings_for(
            """
            async def handler(bench, requests):
                outcomes = solve_requests(requests)
                return outcomes, bench.solve_batch(requests)
            """
        )
        assert [f.line for f in found] == [3, 4]
        assert "solve_requests" in found[0].message
        assert "solve_batch" in found[1].message


class TestEntryPointsExist:
    def test_every_listed_entry_point_is_a_def_in_the_package(self):
        """A renamed entry point must fail here, not blind the rule."""
        project = Project.load(PACKAGE_ROOT)
        defined = {
            node.name
            for sf in project.files
            for node in ast.walk(sf.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert SOLVER_ENTRYPOINTS <= defined, sorted(SOLVER_ENTRYPOINTS - defined)


class TestNegative:
    def test_sync_def_is_not_checked(self):
        assert not findings_for(
            """
            import time

            def handler():
                time.sleep(0.1)
            """
        )

    def test_asyncio_sleep_is_fine(self):
        assert not findings_for(
            """
            import asyncio

            async def handler():
                await asyncio.sleep(0.1)
            """
        )

    def test_nested_def_runs_on_executor_not_loop(self):
        # The repo's standard pattern: a closure handed to run_in_executor.
        assert not findings_for(
            """
            import time

            async def handler(loop):
                def work():
                    time.sleep(0.1)
                    return process_solve(None)
                return await loop.run_in_executor(None, work)
            """
        )

    def test_suppression_comment_wins(self):
        assert not findings_for(
            """
            import time

            async def handler():
                time.sleep(0.1)  # repro: ignore[async-blocking]
            """
        )
