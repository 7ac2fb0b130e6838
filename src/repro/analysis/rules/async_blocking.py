"""Rule: no blocking calls inside ``async def`` bodies.

The scheduling service runs every solve on an executor precisely so
the event loop never blocks (PR 4's core invariant).  This rule makes
that invariant mechanical: inside any ``async def`` in the package it
flags

* known blocking library calls (``time.sleep``, ``subprocess.*``,
  ``os.system``, synchronous socket/HTTP helpers),
* synchronous file I/O (builtin ``open``, ``Path.read_text`` and
  friends), and
* *direct solver invocation* — calling the solve entry points
  (``solve_requests``, ``process_solve``, ``solve_batch``, ...) without
  going through ``run_in_executor``; a steady-state solve is
  milliseconds of pure numpy that would stall every connected client.

Code inside nested ``def``s is not flagged: a nested function handed
to ``run_in_executor`` (the repo's standard pattern) runs on a worker
thread, not the loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import Project, SourceFile
from ..registry import LintRule, register_rule
from ._ast_util import import_table, qualified_name, walk_shallow

#: Qualified call names that block, with the fix to suggest.
BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "await asyncio.sleep(...) instead",
    "subprocess.run": "use asyncio.create_subprocess_exec or an executor",
    "subprocess.call": "use asyncio.create_subprocess_exec or an executor",
    "subprocess.check_call": "use asyncio.create_subprocess_exec or an executor",
    "subprocess.check_output": "use asyncio.create_subprocess_exec or an executor",
    "subprocess.Popen": "use asyncio.create_subprocess_exec or an executor",
    "os.system": "use asyncio.create_subprocess_exec or an executor",
    "os.popen": "use asyncio.create_subprocess_exec or an executor",
    "socket.create_connection": "use asyncio.open_connection",
    "urllib.request.urlopen": "run the request on an executor",
    "requests.get": "run the request on an executor",
    "requests.post": "run the request on an executor",
}

#: Builtins that block on the filesystem or the terminal.
BLOCKING_BUILTINS: dict[str, str] = {
    "open": "run file I/O on an executor (loop.run_in_executor)",
    "input": "never prompt from the event loop",
}

#: Blocking method names regardless of receiver (Path / file-like I/O).
BLOCKING_METHODS: dict[str, str] = {
    "read_text": "run file I/O on an executor (loop.run_in_executor)",
    "write_text": "run file I/O on an executor (loop.run_in_executor)",
    "read_bytes": "run file I/O on an executor (loop.run_in_executor)",
    "write_bytes": "run file I/O on an executor (loop.run_in_executor)",
}

#: Solve entry points that must only run on an executor: each one ends
#: in a scipy/numpy steady-state solve (or a whole request lifecycle).
#: Every name is a ``def`` under ``repro`` (a test pins it, so a rename
#: cannot silently blind the rule).  ``Workbench.solve`` is covered by
#: its callers here: ``solve`` alone would also match the awaitable
#: ``ScheduleService.solve``.
SOLVER_ENTRYPOINTS: frozenset[str] = frozenset(
    {
        # The service worker path (a solo solve is a group of one).
        "solve_requests",
        "process_solve",
        # The workbench's group and prebuilt-SoC solves.
        "solve_batch",
        "solve_soc",
        "run_fleet",
    }
)


@register_rule
class AsyncBlockingRule(LintRule):
    name = "async-blocking"
    description = (
        "blocking calls (sleep, file/socket I/O, subprocess, direct solver "
        "invocation) inside async def bodies"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for sf in project.files:
            table = import_table(sf.tree)
            for node in ast.walk(sf.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    yield from self._check_async_def(sf, node, table)

    def _check_async_def(
        self,
        sf: SourceFile,
        fn: ast.AsyncFunctionDef,
        table: dict[str, str],
    ) -> Iterator[Finding]:
        for node in walk_shallow(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            qualified = qualified_name(func, table)
            where = f"async def {fn.name}"
            if qualified in BLOCKING_CALLS:
                yield self.finding(
                    sf.path,
                    node.lineno,
                    node.col_offset,
                    f"blocking call {qualified}() inside {where}",
                    hint=BLOCKING_CALLS[qualified],
                )
            elif isinstance(func, ast.Name) and func.id in BLOCKING_BUILTINS:
                yield self.finding(
                    sf.path,
                    node.lineno,
                    node.col_offset,
                    f"blocking builtin {func.id}() inside {where}",
                    hint=BLOCKING_BUILTINS[func.id],
                )
            elif isinstance(func, ast.Attribute) and func.attr in BLOCKING_METHODS:
                yield self.finding(
                    sf.path,
                    node.lineno,
                    node.col_offset,
                    f"blocking I/O method .{func.attr}() inside {where}",
                    hint=BLOCKING_METHODS[func.attr],
                )
            else:
                called = None
                if isinstance(func, ast.Name):
                    called = func.id
                elif isinstance(func, ast.Attribute):
                    called = func.attr
                if called in SOLVER_ENTRYPOINTS:
                    yield self.finding(
                        sf.path,
                        node.lineno,
                        node.col_offset,
                        f"direct solver invocation {called}() inside {where}",
                        hint=(
                            "solves are CPU-bound; dispatch via "
                            "loop.run_in_executor (see ScheduleService._run_group)"
                        ),
                    )
