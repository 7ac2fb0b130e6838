"""One BLAS thread per command-line process (:mod:`repro.engine.blas`).

Every case that can reach a real OpenBLAS runs in a child interpreter:
the cap is a process-wide setting, and the pytest process must keep its
own.  The suite is skipped where no OpenBLAS is mapped (another BLAS
vendor keeps its defaults).
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine import blas
from repro.engine.blas import THREAD_ENV, blas_threads

from ..test_cli import drain_serve_subprocess

SRC = Path(repro.__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not blas_threads(), reason="no OpenBLAS is mapped into this process"
)


def _env(**extra: str) -> dict[str, str]:
    """The child's environment: this checkout first, no thread choice
    of the parent's leaking in, then *extra*."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else os.pathsep.join([str(SRC), existing])
    env.update(extra)
    return env


def _child(code: str, **env: str):
    """Run *code* in a fresh interpreter; the JSON of its last output line."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env(**env),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


#: ``python -m repro --help`` (runpy is what ``-m`` runs), then the counts.
MODULE_RUN = """
import json, runpy, sys
from repro.engine.blas import blas_threads
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(blas_threads()))
"""

#: Counts of a process that never goes through ``repro.__main__``.
PLAIN = """
import json
from repro.engine.blas import blas_threads
print(json.dumps(blas_threads()))
"""


class TestCommandLineCap:
    def test_module_run_reads_one_thread_in_every_openblas(self):
        counts = _child(MODULE_RUN)
        assert counts.keys() == blas_threads().keys()
        assert set(counts.values()) == {1}

    @pytest.mark.parametrize("variable", THREAD_ENV)
    def test_user_thread_count_wins(self, variable):
        uncapped = _child(PLAIN, **{variable: "2"})
        if set(uncapped.values()) != {2}:
            pytest.skip(f"OpenBLAS reads {uncapped} for {variable}=2 on this host")
        assert _child(MODULE_RUN, **{variable: "2"}) == uncapped

    def test_serve_banner_names_the_count(self):
        """``python -m repro serve`` says it runs one BLAS thread."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            text=True,
            env=_env(),
        )
        try:
            banner = proc.stdout.readline()
        finally:
            drain_serve_subprocess(proc)
        assert "listening on" in banner
        assert banner.rstrip().endswith(", BLAS threads 1)"), banner

    def test_library_use_keeps_the_callers_setting(self):
        """``import repro`` and an in-process command change no count."""
        counts = _child(
            f"""
import importlib.util, json
import numpy, scipy.linalg
spec = importlib.util.spec_from_file_location("probe", {blas.__file__!r})
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
before = probe.blas_threads()
import repro
from repro.cli import repro_main
imported = probe.blas_threads()
assert repro_main(["solve", "--soc", "alpha15", "--tl", "165", "--stcl", "60"]) == 0
print(json.dumps([before, imported, probe.blas_threads()]))
"""
        )
        before, imported, solved = counts
        assert before and before == imported == solved

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only fork-started workers inherit the parent's setting",
    )
    def test_forked_process_worker_inherits_one_thread(self):
        counts = _child(
            """
import json
from repro.engine.backends import ProcessBackend
from repro.engine.blas import blas_threads, use_one_blas_thread

def probe(_):
    return blas_threads()

use_one_blas_thread()
print(json.dumps(ProcessBackend(max_workers=1).map(probe, [0])[0]))
"""
        )
        assert counts and set(counts.values()) == {1}


class TestNothingToSet:
    """No maps file, or only unloadable entries: both calls do nothing."""

    @staticmethod
    def _missing(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    @staticmethod
    def _deleted(*args, **kwargs):
        return io.StringIO(
            "7f00-7f01 r-xp 00000000 08:01 42 /gone/libopenblas.so (deleted)\n"
        )

    @pytest.mark.parametrize("fake_open", [_missing, _deleted], ids=["missing", "deleted"])
    def test_no_op(self, monkeypatch, fake_open):
        monkeypatch.setattr(blas, "open", fake_open, raising=False)
        assert blas.use_one_blas_thread() is None
        assert blas.blas_threads() == {}


#: A tight 16x16 grid request of paper-sweep's shape, solved and encoded.
GRID16 = """
import json
from repro.api import ScheduleRequest, Workbench
from repro.api.request import report_to_dict
from repro.engine.blas import blas_threads
from repro.engine.scenarios import ScenarioSpec

request = ScheduleRequest(
    scenario=ScenarioSpec(kind="grid", rows=16, cols=16, power_seed=12345),
    tl_headroom=1.5,
    stcl_headroom=2.0,
)
report = report_to_dict(Workbench().solve(request))
print(json.dumps({"threads": blas_threads(), "report": report}))
"""


def _decisions(report: dict) -> dict:
    """Everything the scheduler decided, as opposed to what it measured."""
    result = report["result"]
    return {
        "sessions": [session["cores"] for session in result["schedule"]["sessions"]],
        "discards": [
            (discard["cores"], discard["violators"], discard["iteration"])
            for discard in result["discarded"]
        ],
        "weights": result["weights"],
        "length_s": result["length_s"],
        "effort_s": result["effort_s"],
        "forced_singletons": result["forced_singletons"],
        "steady_solves": (report["steady_solves"], result["steady_solves"]),
    }


def _assert_close(a, b, where: str = "report") -> None:
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert b == pytest.approx(a, rel=1e-12, abs=0.0), where
    else:
        assert a == b, where


def test_thread_count_moves_temperatures_never_decisions():
    """OpenBLAS's threaded Cholesky sums in another order than its
    one-thread kernel: temperatures may move in the last bits, every
    decision stays (on a 1-CPU host both children run one thread)."""
    one = _child(GRID16, OPENBLAS_NUM_THREADS="1")
    two = _child(GRID16, OPENBLAS_NUM_THREADS="2")
    assert set(one["threads"].values()) == {1}
    reports = [
        {k: v for k, v in child["report"].items() if k not in ("elapsed_s", "timings")}
        for child in (one, two)
    ]
    assert _decisions(reports[0]) == _decisions(reports[1])
    _assert_close(reports[0], reports[1])
