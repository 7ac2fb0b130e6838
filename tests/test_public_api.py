"""Public API surface tests.

Every name promised by ``__all__`` must exist, and the error hierarchy
must behave as documented (single catchable base class, informative
messages).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.api
import repro.core
import repro.engine
import repro.experiments
import repro.floorplan
import repro.power
import repro.service
import repro.soc
import repro.thermal
from repro.errors import (
    CoreThermalViolationError,
    FloorplanError,
    FloorplanFormatError,
    GeometryError,
    PowerModelError,
    ProtocolError,
    ReproError,
    RequestError,
    ScheduleInfeasibleError,
    SchedulingError,
    ServiceBusyError,
    ServiceClosedError,
    ServiceError,
    SolverError,
    ThermalModelError,
)


@pytest.mark.parametrize(
    "module",
    [repro, repro.api, repro.core, repro.engine, repro.experiments,
     repro.floorplan, repro.power, repro.service, repro.soc, repro.thermal],
)
def test_all_names_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_version():
    assert repro.__version__ == "1.0.0"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GeometryError,
            FloorplanError,
            FloorplanFormatError,
            ThermalModelError,
            SolverError,
            PowerModelError,
            RequestError,
            SchedulingError,
            CoreThermalViolationError,
            ScheduleInfeasibleError,
            ServiceError,
            ServiceBusyError,
            ServiceClosedError,
            ProtocolError,
        ],
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, ReproError)

    def test_format_error_is_floorplan_error(self):
        assert issubclass(FloorplanFormatError, FloorplanError)

    def test_specialised_service_errors(self):
        assert issubclass(ServiceBusyError, ServiceError)
        assert issubclass(ServiceClosedError, ServiceError)
        assert issubclass(ProtocolError, ServiceError)

    def test_specialised_scheduling_errors(self):
        assert issubclass(CoreThermalViolationError, SchedulingError)
        assert issubclass(ScheduleInfeasibleError, SchedulingError)

    def test_core_violation_carries_context(self):
        err = CoreThermalViolationError("IntReg", 151.2, 145.0)
        assert err.core_name == "IntReg"
        assert err.max_temperature_c == 151.2
        assert err.limit_c == 145.0
        assert "IntReg" in str(err)
        assert "145" in str(err)
        assert "Algorithm 1" in str(err)

    def test_single_catch_point(self):
        """A caller catching ReproError sees every library failure."""
        from repro.floorplan import parse_flp

        with pytest.raises(ReproError):
            parse_flp("garbage line")


class TestQuickstartDocExample:
    def test_readme_quickstart_runs(self):
        """The README's unified-API quickstart snippet, executed verbatim."""
        from repro import ScheduleRequest, solve

        report = solve(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
        baseline = solve(
            ScheduleRequest(
                soc="alpha15", tl_c=165.0, solver="power_constrained"
            )
        )
        assert report.max_temperature_c < 165.0
        assert report.hot_spot_rate == 0.0
        assert baseline.n_sessions <= report.n_sessions

    def test_readme_migration_target_runs(self):
        """The migration table's 'new call' column, executed verbatim."""
        from repro import ScheduleRequest, Workbench

        workbench = Workbench()
        thermal = workbench.solve(
            ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0)
        )
        sequential = workbench.solve(
            ScheduleRequest(soc="alpha15", tl_c=165.0, solver="sequential")
        )
        assert sequential.length_s >= thermal.length_s
        audit_ok = thermal.hot_spot_rate == 0.0
        assert audit_ok


def test_library_imports_and_solves_without_networkx():
    """networkx is not a dependency: a clean install must import and solve."""
    script = textwrap.dedent(
        """
        import sys

        sys.modules["networkx"] = None  # every import of it now fails
        from repro import ScheduleRequest, solve

        report = solve(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
        assert report.max_temperature_c < 165.0, report.max_temperature_c
        """
    )
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr


def test_import_solve_and_decode_leave_scipy_sparse_unloaded():
    """Only the grid-mode simulator needs scipy.sparse; it imports it itself."""
    script = textwrap.dedent(
        """
        import sys

        from repro import ScheduleRequest, solve
        from repro.api.request import report_from_dict, report_to_dict
        from repro.engine import ScenarioSpec

        assert "scipy.sparse" not in sys.modules
        scenario = ScenarioSpec(kind="grid", rows=3, cols=4)
        request = ScheduleRequest(scenario=scenario, tl_headroom=1.2, stcl_headroom=2.0)
        report = solve(request)
        decoded = report_from_dict(report_to_dict(report))
        assert decoded.schedule.length_s == report.schedule.length_s
        assert "scipy.sparse" not in sys.modules
        """
    )
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
