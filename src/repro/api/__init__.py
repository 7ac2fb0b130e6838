"""Unified solver API: one front door over every scheduler.

The repo hosts several schedulers — the paper's thermal-aware
Algorithm 1, the power-constrained / random baselines, the sequential
reference and the exact branch-and-bound optimum.  This subsystem gives
them one calling shape:

* :mod:`request` — frozen, picklable :class:`ScheduleRequest` problem
  specs and the uniform :class:`SolveReport` answer;
* :mod:`solvers` — the :class:`Solver` protocol, the
  :func:`register_solver` registry and the built-in solver fleet;
* :mod:`workbench` — the :class:`Workbench` facade owning a shared
  thermal-model cache and routing single solves and whole fleets
  through the same path.

Quickstart::

    from repro.api import ScheduleRequest, solve

    report = solve(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
    baseline = solve(
        ScheduleRequest(soc="alpha15", tl_c=165.0, solver="power_constrained")
    )
    print(report.length_s, baseline.hot_spot_rate)
"""

from .request import (
    BUILTIN_SOC_NAMES,
    DEFAULT_SOLVER,
    ScheduleRequest,
    SolveReport,
    report_from_dict,
    report_to_dict,
    request_from_dict,
    request_to_dict,
)
from .solvers import (
    OptimalMinSessionsSolver,
    PowerConstrainedSolver,
    RandomSolver,
    SequentialSolver,
    SolveContext,
    Solver,
    ThermalAwareSolver,
    available_solvers,
    get_solver,
    register_solver,
)
from .workbench import (
    Workbench,
    default_workbench,
    solve,
)

__all__ = [
    "BUILTIN_SOC_NAMES",
    "DEFAULT_SOLVER",
    "OptimalMinSessionsSolver",
    "PowerConstrainedSolver",
    "RandomSolver",
    "ScheduleRequest",
    "SequentialSolver",
    "SolveContext",
    "SolveReport",
    "Solver",
    "ThermalAwareSolver",
    "Workbench",
    "available_solvers",
    "default_workbench",
    "get_solver",
    "register_solver",
    "report_from_dict",
    "report_to_dict",
    "request_from_dict",
    "request_to_dict",
    "solve",
]
