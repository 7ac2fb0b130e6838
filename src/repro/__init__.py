"""repro — thermal-safe SoC test scheduling.

A production-quality reproduction of *"Rapid generation of thermal-safe
test schedules"* (Rosinger, Al-Hashimi, Chakrabarty — DATE 2005),
including every substrate the paper depends on:

* a floorplan geometry kernel with HotSpot ``.flp`` I/O
  (:mod:`repro.floorplan`);
* a block-level RC thermal simulator, steady-state and transient — the
  HotSpot stand-in (:mod:`repro.thermal`);
* test power modelling (:mod:`repro.power`) and SoC descriptions
  (:mod:`repro.soc`);
* the paper's contribution: the test-session thermal model and the
  thermal-aware scheduling algorithm, plus the power-constrained
  baselines it argues against (:mod:`repro.core`);
* experiment drivers regenerating every figure and table
  (:mod:`repro.experiments`).

* the batch engine: scenario fleets, a shared thermal-model cache and
  parallel execution backends (:mod:`repro.engine`).

* the unified solver API: :class:`ScheduleRequest` problem specs, a
  solver registry and the :class:`Workbench` facade (:mod:`repro.api`).

* the async scheduling service: a bounded job queue, a worker pool with
  in-flight request deduplication and a JSONL-over-TCP wire protocol
  (:mod:`repro.service`, ``repro serve`` / ``repro submit``).

Quickstart (the unified solver API — one front door for every
scheduler)::

    from repro import ScheduleRequest, solve

    report = solve(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
    baseline = solve(
        ScheduleRequest(soc="alpha15", tl_c=165.0, solver="power_constrained")
    )
    print(report.describe(), baseline.hot_spot_rate)

Batch quickstart::

    from repro import BatchRunner, generate_fleet

    batch = BatchRunner(backend="process").run(generate_fleet(100, seed=0))
    print(batch.describe())
"""

from .api import (
    ScheduleRequest,
    SolveReport,
    Solver,
    Workbench,
    available_solvers,
    get_solver,
    register_solver,
    solve,
)
from .core import (
    ScheduleResult,
    SchedulerConfig,
    SessionModelConfig,
    SessionThermalModel,
    TestSchedule,
    TestSession,
    audit_schedule,
)
from .errors import (
    CoreThermalViolationError,
    FloorplanError,
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
from .engine import (
    BatchResult,
    BatchRunner,
    FleetConfig,
    ScenarioSpec,
    ThermalModelCache,
    available_backends,
    generate_fleet,
    generate_scenarios,
)
from .floorplan import Floorplan, Rect, alpha15, hypothetical7, worked_example6
from .power import PowerProfile, generate_power_profile
from .service import (
    ReportArchive,
    ScheduleServer,
    ScheduleService,
    ServiceClient,
)
from .soc import (
    CoreUnderTest,
    SocUnderTest,
    alpha15_soc,
    grid_soc,
    hypothetical7_soc,
    worked_example6_soc,
)
from .thermal import (
    BlockTemperatureField,
    PackageConfig,
    ReducedSteadyOperator,
    TemperatureField,
    ThermalSimulator,
)

__version__ = "1.0.0"

__all__ = [
    "BatchResult",
    "BatchRunner",
    "BlockTemperatureField",
    "CoreThermalViolationError",
    "CoreUnderTest",
    "FleetConfig",
    "Floorplan",
    "FloorplanError",
    "GeometryError",
    "PackageConfig",
    "PowerModelError",
    "PowerProfile",
    "ProtocolError",
    "Rect",
    "ReducedSteadyOperator",
    "ReportArchive",
    "ReproError",
    "RequestError",
    "ScenarioSpec",
    "ScheduleInfeasibleError",
    "ScheduleRequest",
    "ScheduleResult",
    "ScheduleServer",
    "ScheduleService",
    "SchedulerConfig",
    "SchedulingError",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceError",
    "SessionModelConfig",
    "SessionThermalModel",
    "SocUnderTest",
    "SolveReport",
    "Solver",
    "SolverError",
    "TemperatureField",
    "TestSchedule",
    "TestSession",
    "ThermalModelCache",
    "ThermalModelError",
    "ThermalSimulator",
    "Workbench",
    "alpha15",
    "alpha15_soc",
    "audit_schedule",
    "available_backends",
    "available_solvers",
    "generate_fleet",
    "generate_power_profile",
    "generate_scenarios",
    "get_solver",
    "grid_soc",
    "hypothetical7",
    "hypothetical7_soc",
    "register_solver",
    "solve",
    "worked_example6",
    "worked_example6_soc",
    "__version__",
]
