"""Batch scheduling engine: scenario fleets, parallel backends, model cache.

The single-run flow answers one ``(SoC, TL, STCL)`` question; this
subsystem turns it into a high-throughput batch service:

* :mod:`scenarios` — declarative, picklable SoC descriptions and a
  seeded generator that emits diverse fleets (job id ->
  :class:`~repro.api.ScheduleRequest`) in one call;
* :mod:`cache` — a content-hash-keyed cache sharing compiled thermal
  networks and steady-state factorisations across jobs;
* :mod:`backends` — a pluggable execution-backend registry (serial,
  thread, multiprocessing);
* :mod:`runner` — :class:`BatchRunner`, which fans jobs out through
  the scheduling service's worker path, aggregates their outcomes
  (:class:`~repro.service.execution.SolveOutcome`) and archives them
  as JSONL in the service's record format.

Quickstart::

    from repro.engine import BatchRunner, generate_fleet

    fleet = generate_fleet(100, seed=0)
    batch = BatchRunner(backend="process").run(fleet)
    print(batch.describe())
"""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    create_backend,
    default_worker_count,
    register_backend,
)
from .cache import (
    CacheStats,
    ThermalModelCache,
    floorplan_fingerprint,
    model_key,
    package_fingerprint,
    process_local_cache,
)
from .runner import BatchResult, BatchRunner, load_batch_jsonl, save_batch_jsonl
from .scenarios import (
    FleetConfig,
    ScenarioSpec,
    generate_fleet,
    generate_scenarios,
)

__all__ = [
    "BatchResult",
    "BatchRunner",
    "CacheStats",
    "ExecutionBackend",
    "FleetConfig",
    "ProcessBackend",
    "ScenarioSpec",
    "SerialBackend",
    "ThermalModelCache",
    "ThreadBackend",
    "available_backends",
    "create_backend",
    "default_worker_count",
    "floorplan_fingerprint",
    "generate_fleet",
    "generate_scenarios",
    "load_batch_jsonl",
    "model_key",
    "package_fingerprint",
    "process_local_cache",
    "register_backend",
    "save_batch_jsonl",
]
