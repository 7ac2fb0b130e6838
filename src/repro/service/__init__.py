"""Async scheduling service: job queue, worker pool, JSONL wire protocol.

The batch engine answers fleets it is handed; this subsystem turns the
library into a *traffic-serving* system — a long-lived asyncio service
that many clients feed :class:`~repro.api.ScheduleRequest`\\ s over TCP
and that answers with :class:`~repro.api.SolveReport`\\ s:

* :mod:`service` — :class:`ScheduleService`: bounded job queue,
  worker pool on the engine's execution backends, in-flight request
  deduplication by content hash, per-request timeouts, backpressure,
  graceful drain and operational metrics;
* :mod:`answer_cache` — :class:`AnswerCache`, the bounded TTL cache of
  resolved answers (same content-hash key), warm-startable from an
  archive (``repro serve --warm-from``);
* :mod:`pool` — :class:`AdaptiveWorkerPool`, the admission gate that
  scales worker concurrency between min/max with queue depth;
* :mod:`protocol` — the newline-delimited JSON frame format
  (submit/report/error/stats/ping/metrics plus the progress/event
  push frames of a streaming submit);
* :mod:`endpoint` — :class:`~repro.service.endpoint.FrameEndpoint`,
  the one JSONL-over-TCP connection loop that the server and the
  router subclass;
* :mod:`server` — :class:`ScheduleServer`, the endpoint over one service;
* :mod:`client` — :class:`AsyncServiceClient` (pipelined asyncio) and
  :class:`ServiceClient` (blocking wrapper);
* :mod:`archive` — the JSONL outcome record shared by service and
  batch archives, its decoder, and the service's append-only writer;
* :mod:`report` — per-solver aggregation of batch and service archives;
* :mod:`fleet` — the sharded fleet: consistent-hash ring,
  :class:`FleetRouter` (``repro route``) with health checks, circuit
  breakers and failover, the shared :class:`RetryPolicy`, and the
  seeded :class:`ChaosProxy` fault-injection harness.

Quickstart (in one process; over TCP it is ``repro serve`` +
``repro submit``)::

    import asyncio
    from repro.api import ScheduleRequest
    from repro.service import ScheduleService

    async def main():
        async with ScheduleService(backend="thread") as service:
            report = await service.solve(
                ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0)
            )
            print(report.describe())

    asyncio.run(main())
"""

from .answer_cache import (
    AnswerCache,
    AnswerCacheStats,
    warm_cache_from_archive,
)
from .archive import (
    SERVICE_RECORD_KIND,
    ReportArchive,
    load_service_archive,
    outcome_from_record,
    outcome_record,
)
from .client import AsyncServiceClient, ServiceClient
from .execution import SolveOutcome, solve_requests
from .fleet import (
    ChaosProxy,
    CircuitBreaker,
    FaultPlan,
    FleetRouter,
    HashRing,
    RetryPolicy,
    ShardHealth,
    aggregate_fleet_stats,
)
from .pool import AdaptiveWorkerPool
from .protocol import (
    DEFAULT_PORT,
    DEFAULT_ROUTER_PORT,
    MAX_FRAME_BYTES,
    PUSH_FRAME_TYPES,
    decode_frame,
    encode_frame,
    error_frame,
    event_frame,
    fleet_stats_frame,
    metrics_frame,
    parse_submit_frame,
    ping_frame,
    progress_frame,
    report_frame,
    stats_frame,
    submit_frame,
)
from .report import (
    RecordStats,
    SolverSummary,
    record_stats,
    render_summary_table,
    summarize_archives,
    summarize_records,
)
from .server import ScheduleServer
from .service import (
    BATCH_FAMILIES,
    DWELL_FAMILIES,
    LATENCY_FAMILIES,
    METRIC_FIELDS,
    MetricField,
    ScheduleService,
    ServiceJob,
    ServiceMetrics,
    render_metrics_text,
)

__all__ = [
    "AdaptiveWorkerPool",
    "AnswerCache",
    "AnswerCacheStats",
    "AsyncServiceClient",
    "ChaosProxy",
    "CircuitBreaker",
    "DEFAULT_PORT",
    "DEFAULT_ROUTER_PORT",
    "BATCH_FAMILIES",
    "DWELL_FAMILIES",
    "FaultPlan",
    "FleetRouter",
    "HashRing",
    "LATENCY_FAMILIES",
    "MAX_FRAME_BYTES",
    "METRIC_FIELDS",
    "MetricField",
    "PUSH_FRAME_TYPES",
    "RecordStats",
    "ReportArchive",
    "RetryPolicy",
    "SERVICE_RECORD_KIND",
    "ScheduleServer",
    "ScheduleService",
    "ServiceClient",
    "ServiceJob",
    "ServiceMetrics",
    "ShardHealth",
    "SolveOutcome",
    "SolverSummary",
    "aggregate_fleet_stats",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "event_frame",
    "fleet_stats_frame",
    "load_service_archive",
    "metrics_frame",
    "outcome_from_record",
    "outcome_record",
    "parse_submit_frame",
    "ping_frame",
    "progress_frame",
    "record_stats",
    "render_metrics_text",
    "render_summary_table",
    "report_frame",
    "solve_requests",
    "stats_frame",
    "submit_frame",
    "summarize_archives",
    "summarize_records",
    "warm_cache_from_archive",
]
