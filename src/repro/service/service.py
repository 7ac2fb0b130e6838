"""The long-lived asyncio scheduling service.

:class:`ScheduleService` is the queueing heart of ``repro serve``: it
accepts :class:`~repro.api.ScheduleRequest`\\ s on a bounded job queue,
dispatches them to a worker pool built from the batch engine's execution
backends, and resolves each submission's awaitable with a
:class:`~repro.service.execution.SolveOutcome`.

Design points:

* **Bounded queue, explicit backpressure** — :meth:`ScheduleService.submit`
  awaits queue space (a TCP handler that awaits it stops reading its
  socket, pushing the backpressure all the way to the client), while
  :meth:`ScheduleService.submit_nowait` raises
  :class:`~repro.errors.ServiceBusyError` for callers that would rather
  shed load than wait.  An optional ``shed_watermark`` turns *both*
  paths into load-shedders past a queue-depth high-water mark.
* **Answer cache** — resolved answers are kept in a bounded,
  TTL-expiring :class:`~repro.service.answer_cache.AnswerCache` keyed
  by the same content hash as everything else; a hit resolves the
  submission immediately (report flagged ``cached``) without touching
  the queue or a worker, and the cache can warm-start from a
  :class:`~repro.service.archive.ReportArchive` at boot.
* **In-flight deduplication** — submissions are keyed by the request's
  stable :meth:`~repro.api.ScheduleRequest.content_hash`; while a solve
  for a given hash is queued or running, every identical submission
  attaches to the same :class:`ServiceJob` and one worker answers them
  all.  (Waiters share the job's outcome — including its timeout, which
  is fixed by the first submitter.)
* **Adaptive worker pool** — admissions to the executor are gated by an
  :class:`~repro.service.pool.AdaptiveWorkerPool` that scales its
  target between ``min_workers`` and ``max_workers`` with queue
  pressure (one step per observation, idle hysteresis on the way down).
* **Group dispatch** — every dispatch hands one worker a group of
  jobs: a group of one by default, or with ``max_batch > 1`` the
  queued jobs that share a thermal network, solved one after another.
* **Shared thermal models** — thread workers solve against the
  service's :class:`~repro.engine.cache.ThermalModelCache`; process
  workers use the same per-process cache as the batch runner, so a
  service interleaved with batches keeps its factorisations warm.
* **Graceful drain** — :meth:`ScheduleService.stop` (default
  ``drain=True``) stops accepting, lets the queue and every in-flight
  solve finish, resolves all futures, then joins the executor.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Mapping

from ..api.request import ScheduleRequest, SolveReport
from ..engine.backends import ExecutionBackend, create_backend
from ..engine.cache import CacheStats, ThermalModelCache, resolve_cache
from ..errors import ServiceBusyError, ServiceClosedError, ServiceError
from ..obs.histogram import HistogramRegistry
from ..obs.log import JsonLogger
from ..obs.prometheus import (
    counter_family,
    gauge_family,
    info_family,
    render_families,
    summary_family,
)
from .answer_cache import AnswerCache, AnswerCacheStats, warm_cache_from_archive
from .archive import ReportArchive
from .execution import SolveOutcome, error_outcome, process_solve, solve_requests
from .pool import AdaptiveWorkerPool
from ..reactive import (
    GuardConfig,
    ReactiveConfig,
    ReactiveEvent,
    ReactiveRunReport,
    run_schedule_result,
)

#: Latency histogram families the service records (seconds):
#: ``queue_wait`` (submit to worker dispatch — slot acquisition
#: included, since a job only leaves the queue once a slot is held),
#: ``solve`` (wall time inside the worker), ``e2e`` (submit to answer —
#: answer-cache hits included, which is what makes its distribution
#: bimodal), ``answer_hit`` (cache-lookup latency of hits) and
#: ``archive_append`` (background archive write).
LATENCY_FAMILIES = ("queue_wait", "solve", "e2e", "answer_hit", "archive_append")

#: Per-state dwell-time histogram families (seconds spent in each
#: thermal-guard state, one observation per state per reactive run).
#: They live in the same registry as the latency families, so they ride
#: the stats frame's ``latency`` mapping and the Prometheus summaries
#: without a second pipeline.
DWELL_FAMILIES = ("dwell_normal", "dwell_elevated", "dwell_critical")

#: Size-distribution histogram families (dimensionless counts, not
#: seconds): ``batch_size`` records the number of jobs in each
#: worker-pool dispatch while coalescing is enabled — size-1 dispatches
#: included, so the distribution shows how often coalescing actually
#: engages, not just how big its wins are.
BATCH_FAMILIES = ("batch_size",)


@dataclass(frozen=True)
class MetricField:
    """One scalar of the stats frame: name, Prometheus kind, prose.

    The single source of truth behind :meth:`ServiceMetrics.to_dict`,
    :meth:`ServiceMetrics.describe` and the Prometheus rendering —
    adding a counter here adds it to all three, so they cannot drift.

    Attributes
    ----------
    name:
        Attribute name on :class:`ServiceMetrics` (and stats-frame key).
    kind:
        ``"counter"`` or ``"gauge"`` (Prometheus semantics).
    group:
        Describe-line grouping: ``"config"`` fields appear in the
        headline, ``"traffic"``/``"solves"`` fields in their own lines,
        ``"rate"`` fields in the throughput line.
    label:
        Human phrasing used by :meth:`ServiceMetrics.describe`.
    help:
        Prometheus ``# HELP`` text.
    """

    name: str
    kind: str
    group: str
    label: str
    help: str


#: Every scalar of the stats frame, in wire order.
METRIC_FIELDS: tuple[MetricField, ...] = (
    MetricField("workers", "gauge", "config", "workers max",
                "Worker-pool maximum."),
    MetricField("min_workers", "gauge", "config", "workers min",
                "Adaptive worker-pool floor."),
    MetricField("current_workers", "gauge", "config", "current workers",
                "Current adaptive-pool admission target."),
    MetricField("scale_ups", "counter", "solves", "pool scale-ups",
                "One-step pool scale-up decisions."),
    MetricField("scale_downs", "counter", "solves", "pool scale-downs",
                "One-step pool scale-down decisions."),
    MetricField("queue_capacity", "gauge", "config", "queue capacity",
                "Job-queue bound (the backpressure threshold)."),
    MetricField("queue_depth", "gauge", "config", "queue depth",
                "Jobs waiting for a worker slot right now."),
    MetricField("in_flight", "gauge", "config", "in flight",
                "Jobs currently occupying a worker."),
    MetricField("submitted", "counter", "traffic", "submitted",
                "Submissions accepted (dedup and answer hits included)."),
    MetricField("answer_hits", "counter", "traffic", "answer-cache hits",
                "Submissions answered from the answer cache."),
    MetricField("deduped", "counter", "traffic", "deduped",
                "Submissions attached to an identical in-flight solve."),
    MetricField("completed", "counter", "traffic", "ok",
                "Jobs resolved with a report."),
    MetricField("errors", "counter", "traffic", "errors",
                "Jobs resolved with an error outcome."),
    MetricField("timeouts", "counter", "traffic", "timeouts",
                "Jobs that exceeded their solve timeout."),
    MetricField("rejected", "counter", "traffic", "rejected",
                "Submissions refused with ServiceBusyError."),
    MetricField("shed", "counter", "traffic", "shed",
                "Rejections caused by the shed watermark."),
    MetricField("solves_started", "counter", "solves", "solves started",
                "Worker-pool executions dispatched."),
    MetricField("solves_completed", "counter", "solves", "solves completed",
                "Worker-pool executions finished (zombies included)."),
    MetricField("cache_hits", "counter", "solves", "model cache hits",
                "Solves whose thermal model came out of a cache."),
    MetricField("coalesced_batches", "counter", "solves", "coalesced batches",
                "Worker-pool dispatches that solved a coalesced group."),
    MetricField("coalesced_solves", "counter", "solves", "coalesced solves",
                "Jobs answered as members of a coalesced group."),
    MetricField("reactive_runs", "counter", "reactive", "reactive runs",
                "Closed-loop reactive executions streamed to watchers."),
    MetricField("guard_transitions", "counter", "reactive",
                "guard transitions",
                "Thermal-guard state transitions across reactive runs."),
    MetricField("reactive_throttles", "counter", "reactive", "throttles",
                "Throttle engagements forced by the thermal guard."),
    MetricField("reactive_pauses", "counter", "reactive", "pauses",
                "Cooling pauses forced by the thermal guard."),
    MetricField("uptime_s", "gauge", "rate", "uptime s",
                "Seconds since the service started."),
    MetricField("requests_per_s", "gauge", "rate", "req/s",
                "Answered submissions per second of uptime."),
)


def _format_quantile_ms(value: "float | None") -> str:
    return "-" if value is None else f"{value * 1e3:.2f} ms"


class ServiceJob:
    """One queued or running solve, shared by all of its submitters.

    Attributes
    ----------
    request:
        The deduplicated request being solved.
    key:
        Its content hash (the dedup key).
    timeout_s:
        Effective solve timeout (``None`` = unbounded), fixed by the
        first submitter.
    waiters:
        Submissions that dedup-attached to this job after the first —
        the count of *other* clients whose answers die with it.
    queue_wait_s:
        Seconds between submission and worker dispatch (``None`` until
        the job leaves the queue).
    streaming:
        True once any submitter asked for push events
        (``submit(..., stream=True)``); the service then runs the
        closed-loop reactive phase after the solve resolves.
    streams:
        Subscriber queues (see :meth:`subscribe`); every reactive event
        is broadcast to all of them, then a ``None`` sentinel.
    """

    __slots__ = (
        "request",
        "key",
        "timeout_s",
        "future",
        "submitted_at",
        "waiters",
        "queue_wait_s",
        "streaming",
        "streams",
        "reactive_task",
    )

    def __init__(
        self,
        request: ScheduleRequest,
        key: str,
        timeout_s: float | None,
        future: "asyncio.Future[SolveOutcome]",
    ) -> None:
        self.request = request
        self.key = key
        self.timeout_s = timeout_s
        self.future = future
        self.submitted_at = time.perf_counter()
        self.waiters = 0
        self.queue_wait_s: float | None = None
        self.streaming = False
        self.streams: "list[asyncio.Queue[dict[str, Any] | None]]" = []
        self.reactive_task: "asyncio.Task[None] | None" = None

    def subscribe(self) -> "asyncio.Queue[dict[str, Any] | None]":
        """A fresh event queue receiving this job's reactive timeline.

        Subscribe on the event loop right after a streaming submit
        returns (before any further ``await``) and no event can be
        missed.  The queue ends with a ``None`` sentinel.
        """
        queue: "asyncio.Queue[dict[str, Any] | None]" = asyncio.Queue()
        self.streams.append(queue)
        return queue

    @property
    def done(self) -> bool:
        """True once the job's outcome is resolved."""
        return self.future.done()

    async def outcome(self) -> SolveOutcome:
        """Await the job's terminal record (never raises on solve errors).

        The future is shielded: cancelling one waiter does not cancel
        the shared solve the other submitters are still waiting on.
        """
        return await asyncio.shield(self.future)

    async def report(self) -> SolveReport:
        """Await the report; solve failures raise :class:`ServiceError`."""
        outcome = await self.outcome()
        if not outcome.ok:
            raise ServiceError(outcome.error)
        assert outcome.report is not None
        return outcome.report


@dataclass(frozen=True)
class ServiceMetrics:
    """Point-in-time operational snapshot of a :class:`ScheduleService`.

    Attributes
    ----------
    backend, workers, queue_capacity:
        Static configuration (``workers`` is the pool *maximum*).
    min_workers, current_workers:
        Adaptive-pool band floor and current admission target
        (``current_workers == workers`` for a fixed-size pool).
    scale_ups, scale_downs:
        One-step pool scaling decisions taken so far.
    queue_depth:
        Jobs waiting for a worker slot right now.
    in_flight:
        Jobs currently occupying a worker.
    submitted:
        Total submissions accepted (dedup-attached and answer-cache
        hits included).
    answer_hits:
        Submissions answered directly from the answer cache (no queue,
        no worker, report flagged ``cached``).
    deduped:
        Submissions that attached to an already in-flight identical
        request instead of triggering a solve.
    completed, errors, timeouts:
        Jobs resolved ok / with an error outcome / of which timeouts.
    rejected:
        Submissions refused with :class:`~repro.errors.ServiceBusyError`
        (``submit_nowait`` on a full queue, either path past the shed
        watermark, or dedup waiters whose originating submission was
        cancelled while the queue was full).
    shed:
        The subset of ``rejected`` caused by the shed watermark.
    solves_started, solves_completed:
        Worker-pool executions — ``submitted - deduped - answer_hits``
        submissions each start exactly one solve, which is how dedup
        and the answer cache are asserted.
    cache_hits:
        Solves whose thermal model came out of a cache.
    coalesced_batches, coalesced_solves:
        Worker-pool dispatches that solved a coalesced group of two or
        more jobs, and the jobs answered that way.  Both stay zero with
        coalescing disabled (``max_batch=1``), which is what makes the
        baseline comparable.
    uptime_s, requests_per_s:
        Service age and answered-submissions throughput over it.
        Cache hits and dedup-attached submissions count — every one is
        an answered request (an attached waiter's answer is its shared
        job's, so the gauge runs at most ``in_flight`` ahead of the
        futures actually resolving).
    cache:
        Shared model-cache statistics (``None`` for process workers,
        whose per-process caches are visible only via ``cache_hits``).
    answer_cache:
        Answer-cache statistics (``None`` when the cache is disabled).
    latency:
        Per-family latency histogram snapshots (count/sum/min/max/mean
        plus p50/p95/p99; see :data:`LATENCY_FAMILIES`), keyed under
        ``"latency"`` in the stats frame.
    """

    backend: str
    workers: int
    queue_capacity: int
    queue_depth: int
    in_flight: int
    submitted: int
    deduped: int
    completed: int
    errors: int
    timeouts: int
    rejected: int
    solves_started: int
    solves_completed: int
    cache_hits: int
    uptime_s: float
    requests_per_s: float
    cache: CacheStats | None = None
    min_workers: int = 0
    current_workers: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    shed: int = 0
    answer_hits: int = 0
    answer_cache: AnswerCacheStats | None = None
    latency: Mapping[str, Mapping[str, Any]] = dataclasses.field(
        default_factory=dict
    )
    reactive_runs: int = 0
    guard_transitions: int = 0
    reactive_throttles: int = 0
    reactive_pauses: int = 0
    coalesced_batches: int = 0
    coalesced_solves: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the stats wire frame's payload).

        Scalar keys come straight from :data:`METRIC_FIELDS`, so the
        wire frame, :meth:`describe` and the Prometheus exposition all
        report the same field set by construction.
        """
        data: dict[str, Any] = {"backend": self.backend}
        for metric in METRIC_FIELDS:
            data[metric.name] = getattr(self, metric.name)
        if self.cache is not None:
            data["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": self.cache.entries,
                "evictions": self.cache.evictions,
            }
        if self.answer_cache is not None:
            data["answer_cache"] = self.answer_cache.to_dict()
        data["latency"] = {
            name: dict(snapshot) for name, snapshot in self.latency.items()
        }
        return data

    @property
    def dedup_rate(self) -> float:
        """Fraction of submissions answered by an in-flight solve."""
        return self.deduped / self.submitted if self.submitted else 0.0

    @property
    def answer_hit_rate(self) -> float:
        """Fraction of submissions answered from the answer cache."""
        return self.answer_hits / self.submitted if self.submitted else 0.0

    def describe(self) -> str:
        """Multi-line human-readable snapshot.

        The counter lines are generated from :data:`METRIC_FIELDS`
        (one ``value label`` pair per field, grouped), so a counter
        added to the stats frame shows up here without a second edit.
        """
        if self.min_workers and self.min_workers != self.workers:
            workers = (
                f"{self.current_workers} workers "
                f"[{self.min_workers}..{self.workers}]"
            )
        else:
            workers = f"{self.workers} workers"
        lines = [
            f"schedule service on backend {self.backend!r} "
            f"({workers}, queue {self.queue_depth}/"
            f"{self.queue_capacity}, {self.in_flight} in flight)",
        ]
        for group in ("traffic", "solves", "reactive"):
            pairs = ", ".join(
                f"{getattr(self, metric.name)} {metric.label}"
                for metric in METRIC_FIELDS
                if metric.group == group
            )
            lines.append(f"  {pairs}")
        lines.append(
            f"  {self.requests_per_s:.1f} req/s over {self.uptime_s:.1f} s"
        )
        if self.latency:
            pairs = ", ".join(
                f"{name} p50 {_format_quantile_ms(snapshot.get('p50'))} / "
                f"p95 {_format_quantile_ms(snapshot.get('p95'))} "
                f"({snapshot.get('count', 0)} samples)"
                for name, snapshot in self.latency.items()
                # Batch widths are job counts, not durations: rendered
                # on their own line instead of through the ms formatter.
                if snapshot.get("count") and name not in BATCH_FAMILIES
            )
            if pairs:
                lines.append(f"  latency: {pairs}")
            batch = self.latency.get("batch_size") or {}
            if batch.get("count"):
                lines.append(
                    f"  batching: size p50 {batch.get('p50', 0.0):g} / "
                    f"max {batch.get('max', 0.0):g} jobs over "
                    f"{batch['count']} group dispatches"
                )
        if self.answer_cache is not None:
            lines.append(f"  {self.answer_cache.describe()}")
        if self.cache is not None:
            lines.append(f"  {self.cache.describe()}")
        return "\n".join(lines)


def render_metrics_text(metrics: ServiceMetrics) -> str:
    """Prometheus text exposition of one metrics snapshot.

    Scalars render from :data:`METRIC_FIELDS` (counters as
    ``repro_<name>_total``, gauges as ``repro_<name>``), the nested
    cache stats as their own families, and each latency snapshot as a
    summary (``repro_<family>_seconds`` with p50/p95/p99 quantile
    samples plus ``_sum``/``_count``).
    """
    families = [
        info_family(
            "repro_service", "Service configuration.",
            {"backend": metrics.backend},
        )
    ]
    for metric in METRIC_FIELDS:
        value = float(getattr(metrics, metric.name))
        name = f"repro_{metric.name}"
        if metric.kind == "counter":
            families.append(counter_family(name, metric.help, value))
        else:
            families.append(gauge_family(name, metric.help, value))
    if metrics.cache is not None:
        cache = metrics.cache
        families.extend(
            (
                counter_family(
                    "repro_model_cache_hits",
                    "Thermal models served from the shared cache.",
                    cache.hits,
                ),
                counter_family(
                    "repro_model_cache_misses",
                    "Thermal models built fresh.",
                    cache.misses,
                ),
                gauge_family(
                    "repro_model_cache_entries",
                    "Thermal models currently cached.",
                    cache.entries,
                ),
                counter_family(
                    "repro_model_cache_evictions",
                    "Thermal models evicted by the cache bound.",
                    cache.evictions,
                ),
            )
        )
    if metrics.answer_cache is not None:
        answers = metrics.answer_cache.to_dict()
        for key, value in answers.items():
            name = f"repro_answer_cache_{key}"
            help_text = f"Answer-cache {key.replace('_', ' ')}."
            if key == "entries":
                families.append(gauge_family(name, help_text, value))
            else:
                families.append(counter_family(name, help_text, value))
    for family_name, snapshot in metrics.latency.items():
        if family_name in BATCH_FAMILIES:
            # Dimensionless: jobs per dispatch, so no ``_seconds``
            # suffix — a scraper must not average it into latency.
            families.append(
                summary_family(
                    f"repro_{family_name}",
                    "Jobs per worker-pool dispatch while request "
                    "coalescing is enabled.",
                    snapshot,
                )
            )
            continue
        if family_name.startswith("dwell_"):
            state = family_name[len("dwell_"):]
            help_text = (
                f"Thermal-guard {state}-state dwell time per "
                f"reactive run, in seconds."
            )
        else:
            help_text = (
                f"Request {family_name.replace('_', ' ')} latency "
                f"in seconds."
            )
        families.append(
            summary_family(
                f"repro_{family_name}_seconds", help_text, snapshot
            )
        )
    return render_families(families)


class ScheduleService:
    """Async scheduling service: bounded queue in, worker pool out.

    Parameters
    ----------
    backend:
        Engine backend name (``"thread"``, ``"process"``, ``"serial"``)
        or instance; its :meth:`~repro.engine.backends.ExecutionBackend.create_executor`
        provides the worker pool.
    max_workers:
        Worker-pool maximum (ignored when *backend* is an instance).
    min_workers:
        Adaptive-pool floor; defaults to the maximum (fixed-size pool,
        the pre-adaptive behaviour).  With ``min_workers < max``, the
        admission target scales with queue pressure.
    scale_down_idle_s:
        Continuous quiet time before the pool gives back one worker.
    worker_pool:
        Explicit :class:`~repro.service.pool.AdaptiveWorkerPool`
        (overrides the two knobs above; for tests with injected
        clocks).
    shed_watermark:
        Queue-depth high-water mark past which *both* submit paths
        shed load with :class:`~repro.errors.ServiceBusyError` instead
        of queueing (``None`` = never shed; await-backpressure only).
    cache:
        Thermal-model cache shared by thread/serial workers; pass an
        existing one to share warm models with a
        :class:`~repro.api.Workbench` in the same process.
    use_cache:
        Disable model caching entirely (process workers then skip their
        per-process caches too).
    queue_size:
        Bound of the job queue — the backpressure threshold.
    default_timeout_s:
        Per-solve timeout applied when a submission names none
        (``None`` = unbounded).
    archive:
        A :class:`~repro.service.archive.ReportArchive` (or path) every
        resolved outcome is appended to.
    answer_cache:
        Explicit :class:`~repro.service.answer_cache.AnswerCache`
        (overrides the two knobs below; for tests with injected
        clocks, or to share one cache across services).
    answer_cache_size:
        LRU bound of the default answer cache; ``0`` disables answer
        caching entirely.
    answer_ttl_s:
        TTL of the default answer cache (``None`` = never expires).
    warm_from:
        Service-archive JSONL path whose ``ok`` records pre-populate
        the answer cache at :meth:`start`.
    logger:
        A :class:`~repro.obs.log.JsonLogger` receiving the structured
        request-lifecycle events (admitted / deduped / shed /
        cache-hit / completed / timed-out); ``None`` disables event
        logging.
    slow_request_ms:
        End-to-end latency threshold above which a completed request
        additionally logs a ``slow_request`` event with its full phase
        timings.  Implies a default stderr logger when none is given.
    histograms:
        Explicit :class:`~repro.obs.histogram.HistogramRegistry` (to
        share one registry across services, or for tests with custom
        bounds).
    reactive_guard:
        Thermal-guard thresholds for streaming submissions (``None``
        derives them per request from its temperature limit via
        :meth:`repro.reactive.GuardConfig.from_limit`).
    reactive_config:
        Control-loop knobs (chunk, throttle factor, pause interval) of
        the streamed closed-loop execution.
    reactive_dt:
        Virtual-sensor integration/sampling step (s) for streamed runs.
    coalesce_window_ms:
        How long the dispatcher lingers after popping a job to let a
        burst pile up behind it before draining the queue into a
        coalesced batch (``0`` = drain only what is already queued).
        Only meaningful with ``max_batch > 1``.
    max_batch:
        Most jobs one worker-pool dispatch may solve as a coalesced
        group.  ``1`` (the default) disables coalescing: every dispatch
        is a group of one, the benchmark baseline.  Drained jobs are
        grouped by thermal-model identity (same scenario geometry, or
        same named SoC) and effective timeout; each group becomes one
        executor task that solves its jobs one after another over the
        worker's model-cache entry.  Per-job outcomes are bit-identical
        to solo solves.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "thread",
        max_workers: int | None = None,
        cache: ThermalModelCache | None = None,
        use_cache: bool = True,
        queue_size: int = 128,
        default_timeout_s: float | None = None,
        archive: "ReportArchive | str | Path | None" = None,
        min_workers: int | None = None,
        scale_down_idle_s: float = 2.0,
        worker_pool: AdaptiveWorkerPool | None = None,
        shed_watermark: int | None = None,
        answer_cache: AnswerCache | None = None,
        answer_cache_size: int = 256,
        answer_ttl_s: float | None = 300.0,
        warm_from: "str | Path | None" = None,
        logger: JsonLogger | None = None,
        slow_request_ms: float | None = None,
        histograms: HistogramRegistry | None = None,
        reactive_guard: GuardConfig | None = None,
        reactive_config: ReactiveConfig | None = None,
        reactive_dt: float = 5e-3,
        coalesce_window_ms: float = 0.0,
        max_batch: int = 1,
    ) -> None:
        if isinstance(backend, ExecutionBackend):
            self._backend = backend
        else:
            self._backend = create_backend(backend, max_workers=max_workers)
        if queue_size < 1:
            raise ServiceError(f"queue_size must be >= 1, got {queue_size!r}")
        if default_timeout_s is not None and default_timeout_s <= 0.0:
            raise ServiceError(
                f"default_timeout_s must be positive, got {default_timeout_s!r}"
            )
        if shed_watermark is not None and not (
            1 <= shed_watermark <= queue_size
        ):
            raise ServiceError(
                f"shed_watermark must be within [1, queue_size={queue_size}], "
                f"got {shed_watermark!r}"
            )
        self._use_cache = use_cache
        self._cache = (
            resolve_cache(cache, use_cache)
            if self._backend.shares_memory
            else None
        )
        self._queue_size = queue_size
        self._default_timeout_s = default_timeout_s
        self._shed_watermark = shed_watermark
        if archive is not None and not isinstance(archive, ReportArchive):
            archive = ReportArchive(archive)
        self._archive = archive
        if worker_pool is not None:
            self._pool = worker_pool
        else:
            self._pool = AdaptiveWorkerPool(
                min_workers=(
                    self._backend.max_workers
                    if min_workers is None
                    else min_workers
                ),
                max_workers=self._backend.max_workers,
                scale_down_idle_s=scale_down_idle_s,
            )
        if self._pool.max_workers > self._backend.max_workers:
            raise ServiceError(
                f"worker pool max ({self._pool.max_workers}) exceeds the "
                f"backend's {self._backend.max_workers} workers"
            )
        if answer_cache_size < 0:
            raise ServiceError(
                f"answer_cache_size must be >= 0 (0 disables), "
                f"got {answer_cache_size!r}"
            )
        if answer_cache is not None:
            self._answer_cache: AnswerCache | None = answer_cache
        elif answer_cache_size > 0:
            self._answer_cache = AnswerCache(
                max_entries=answer_cache_size, ttl_s=answer_ttl_s
            )
        else:
            self._answer_cache = None
        if warm_from is not None and self._answer_cache is None:
            raise ServiceError(
                "warm_from needs the answer cache; do not combine it with "
                "answer_cache_size=0"
            )
        self._warm_from = warm_from
        #: The cache outlives stop(); warm only the first start, or a
        #: restart would re-decode the whole archive, refresh TTLs and
        #: double-count the warmed stat.
        self._warmed_once = False

        if slow_request_ms is not None and slow_request_ms <= 0.0:
            raise ServiceError(
                f"slow_request_ms must be positive, got {slow_request_ms!r}"
            )
        self._latency = (
            histograms if histograms is not None else HistogramRegistry()
        )
        # Pre-create the families so an idle service's metrics
        # exposition already lists every histogram at zero.
        for family in LATENCY_FAMILIES + DWELL_FAMILIES + BATCH_FAMILIES:
            self._latency.histogram(family)
        if reactive_dt <= 0.0:
            raise ServiceError(
                f"reactive_dt must be positive, got {reactive_dt!r}"
            )
        if max_batch < 1:
            raise ServiceError(
                f"max_batch must be >= 1 (1 disables coalescing), "
                f"got {max_batch!r}"
            )
        if coalesce_window_ms < 0.0:
            raise ServiceError(
                f"coalesce_window_ms must be >= 0, "
                f"got {coalesce_window_ms!r}"
            )
        self._max_batch = max_batch
        self._coalesce_window_s = coalesce_window_ms / 1e3
        self._reactive_guard = reactive_guard
        self._reactive_config = reactive_config
        self._reactive_dt = reactive_dt
        if logger is None and slow_request_ms is not None:
            logger = JsonLogger()  # slow-request logging needs a sink
        self._logger = logger
        self._slow_request_s = (
            None if slow_request_ms is None else slow_request_ms / 1e3
        )

        self._started = False
        self._accepting = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: "asyncio.Queue[ServiceJob]" | None = None
        self._executor = None
        self._dispatcher: asyncio.Task | None = None
        self._heartbeat: asyncio.Task | None = None
        #: Everything a drain must wait for: job tasks + archive appends.
        self._tasks: set[asyncio.Task] = set()
        #: Job tasks only — the `in_flight` metric must count jobs
        #: occupying workers, not background archive writes.
        self._job_tasks: set[asyncio.Task] = set()
        self._inflight: dict[str, ServiceJob] = {}
        self._started_at = 0.0

        self._submitted = 0  # guarded-by: event-loop
        self._deduped = 0  # guarded-by: event-loop
        self._completed = 0  # guarded-by: event-loop
        self._errors = 0  # guarded-by: event-loop
        self._timeouts = 0  # guarded-by: event-loop
        self._rejected = 0  # guarded-by: event-loop
        self._shed = 0  # guarded-by: event-loop
        self._answer_hits = 0  # guarded-by: event-loop
        self._solves_started = 0  # guarded-by: event-loop
        self._solves_completed = 0  # guarded-by: event-loop
        self._cache_hits = 0  # guarded-by: event-loop
        self._coalesced_batches = 0  # guarded-by: event-loop
        self._coalesced_solves = 0  # guarded-by: event-loop
        self._archive_errors = 0  # guarded-by: event-loop
        self._reactive_runs = 0  # guarded-by: event-loop
        self._guard_transitions = 0  # guarded-by: event-loop
        self._reactive_throttles = 0  # guarded-by: event-loop
        self._reactive_pauses = 0  # guarded-by: event-loop
        self._reactive_errors = 0  # guarded-by: event-loop

    # -- properties --------------------------------------------------------------------

    @property
    def backend(self) -> ExecutionBackend:
        """The engine backend providing the worker pool."""
        return self._backend

    @property
    def cache(self) -> ThermalModelCache | None:
        """The shared model cache (``None`` for process workers)."""
        return self._cache

    @property
    def answer_cache(self) -> AnswerCache | None:
        """The TTL answer cache (``None`` when disabled)."""
        return self._answer_cache

    @property
    def worker_pool(self) -> AdaptiveWorkerPool:
        """The adaptive admission gate in front of the executor."""
        return self._pool

    @property
    def archive(self) -> ReportArchive | None:
        """The JSONL archive resolved outcomes are appended to."""
        return self._archive

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._started

    @property
    def latency_histograms(self) -> HistogramRegistry:
        """The latency histogram registry."""
        return self._latency

    def describe_config(self) -> str:
        """One-line static configuration (the serve banner's body).

        Shared with the CLI so the banner cannot drift from the
        service's actual knobs.
        """
        pool = self._pool
        if pool.min_workers != pool.max_workers:
            workers = f"{pool.min_workers}..{pool.max_workers} workers"
        else:
            workers = f"{pool.max_workers} workers"
        cache = self._answer_cache
        if cache is None:
            answers = "answer cache off"
        else:
            ttl = (
                "no TTL" if cache.ttl_s is None else f"TTL {cache.ttl_s:g} s"
            )
            answers = f"answer cache {len(cache)}/{cache.max_entries} ({ttl})"
        coalesce = ""
        if self._max_batch > 1:
            coalesce = (
                f", coalesce <={self._max_batch} jobs"
                f"/{self._coalesce_window_s * 1e3:g} ms"
            )
        return (
            f"backend {self._backend.name!r}, {workers}, "
            f"queue {self._queue_size}, {answers}{coalesce}"
        )

    def _log_event(self, event: str, **fields: Any) -> None:
        if self._logger is not None:
            self._logger.log(event, **fields)

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        """Bring up the queue, the dispatcher and the worker pool.

        With ``warm_from`` set, the answer cache is populated from the
        archive first (on an executor thread — decoding revalidates
        every schedule), so the very first request can already hit.
        """
        if self._started:
            raise ServiceError("service is already started")
        self._loop = asyncio.get_running_loop()
        if self._warm_from is not None and not self._warmed_once:
            assert self._answer_cache is not None
            await self._loop.run_in_executor(
                None,
                partial(
                    warm_cache_from_archive, self._answer_cache, self._warm_from
                ),
            )
            self._warmed_once = True
        self._queue = asyncio.Queue(maxsize=self._queue_size)
        self._executor = self._backend.create_executor()
        if self._pool.min_workers < self._pool.max_workers:
            # Submissions/completions stop observing when traffic stops;
            # the heartbeat keeps feeding the pool so the documented
            # idle scale-down happens even on a silent service.
            self._heartbeat = asyncio.create_task(self._scale_heartbeat())
        if self._backend.shares_memory:
            self._worker = partial(solve_requests, cache=self._cache)
        else:
            self._worker = partial(process_solve, use_cache=self._use_cache)
        self._started_at = time.perf_counter()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._accepting = True
        self._started = True

    async def stop(self, drain: bool = True) -> None:
        """Shut down; idempotent.

        Parameters
        ----------
        drain:
            ``True`` (default) finishes every queued and in-flight job
            before returning; ``False`` fails queued jobs with
            :class:`~repro.errors.ServiceClosedError` and only waits for
            the solves already on workers (a pool cannot abandon them
            mid-solve without leaking the worker).

        Either way, on return no pending futures remain and the
        executor is joined.
        """
        if not self._started:
            return
        self._accepting = False
        assert self._queue is not None and self._loop is not None
        if drain:
            while self._inflight or not self._queue.empty() or self._tasks:
                await asyncio.sleep(0.01)
        else:
            while not self._queue.empty():
                job = self._queue.get_nowait()
                self._inflight.pop(job.key, None)
                if not job.future.done():
                    job.future.set_exception(
                        ServiceClosedError("service stopped before this job ran")
                    )
            # Finishing jobs may spawn archive-append tasks; loop until
            # genuinely quiet.
            while self._tasks:
                await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
            # A submitter may have been awaiting queue space when we
            # flushed; fail whatever is left unresolved.
            for job in list(self._inflight.values()):
                if not job.future.done():
                    job.future.set_exception(
                        ServiceClosedError("service stopped before this job ran")
                    )
            self._inflight.clear()
        assert self._dispatcher is not None
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            try:
                await self._heartbeat
            except asyncio.CancelledError:
                pass
            self._heartbeat = None
        # shutdown(wait=True) blocks until zombie (timed-out) solves
        # finish; hop to a helper thread so the loop stays responsive.
        executor = self._executor
        await self._loop.run_in_executor(
            None, partial(executor.shutdown, wait=True)
        )
        self._started = False

    async def __aenter__(self) -> "ScheduleService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=True)

    # -- submission --------------------------------------------------------------------

    def _cached_job(
        self, request: ScheduleRequest, key: str, outcome: SolveOutcome
    ) -> ServiceJob:
        """A pre-resolved job carrying the answer cache's outcome.

        The stored outcome is re-stamped with ``cached=True`` on every
        hit, so provenance survives the wire and the client can tell a
        memory answer from a fresh solve.
        """
        assert self._loop is not None
        assert outcome.report is not None
        served = dataclasses.replace(
            outcome, report=dataclasses.replace(outcome.report, cached=True)
        )
        job = ServiceJob(request, key, None, self._loop.create_future())
        job.future.set_result(served)
        self._submitted += 1
        self._answer_hits += 1
        return job

    def _prepare(
        self, request: ScheduleRequest, timeout_s: float | None
    ) -> tuple[ServiceJob, bool]:
        if not isinstance(request, ScheduleRequest):
            raise ServiceError(
                f"submit() takes a ScheduleRequest, got {type(request).__name__}"
            )
        if not self._started or not self._accepting:
            raise ServiceClosedError("service is not accepting requests")
        if timeout_s is not None and timeout_s <= 0.0:
            raise ServiceError(f"timeout_s must be positive, got {timeout_s!r}")
        key = request.content_hash()
        # Answer cache first: a stored answer needs no queue slot, no
        # worker and no dedup bookkeeping.  (An expired entry reports a
        # miss and falls through to a fresh solve — never served stale.)
        if self._answer_cache is not None:
            lookup_start = time.perf_counter()
            stored = self._answer_cache.get(key)
            if stored is not None:
                job = self._cached_job(request, key, stored)
                hit_s = time.perf_counter() - lookup_start
                self._latency.observe("answer_hit", hit_s)
                # e2e covers *every* answered submission; hits are
                # what makes its distribution bimodal.
                self._latency.observe("e2e", hit_s)
                self._log_event(
                    "request_cache_hit",
                    request_hash=key,
                    solver=request.solver,
                )
                return job, False
        existing = self._inflight.get(key)
        if existing is not None:
            self._submitted += 1
            self._deduped += 1
            existing.waiters += 1
            self._log_event(
                "request_deduped",
                request_hash=key,
                solver=request.solver,
                waiters=existing.waiters,
            )
            return existing, False
        if (
            self._shed_watermark is not None
            and self._queue is not None
            and self._queue.qsize() >= self._shed_watermark
        ):
            self._rejected += 1
            self._shed += 1
            self._log_event(
                "request_shed",
                request_hash=key,
                solver=request.solver,
                queue_depth=self._queue.qsize(),
            )
            raise ServiceBusyError(
                f"job queue depth reached the shed watermark "
                f"({self._shed_watermark}); retry later",
                retry_after_s=self._busy_retry_after_s(),
            )
        assert self._loop is not None
        job = ServiceJob(
            request,
            key,
            self._default_timeout_s if timeout_s is None else timeout_s,
            self._loop.create_future(),
        )
        self._inflight[key] = job
        self._submitted += 1
        self._log_event(
            "request_admitted",
            request_hash=key,
            solver=request.solver,
            timeout_s=job.timeout_s,
            queue_depth=self._queue.qsize() if self._queue is not None else 0,
        )
        return job, True

    def _busy_retry_after_s(self) -> float:
        """Backoff hint for busy rejections: roughly one queue drain.

        Queue depth over current worker concurrency, scaled by the
        median solve latency (0.5 s when no solve has been timed yet),
        clamped to [0.05 s, 30 s].  Deliberately rough — the point is
        that the *server* knows its own backlog better than a client's
        blind exponential schedule does.
        """
        depth = (
            self._queue.qsize() if self._queue is not None else self._queue_size
        )
        workers = max(1, self._pool.current_workers)
        solve = self._latency.snapshot().get("solve") or {}
        p50 = solve.get("p50")
        # Explicit None check: ``or`` would throw away a *measured*
        # median of exactly 0.0 s (sub-resolution solves) and inflate
        # the hint with the 0.5 s prior; only an absent quantile may
        # fall back.
        per_solve = 0.5 if p50 is None else p50
        return min(max(max(depth, 1) / workers * per_solve, 0.05), 30.0)

    async def submit(
        self,
        request: ScheduleRequest,
        *,
        timeout_s: float | None = None,
        stream: bool = False,
    ) -> ServiceJob:
        """Enqueue a request, awaiting queue space if the service is full.

        Identical in-flight requests (same content hash) share one
        :class:`ServiceJob`; the returned job may therefore already be
        running — or even already done.

        With ``stream=True`` the job runs the closed-loop reactive
        phase once its solve resolves ok, broadcasting the event
        timeline to every queue obtained via :meth:`ServiceJob.subscribe`
        (call it right after this method returns, before any await).
        """
        job, fresh = self._prepare(request, timeout_s)
        if stream:
            job.streaming = True
            if job.future.done():
                # Answer-cache hit (or attach to an already-finished
                # job): _finish will not run again, so the reactive
                # phase must be scheduled here.
                self._ensure_reactive(job)
        if fresh:
            assert self._queue is not None
            try:
                await self._queue.put(job)
                self._pool.observe(self._queue.qsize())
            except asyncio.CancelledError:
                # The caller was cancelled while waiting for queue
                # space.  Other clients may have dedup-attached to this
                # job in the meantime; their answers must not die with
                # the canceller, so if space has freed up the job is
                # queued on their behalf (the cancelled submission
                # stays counted — the solve it owns will happen).
                if (
                    job.waiters
                    and self._accepting
                    and self._inflight.get(job.key) is job
                ):
                    try:
                        self._queue.put_nowait(job)
                    except asyncio.QueueFull:
                        pass
                    else:
                        self._pool.observe(self._queue.qsize())
                        raise
                # Abandoned for real: the job never reached the queue,
                # so it must not linger in the dedup map (later
                # identical requests would attach to a solve that will
                # never run, and drain would wait on it forever), and
                # it must not count as submitted —
                # ``submitted == solves_started + deduped + answer_hits``
                # is the invariant the stats frame advertises.
                self._submitted -= 1
                if job.waiters and self._accepting:
                    # Waiters on a *running* service receive busy
                    # errors ("retry" is honest advice): they move
                    # from the dedup tally to the rejected one, like
                    # any other ServiceBusyError refusal.  On a
                    # stopping service they get ServiceClosedError
                    # below instead — telling them to retry against a
                    # draining service would be a lie, and shutdown
                    # fallout must not pollute the load-shedding gauge.
                    self._submitted -= job.waiters
                    self._deduped -= job.waiters
                    self._rejected += job.waiters
                if self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
                if not job.future.done():
                    job.future.set_exception(
                        ServiceBusyError(
                            "the queue was full and the originating "
                            "submission was cancelled before this request "
                            "could be queued; retry",
                            retry_after_s=self._busy_retry_after_s(),
                        )
                        if job.waiters and self._accepting
                        else ServiceClosedError(
                            "submission cancelled before it was queued"
                        )
                    )
                    job.future.exception()  # retrieved: no GC warning
                raise
        return job

    def submit_nowait(
        self,
        request: ScheduleRequest,
        *,
        timeout_s: float | None = None,
        stream: bool = False,
    ) -> ServiceJob:
        """Enqueue a request or raise :class:`ServiceBusyError` if full.

        Dedup-attached submissions never count against the queue bound
        (they occupy no new slot).  ``stream=True`` behaves exactly as
        on :meth:`submit`: the job runs the closed-loop reactive phase
        once its solve resolves ok — including the answer-cache-hit
        and attached-to-finished-job cases, whose futures are already
        done when this method returns.
        """
        job, fresh = self._prepare(request, timeout_s)
        if stream:
            job.streaming = True
            if job.future.done():
                # Answer-cache hit (or attach to an already-finished
                # job): _finish will not run again, so the reactive
                # phase must be scheduled here.
                self._ensure_reactive(job)
        if fresh:
            assert self._queue is not None
            try:
                self._queue.put_nowait(job)
                self._pool.observe(self._queue.qsize())
            except asyncio.QueueFull:
                self._inflight.pop(job.key, None)
                self._submitted -= 1
                self._rejected += 1
                raise ServiceBusyError(
                    f"job queue is full ({self._queue_size} waiting); "
                    f"retry later or use the awaiting submit path",
                    retry_after_s=self._busy_retry_after_s(),
                ) from None
        return job

    async def solve(
        self, request: ScheduleRequest, *, timeout_s: float | None = None
    ) -> SolveReport:
        """Submit and await in one call; solve failures raise."""
        job = await self.submit(request, timeout_s=timeout_s)
        return await job.report()

    # -- dispatch ----------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            # Acquire the worker slot *before* popping, so jobs stay in
            # the queue (and count against its bound) until a worker is
            # genuinely free — total admitted work is at most
            # ``max_workers + queue_size``.  While this loop is parked
            # on an empty queue the claimed slot is flagged as idle, so
            # the pool's scaling policy counts it as spare capacity
            # rather than as a busy worker.
            await self._pool.acquire()
            self._pool.mark_idle_claim()
            try:
                job = await self._queue.get()
            except asyncio.CancelledError:
                # stop() cancels this loop while it holds an idle slot;
                # the pool outlives the stop (unlike the per-start
                # queue), so the slot must go back or a later start()
                # would find it permanently leaked.
                self._pool.clear_idle_claim()
                self._pool.release()
                raise
            self._pool.clear_idle_claim()
            await self._dispatch(job)

    def _spawn_job_task(self, coro: "Any") -> None:
        """Track one group task for drain and ``in_flight``."""
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        self._job_tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(self._job_tasks.discard)

    @staticmethod
    def _coalesce_key(job: ServiceJob) -> tuple:
        """Compatibility class of one job for batch grouping.

        Coarser than the request's content hash: everything that maps
        to the same thermal *network* (same scenario geometry, or the
        same named SoC) shares one model-cache entry, so requests
        differing only in limits, solver or power inputs still
        coalesce.  The effective timeout joins the key because a group
        runs under a single deadline.
        """
        request = job.request
        if request.scenario is not None:
            thermal: tuple = ("scenario",) + request.scenario.thermal_key()
        else:
            thermal = ("soc", request.soc)
        return thermal + (job.timeout_s,)

    async def _dispatch(self, first: ServiceJob) -> None:
        """Drain compatible neighbours of one popped job; dispatch groups.

        Called with *first* already popped and its worker slot held.
        With ``max_batch > 1`` it lingers up to the coalesce window for
        a burst to pile up, then drains whatever is queued (at most
        ``max_batch`` jobs in hand) and groups by :meth:`_coalesce_key`;
        with ``max_batch == 1`` *first* is a group of one.  Each group
        is one executor task.  The first group rides the already-held
        slot; every further group acquires its own, so coalescing never
        exceeds the pool's admission target.
        """
        assert self._queue is not None
        pending: list[ServiceJob] = [first]
        slot_held = True
        try:
            if (
                self._coalesce_window_s > 0.0
                and self._queue.qsize() + 1 < self._max_batch
            ):
                await asyncio.sleep(self._coalesce_window_s)
            while len(pending) < self._max_batch:
                try:
                    pending.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            groups: "dict[tuple, list[ServiceJob]]" = {}
            for job in pending:
                groups.setdefault(self._coalesce_key(job), []).append(job)
            for jobs in list(groups.values()):
                if not slot_held:
                    await self._pool.acquire()
                slot_held = False
                for job in jobs:
                    pending.remove(job)
                if self._max_batch > 1:
                    self._latency.observe("batch_size", float(len(jobs)))
                if len(jobs) > 1:
                    self._coalesced_batches += 1
                    self._coalesced_solves += len(jobs)
                self._spawn_job_task(self._run_group(jobs))
        except asyncio.CancelledError:
            # Only stop() cancels the dispatcher, and a drain waits for
            # in-flight jobs first — so this fires only on
            # stop(drain=False), with jobs in hand that already left
            # the queue.  They must be answered here or their futures
            # would dangle past stop()'s no-pending-futures promise.
            if slot_held:
                self._pool.release()
            for job in pending:
                self._inflight.pop(job.key, None)
                if not job.future.done():
                    job.future.set_exception(
                        ServiceClosedError(
                            "service stopped before this job ran"
                        )
                    )
                    job.future.exception()  # retrieved: no GC warning
            raise

    async def _scale_heartbeat(self) -> None:
        """Periodic pool observation for adaptive bands.

        Half the idle hysteresis per tick: frequent enough that the
        scale-down window is honoured within ~1.5x its nominal value,
        rare enough to be free.
        """
        interval = max(0.05, self._pool.scale_down_idle_s / 2.0)
        while True:
            await asyncio.sleep(interval)
            if self._queue is not None:
                self._pool.observe(self._queue.qsize())

    def _release_slot(self) -> None:
        """Give a worker slot back and feed the pool an observation."""
        self._pool.release()
        if self._queue is not None:
            self._pool.observe(self._queue.qsize())

    async def _run_group(self, jobs: "list[ServiceJob]") -> None:
        """Run one group (of one or more jobs) as a single executor task.

        The group is the unit of execution — one worker slot, one
        executor dispatch, one deadline (the jobs share a timeout; the
        coalesce key pins it) — while the accounting stays per job:
        every member counts in ``solves_started``/``solves_completed``,
        observes its own ``queue_wait``, and resolves through its own
        :meth:`_finish` with its own outcome.  The worker answers
        per request, so a mid-group infeasible request errors alone.
        """
        assert self._loop is not None
        self._solves_started += len(jobs)
        now = time.perf_counter()
        for job in jobs:
            job.queue_wait_s = now - job.submitted_at
            self._latency.observe("queue_wait", job.queue_wait_s)
        requests = [job.request for job in jobs]
        try:
            worker_future = self._loop.run_in_executor(
                self._executor, self._worker, requests
            )
        except Exception as exc:  # executor refused (shutting down, ...)
            self._release_slot()
            for job in jobs:
                self._finish(job, error_outcome(exc, 0.0))
            return
        timeout_s = jobs[0].timeout_s
        slot_released = False
        try:
            if timeout_s is not None:
                try:
                    outcomes = await asyncio.wait_for(
                        asyncio.shield(worker_future), timeout_s
                    )
                except asyncio.TimeoutError:
                    # The whole group shares the zombie worker; every
                    # member times out and the done-callback frees the
                    # slot and counts all of them when it finishes.
                    self._timeouts += len(jobs)
                    slot_released = True
                    worker_future.add_done_callback(
                        partial(self._zombie_group_done, len(jobs))
                    )
                    for job in jobs:
                        self._finish(
                            job,
                            SolveOutcome(
                                status="error",
                                report=None,
                                error=(
                                    f"TimeoutError: solve exceeded its "
                                    f"{timeout_s:g} s budget"
                                ),
                                error_type="TimeoutError",
                                elapsed_s=timeout_s,
                            ),
                        )
                    return
            else:
                outcomes = await worker_future
        except Exception as exc:  # pool failure: broken pool, pickling, ...
            outcomes = [error_outcome(exc, 0.0) for _ in jobs]
        finally:
            if not slot_released:
                self._release_slot()
        self._solves_completed += len(jobs)
        for job, outcome in zip(jobs, outcomes):
            self._finish(job, outcome)

    def _zombie_group_done(
        self, size: int, future: "asyncio.Future"
    ) -> None:
        self._release_slot()
        self._solves_completed += size
        if not future.cancelled():
            future.exception()  # retrieve, silencing the loop's warning

    def _finish(self, job: ServiceJob, outcome: SolveOutcome) -> None:
        self._inflight.pop(job.key, None)
        e2e_s = time.perf_counter() - job.submitted_at
        outcome = self._stamp_timings(job, outcome, e2e_s)
        self._latency.observe("e2e", e2e_s)
        if outcome.ok:
            self._latency.observe("solve", outcome.elapsed_s)
            self._completed += 1
            if outcome.cache_hit:
                self._cache_hits += 1
            if self._answer_cache is not None:
                self._answer_cache.put(job.key, outcome)
        else:
            self._errors += 1
        self._log_finished(job, outcome, e2e_s)
        if self._archive is not None:
            self._schedule_archive_append(job, outcome)
        if not job.future.done():
            job.future.set_result(outcome)
        if job.streaming:
            self._ensure_reactive(job)

    def _stamp_timings(
        self, job: ServiceJob, outcome: SolveOutcome, e2e_s: float
    ) -> SolveOutcome:
        """Re-stamp an ok outcome's report with the service-side phases.

        ``queue_wait`` and ``service_total`` join the worker-side
        phases on the report, so the answer cache (and hence every
        later hit) serves the original solve's full trace.
        """
        if not outcome.ok or outcome.report is None:
            return outcome
        timings = dict(outcome.report.timings or {})
        if job.queue_wait_s is not None:
            timings["queue_wait"] = job.queue_wait_s
        timings["service_total"] = e2e_s
        return dataclasses.replace(
            outcome,
            report=dataclasses.replace(outcome.report, timings=timings),
        )

    def _log_finished(
        self, job: ServiceJob, outcome: SolveOutcome, e2e_s: float
    ) -> None:
        if self._logger is None:
            return
        timings = (
            dict(outcome.report.timings)
            if outcome.ok
            and outcome.report is not None
            and outcome.report.timings is not None
            else None
        )
        event = (
            "request_timed_out"
            if outcome.error_type == "TimeoutError"
            else "request_completed"
        )
        self._log_event(
            event,
            request_hash=job.key,
            solver=job.request.solver,
            status=outcome.status,
            error_type=outcome.error_type,
            waiters=job.waiters,
            queue_wait_s=job.queue_wait_s,
            solve_s=outcome.elapsed_s,
            e2e_s=e2e_s,
            timings=timings,
        )
        if self._slow_request_s is not None and e2e_s >= self._slow_request_s:
            self._log_event(
                "slow_request",
                request_hash=job.key,
                solver=job.request.solver,
                threshold_ms=self._slow_request_s * 1e3,
                e2e_s=e2e_s,
                timings=timings,
            )

    def _schedule_archive_append(
        self, job: ServiceJob, outcome: SolveOutcome
    ) -> None:
        """Append to the archive off the event loop.

        Per-record file I/O on the loop thread would stall every
        connection on disk latency; the write runs on the loop's
        default thread pool instead.  The task joins ``self._tasks``
        so a drain flushes the archive before :meth:`stop` returns,
        and a failing disk only bumps a counter — it must not take
        the service down.
        """
        assert self._loop is not None and self._archive is not None

        async def _append() -> None:
            append_start = time.perf_counter()
            try:
                await self._loop.run_in_executor(
                    None,
                    partial(
                        self._archive.append_outcome,
                        job.request,
                        outcome,
                        request_hash=job.key,
                    ),
                )
            except Exception:
                self._archive_errors += 1
            else:
                self._latency.observe(
                    "archive_append", time.perf_counter() - append_start
                )

        task = asyncio.create_task(_append())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- reactive streaming ------------------------------------------------------------

    def _ensure_reactive(self, job: ServiceJob) -> None:
        """Schedule the job's reactive phase exactly once (loop only)."""
        if job.reactive_task is not None:
            return
        task = asyncio.create_task(self._reactive_pump(job))
        job.reactive_task = task
        # Joined by drain: a stop() must not cut a watcher's stream.
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _broadcast(self, job: ServiceJob, event: dict[str, Any]) -> None:
        for queue in job.streams:
            queue.put_nowait(event)

    async def _reactive_pump(self, job: ServiceJob) -> None:
        """Run the closed-loop phase off-loop; stream its timeline.

        The executor runs on a thread (`run_in_executor`) — transient
        solves would stall the event loop.  Events cross back via
        ``call_soon_threadsafe``; because loop callbacks are FIFO, all
        of them land before the executor future resumes this coroutine,
        so the ``None`` sentinel is always last.
        """
        assert self._loop is not None
        try:
            outcome = job.future.result()
            if outcome.ok and outcome.report is not None:
                stored: ReactiveRunReport | None = None
                if outcome.report.cached and self._answer_cache is not None:
                    stored = self._answer_cache.reactive_report(job.key)
                if stored is not None:
                    # Answer-cache hit with its timeline on record: the
                    # run is deterministic, so replaying the stored
                    # events is indistinguishable from re-simulating —
                    # minus the entire closed-loop transient cost.  A
                    # replay is not a new reactive run, so the run
                    # counters and dwell histograms stay untouched.
                    for event in stored.events:
                        self._broadcast(job, event.to_dict())
                    return
                loop = self._loop

                def forward(event: ReactiveEvent) -> None:
                    loop.call_soon_threadsafe(
                        self._broadcast, job, event.to_dict()
                    )

                report = await loop.run_in_executor(
                    None,
                    partial(
                        run_schedule_result,
                        outcome.report.result,
                        guard_config=self._reactive_guard,
                        config=self._reactive_config,
                        dt=self._reactive_dt,
                        on_event=forward,
                    ),
                )
                self._record_reactive(report)
                if self._answer_cache is not None:
                    # Keep the timeline beside the cached answer so the
                    # next hit on this key streams from memory.
                    self._answer_cache.put_reactive(job.key, report)
        except Exception as exc:
            self._reactive_errors += 1
            self._broadcast(
                job,
                {
                    "kind": "reactive_error",
                    "detail": f"{type(exc).__name__}: {exc}",
                },
            )
            self._log_event(
                "reactive_failed", request_hash=job.key, error=str(exc)
            )
        finally:
            self._broadcast_sentinel(job)

    def _broadcast_sentinel(self, job: ServiceJob) -> None:
        for queue in job.streams:
            queue.put_nowait(None)

    def _record_reactive(self, report: ReactiveRunReport) -> None:
        """Merge one reactive run into counters and dwell histograms."""
        self._reactive_runs += 1
        self._guard_transitions += sum(report.guard_transitions.values())
        self._reactive_throttles += report.throttles
        self._reactive_pauses += report.pauses
        for state, seconds in report.dwell_s.items():
            self._latency.observe(f"dwell_{state}", seconds)

    # -- metrics -----------------------------------------------------------------------

    def metrics(self) -> ServiceMetrics:
        """A point-in-time operational snapshot.

        When called on the service's event loop it also feeds the
        adaptive pool one load observation, sharpening the idle
        scale-down the background heartbeat already guarantees.  Called
        from any other thread it is a pure read — the pool's waiter
        future is loop-private state a foreign thread must not touch.
        """
        uptime = time.perf_counter() - self._started_at if self._started_at else 0.0
        answered = (
            self._completed + self._errors + self._answer_hits + self._deduped
        )
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        if self._started:
            try:
                on_loop = asyncio.get_running_loop() is self._loop
            except RuntimeError:
                on_loop = False
            if on_loop:
                self._pool.observe(queue_depth)
        return ServiceMetrics(
            backend=self._backend.name,
            workers=self._pool.max_workers,
            min_workers=self._pool.min_workers,
            current_workers=self._pool.current_workers,
            scale_ups=self._pool.scale_ups,
            scale_downs=self._pool.scale_downs,
            queue_capacity=self._queue_size,
            queue_depth=queue_depth,
            in_flight=len(self._job_tasks),
            submitted=self._submitted,
            answer_hits=self._answer_hits,
            deduped=self._deduped,
            completed=self._completed,
            errors=self._errors,
            timeouts=self._timeouts,
            rejected=self._rejected,
            shed=self._shed,
            solves_started=self._solves_started,
            solves_completed=self._solves_completed,
            cache_hits=self._cache_hits,
            coalesced_batches=self._coalesced_batches,
            coalesced_solves=self._coalesced_solves,
            reactive_runs=self._reactive_runs,
            guard_transitions=self._guard_transitions,
            reactive_throttles=self._reactive_throttles,
            reactive_pauses=self._reactive_pauses,
            uptime_s=uptime,
            requests_per_s=answered / uptime if uptime > 0.0 else 0.0,
            cache=self._cache.stats if self._cache is not None else None,
            answer_cache=(
                self._answer_cache.stats
                if self._answer_cache is not None
                else None
            ),
            latency=self._latency.snapshot(),
        )

    def metrics_text(self) -> str:
        """Prometheus text exposition (the ``metrics`` frame's payload)."""
        return render_metrics_text(self.metrics())
