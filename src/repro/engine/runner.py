"""The batch runner: fan jobs out over a backend, aggregate, persist.

A fleet maps job ids to :class:`~repro.api.ScheduleRequest` objects.
:class:`BatchRunner` runs each job as a group of one through the
scheduling service's worker path
(:func:`~repro.service.execution.solve_requests`, or its picklable
:func:`~repro.service.execution.process_solve` on the process backend),
which never raises — infeasible scenarios become ``status="error"``
outcomes instead of killing the fleet.  It returns a
:class:`BatchResult` with the per-job outcomes plus the aggregate
timing, simulation-effort and cache statistics, and can archive the
outcomes as JSONL in the service's record format
(:func:`~repro.service.archive.outcome_record` plus ``job_id``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from ..core.serialize import dump_jsonl, iter_jsonl
from ..errors import ReproError, SchedulingError
from .backends import ExecutionBackend, create_backend
from .cache import CacheStats, ThermalModelCache, resolve_cache

if TYPE_CHECKING:
    from ..api.request import ScheduleRequest, SolveReport
    from ..service.execution import SolveOutcome

    #: One batch job: the request it asked and the outcome it got.
    BatchJob = tuple[ScheduleRequest, SolveOutcome]


def _describe_job(job_id: str, outcome: SolveOutcome) -> str:
    """One-line human-readable job summary."""
    if outcome.report is not None:
        result = outcome.report.result
        body = (
            f"length {result.length_s:g} s in {result.n_sessions} sessions, "
            f"effort {result.effort_s:g} s, {outcome.steady_solves} solves"
        )
    else:
        body = f"ERROR: {outcome.error}"
    cache = "hit" if outcome.cache_hit else "miss"
    return f"{job_id}: {body} [{outcome.elapsed_s * 1e3:.1f} ms, cache {cache}]"


@dataclass(frozen=True)
class BatchResult:
    """Everything a batch run produced.

    Attributes
    ----------
    results:
        Job id -> (request, outcome), in submission order — the shape
        :func:`load_batch_jsonl` reads an archive back as.
    backend:
        Backend name used.
    workers:
        Worker count of the backend.
    wall_s:
        Wall-clock time of the whole fan-out.
    cache_stats:
        Snapshot of the shared in-process cache (``None`` for backends
        with per-process caches; use the per-job ``cache_hit`` flags,
        aggregated below, which work for every backend).
    """

    results: Mapping[str, BatchJob]
    backend: str
    workers: int
    wall_s: float
    cache_stats: CacheStats | None = None

    # -- structure ----------------------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Total jobs executed."""
        return len(self.results)

    @property
    def ok(self) -> dict[str, BatchJob]:
        """Jobs that produced a schedule."""
        return {k: job for k, job in self.results.items() if job[1].ok}

    @property
    def failed(self) -> dict[str, BatchJob]:
        """Jobs that ended in an error outcome."""
        return {k: job for k, job in self.results.items() if not job[1].ok}

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __getitem__(self, job_id: str) -> BatchJob:
        try:
            return self.results[job_id]
        except KeyError:
            raise SchedulingError(f"no job {job_id!r} in this batch") from None

    # -- aggregate metrics ---------------------------------------------------------

    def _outcomes(self) -> Iterator[SolveOutcome]:
        return (outcome for _, outcome in self.results.values())

    def _reports(self) -> Iterator[SolveReport]:
        return (o.report for o in self._outcomes() if o.report is not None)

    @property
    def cache_hits(self) -> int:
        """Jobs whose thermal model came out of a cache (any backend)."""
        return sum(1 for o in self._outcomes() if o.cache_hit)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of jobs served from a model cache."""
        return self.cache_hits / self.n_jobs if self.results else 0.0

    @property
    def total_length_s(self) -> float:
        """Summed schedule length over successful jobs (s)."""
        return math.fsum(report.length_s for report in self._reports())

    @property
    def total_effort_s(self) -> float:
        """Summed simulation effort over successful jobs (s)."""
        return math.fsum(report.result.effort_s for report in self._reports())

    @property
    def total_steady_solves(self) -> int:
        """Summed steady-state solves over all jobs."""
        return sum(o.steady_solves for o in self._outcomes())

    @property
    def total_job_s(self) -> float:
        """Summed per-job wall time — compute the backend parallelised."""
        return math.fsum(o.elapsed_s for o in self._outcomes())

    @property
    def jobs_per_second(self) -> float:
        """Batch throughput."""
        return self.n_jobs / self.wall_s if self.wall_s > 0.0 else math.inf

    def describe(self, limit: int = 10) -> str:
        """Multi-line human-readable batch summary.

        Parameters
        ----------
        limit:
            Per-job lines shown (0 disables; failures always shown).
        """
        lines = [
            f"Batch of {self.n_jobs} jobs on backend {self.backend!r} "
            f"({self.workers} workers): {len(self.ok)} ok, "
            f"{len(self.failed)} failed, wall {self.wall_s:.2f} s "
            f"({self.jobs_per_second:.1f} jobs/s)",
            f"  schedule length {self.total_length_s:g} s total, "
            f"simulation effort {self.total_effort_s:g} s, "
            f"{self.total_steady_solves} steady-state solves",
            f"  model cache: {self.cache_hits}/{self.n_jobs} jobs hit "
            f"({self.cache_hit_rate * 100:.0f}%)",
        ]
        if self.cache_stats is not None:
            lines.append(f"  {self.cache_stats.describe()}")
        shown = list(self.results)[:limit] if limit else []
        shown += [job_id for job_id in self.failed if job_id not in shown]
        for job_id in shown:
            lines.append(f"  {_describe_job(job_id, self.results[job_id][1])}")
        if len(shown) < self.n_jobs:
            lines.append(f"  ... {self.n_jobs - len(shown)} more jobs")
        return "\n".join(lines)


class BatchRunner:
    """Fans a fleet of jobs out over an execution backend.

    Parameters
    ----------
    backend:
        Backend name (``"serial"``, ``"thread"``, ``"process"``, or any
        registered extension) or a ready
        :class:`~repro.engine.backends.ExecutionBackend` instance.
    max_workers:
        Worker count (ignored when *backend* is an instance; defaults
        to the CPU count).
    cache:
        Thermal-model cache shared across jobs on memory-sharing
        backends.  Defaults to a fresh cache with the default LRU
        bound (:data:`~repro.engine.cache.MODEL_CACHE_ENTRIES`); pass an
        existing one to retain models across batches (a long-running
        service), or ``None`` explicitly via ``use_cache=False``.
    use_cache:
        Disable model sharing entirely (every job builds its own
        network) — the ablation the cache benchmark compares against.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "serial",
        max_workers: int | None = None,
        cache: ThermalModelCache | None = None,
        use_cache: bool = True,
    ) -> None:
        if isinstance(backend, ExecutionBackend):
            self._backend = backend
        else:
            self._backend = create_backend(backend, max_workers=max_workers)
        self._cache = resolve_cache(cache, use_cache)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend."""
        return self._backend

    @property
    def cache(self) -> ThermalModelCache | None:
        """The shared model cache (memory-sharing backends only)."""
        return self._cache

    def run(
        self,
        jobs: Mapping[str, ScheduleRequest],
        jsonl_path: str | Path | None = None,
    ) -> BatchResult:
        """Execute every job and aggregate the outcomes.

        Parameters
        ----------
        jobs:
            The fleet, job id -> request; must be non-empty.
        jsonl_path:
            When given, every job's outcome is archived to this
            JSON-Lines file (one self-contained record per line).

        Raises
        ------
        SchedulingError
            On an empty fleet — almost always a fleet-construction bug
            upstream, and an empty batch would otherwise silently
            produce an empty archive.
        """
        # deferred: the service imports the engine
        from ..service.execution import process_solve, solve_requests

        if not jobs:
            raise SchedulingError(
                "batch contains no jobs; generate a fleet first "
                "(e.g. generate_fleet(count, seed))"
            )
        if self._backend.shares_memory:
            worker = partial(solve_requests, cache=self._cache)
        else:
            worker = partial(process_solve, use_cache=self._cache is not None)

        start = time.perf_counter()
        outcomes = self._backend.map(worker, [[request] for request in jobs.values()])
        wall_s = time.perf_counter() - start

        # The in-process cache snapshot only means something on backends
        # that actually used it; process workers keep their own caches
        # (their activity is visible via the per-job cache_hit flags).
        shared_cache_used = self._cache is not None and self._backend.shares_memory
        batch = BatchResult(
            results={
                job_id: (request, outcome)
                for (job_id, request), (outcome,) in zip(jobs.items(), outcomes)
            },
            backend=self._backend.name,
            workers=self._backend.max_workers,
            wall_s=wall_s,
            cache_stats=self._cache.stats if shared_cache_used else None,
        )
        if jsonl_path is not None:
            save_batch_jsonl(batch.results, jsonl_path)
        return batch


def save_batch_jsonl(results: Mapping[str, BatchJob], path: str | Path) -> int:
    """Archive job outcomes as JSONL; returns the record count.

    Each line is the service's :func:`~repro.service.archive.outcome_record`
    plus the ``job_id``.
    """
    from ..service.archive import outcome_record  # deferred: service imports engine

    return dump_jsonl(
        (
            {"job_id": job_id, **outcome_record(request, outcome)}
            for job_id, (request, outcome) in results.items()
        ),
        path,
    )


def load_batch_jsonl(path: str | Path) -> dict[str, BatchJob]:
    """Load a batch archive back as job id -> (request, outcome).

    Reports are revalidated against the SoCs their requests describe.

    Raises
    ------
    SchedulingError
        On a malformed record or a duplicate job id, naming the path
        and line; on a legacy batch job record (``spec``/``status``/
        ``result``), which only ``repro report`` still reads.
    """
    # deferred: the api and the service import the engine
    from ..api.request import request_from_dict
    from ..service.archive import outcome_from_record

    jobs: dict[str, BatchJob] = {}
    for lineno, record in iter_jsonl(path):
        where = f"{path}:{lineno}"
        if isinstance(record, dict) and "spec" in record and "kind" not in record:
            raise SchedulingError(
                f"{where}: a legacy batch job record (spec/status/result); "
                f"load_batch_jsonl reads outcome records only — summarise "
                f"old archives with `repro report`"
            )
        try:
            job_id = record["job_id"]
            if not isinstance(job_id, str):
                raise TypeError(f"job_id must be a string, got {job_id!r}")
            request = request_from_dict(record["request"])
            outcome = outcome_from_record(record)
        except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SchedulingError(
                f"{where}: malformed batch record: {type(exc).__name__}: {exc}"
            ) from exc
        if job_id in jobs:
            raise SchedulingError(f"{where}: duplicate job id {job_id!r}")
        jobs[job_id] = (request, outcome)
    return jobs
