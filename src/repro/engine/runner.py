"""The batch runner: fan jobs out over a backend, aggregate, persist.

:func:`run_job` is the single-job execution path: convert the job to a
:class:`~repro.api.ScheduleRequest`, dispatch it through the solver
registry via :meth:`repro.api.Workbench.solve` (which builds the
scenario, borrows a thermal model from the cache and resolves limits),
and never raise — infeasible scenarios become ``status="error"``
records instead of killing the fleet.  :class:`BatchRunner` maps it over an execution
backend and returns a :class:`BatchResult` with per-job records plus
the aggregate timing, simulation-effort and cache statistics, and can
stream the records to a JSONL archive via :mod:`repro.core.serialize`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from ..core.serialize import dump_jsonl, load_jsonl
from ..errors import SchedulingError
from .backends import ExecutionBackend, create_backend
from .cache import (
    CacheStats,
    ThermalModelCache,
    process_local_cache,
    resolve_cache,
)
from .jobs import JobResult, JobSpec, job_result_from_dict, job_result_to_dict
from .scenarios import ScenarioSpec


def run_job(spec: JobSpec, cache: ThermalModelCache | None = None) -> JobResult:
    """Execute one batch job; failures become error records, not raises.

    The job is converted to a :class:`~repro.api.ScheduleRequest` and
    dispatched through the solver registry, so a fleet can mix
    thermal-aware, power-constrained and sequential jobs (or any
    registered extension) in one batch.

    Parameters
    ----------
    spec:
        The job to run.
    cache:
        Shared thermal-model cache; when omitted the job builds (and
        factorises) its own network.
    """
    from ..api.workbench import Workbench  # deferred: api imports engine

    start = time.perf_counter()
    try:
        report = Workbench(cache=cache, use_cache=cache is not None).solve(
            spec.to_request()
        )
    # Catch everything, not just ReproError: a buggy third-party solver
    # registered via register_solver must not kill a 1000-job fleet and
    # discard the results already computed.
    except Exception as exc:
        return JobResult(
            spec=spec,
            status="error",
            tl_c=math.nan,
            stcl=math.nan,
            result=None,
            error=f"{type(exc).__name__}: {exc}",
            elapsed_s=time.perf_counter() - start,
            steady_solves=getattr(exc, "solve_steady_solves", 0),
            cache_hit=getattr(exc, "solve_cache_hit", False),
        )
    elapsed_s = time.perf_counter() - start
    # The spec->request conversion happens out here, so the job's wall
    # time exceeds the report's; record it as the "worker" phase like
    # the service's worker path does.
    timings = (
        {**report.timings, "worker": elapsed_s}
        if report.timings is not None
        else None
    )
    return JobResult(
        spec=spec,
        status="ok",
        tl_c=report.tl_c,
        stcl=report.stcl,
        result=report.result,
        error=None,
        elapsed_s=elapsed_s,
        steady_solves=report.steady_solves,
        cache_hit=report.cache_hit,
        timings=timings,
    )


def _process_job(spec: JobSpec, use_cache: bool = True) -> JobResult:
    """Module-level (hence picklable) worker for the process backend.

    The per-process cache lives in :func:`~repro.engine.cache.process_local_cache`
    so batch workers and scheduling-service workers sharing a process
    also share warm models; ``use_cache=False`` runs use none.
    """
    return run_job(spec, process_local_cache() if use_cache else None)


@dataclass(frozen=True)
class BatchResult:
    """Everything a batch run produced.

    Attributes
    ----------
    results:
        Per-job records, in submission order.
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

    results: tuple[JobResult, ...]
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
    def ok(self) -> tuple[JobResult, ...]:
        """Jobs that produced a schedule."""
        return tuple(r for r in self.results if r.ok)

    @property
    def failed(self) -> tuple[JobResult, ...]:
        """Jobs that ended in an error record."""
        return tuple(r for r in self.results if not r.ok)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, job_id: str) -> JobResult:
        for result in self.results:
            if result.spec.job_id == job_id:
                return result
        raise SchedulingError(f"no job {job_id!r} in this batch")

    # -- aggregate metrics ---------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Jobs whose thermal model came out of a cache (any backend)."""
        return sum(1 for r in self.results if r.cache_hit)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of jobs served from a model cache."""
        return self.cache_hits / self.n_jobs if self.results else 0.0

    @property
    def total_length_s(self) -> float:
        """Summed schedule length over successful jobs (s)."""
        return math.fsum(r.result.length_s for r in self.ok if r.result)

    @property
    def total_effort_s(self) -> float:
        """Summed simulation effort over successful jobs (s)."""
        return math.fsum(r.result.effort_s for r in self.ok if r.result)

    @property
    def total_steady_solves(self) -> int:
        """Summed steady-state solves over all jobs."""
        return sum(r.steady_solves for r in self.results)

    @property
    def total_job_s(self) -> float:
        """Summed per-job wall time — compute the backend parallelised."""
        return math.fsum(r.elapsed_s for r in self.results)

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
        for result in self.results[:limit] if limit else ():
            lines.append(f"  {result.describe()}")
        shown = min(limit, self.n_jobs) if limit else 0
        for result in self.failed:
            if limit and result in self.results[:limit]:
                continue
            lines.append(f"  {result.describe()}")
            shown += 1
        if shown < self.n_jobs:
            lines.append(f"  ... {self.n_jobs - shown} more jobs")
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
        jobs: Sequence[JobSpec],
        jsonl_path: str | Path | None = None,
    ) -> BatchResult:
        """Execute every job and aggregate the records.

        Parameters
        ----------
        jobs:
            The fleet; must be non-empty, and job ids must be unique.
        jsonl_path:
            When given, every job record is archived to this JSON-Lines
            file (one self-contained record per line).

        Raises
        ------
        SchedulingError
            On an empty fleet or duplicate job ids — both almost always
            mean a fleet-construction bug upstream, and an empty batch
            would otherwise silently produce an empty archive.
        """
        if not jobs:
            raise SchedulingError(
                "batch contains no jobs; generate a fleet first "
                "(e.g. generate_fleet(count, seed))"
            )
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise SchedulingError(f"duplicate job ids in batch: {dupes}")

        if self._backend.shares_memory:
            worker = partial(run_job, cache=self._cache)
        else:
            worker = partial(_process_job, use_cache=self._cache is not None)

        start = time.perf_counter()
        results = tuple(self._backend.map(worker, list(jobs)))
        wall_s = time.perf_counter() - start

        # The in-process cache snapshot only means something on backends
        # that actually used it; process workers keep their own caches
        # (their activity is visible via the per-job cache_hit flags).
        shared_cache_used = self._cache is not None and self._backend.shares_memory
        batch = BatchResult(
            results=results,
            backend=self._backend.name,
            workers=self._backend.max_workers,
            wall_s=wall_s,
            cache_stats=self._cache.stats if shared_cache_used else None,
        )
        if jsonl_path is not None:
            save_batch_jsonl(batch.results, jsonl_path)
        return batch


def save_batch_jsonl(results: Iterable[JobResult], path: str | Path) -> int:
    """Archive job records as JSONL; returns the record count."""
    return dump_jsonl((job_result_to_dict(r) for r in results), path)


def load_batch_jsonl(path: str | Path) -> list[JobResult]:
    """Load job records back from a JSONL archive.

    Schedules are revalidated against freshly rebuilt SoCs; SoCs are
    rebuilt once per distinct scenario, not once per record.
    """
    socs: dict[ScenarioSpec, object] = {}
    results: list[JobResult] = []
    for record in load_jsonl(path):
        scenario = ScenarioSpec(**record["spec"]["scenario"])
        if record.get("result") is not None and scenario not in socs:
            socs[scenario] = scenario.build_soc()
        results.append(job_result_from_dict(record, soc=socs.get(scenario)))  # type: ignore[arg-type]
    return results
