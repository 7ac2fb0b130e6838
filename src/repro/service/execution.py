"""Worker-pool execution path of the scheduling service and batch runner.

A worker takes a group of :class:`~repro.api.ScheduleRequest`\\ s — a
single request is a group of one — and returns one
:class:`SolveOutcome` per request, *always*, never an exception: the
pool boundary is where failures become records, so one infeasible
request cannot poison a worker, its group, the queue position of the
requests behind it, or the rest of a batch.

The service and :class:`~repro.engine.runner.BatchRunner` both run
their jobs here: thread workers share the caller's
:class:`~repro.engine.cache.ThermalModelCache`, process workers use the
per-process cache (:func:`~repro.engine.cache.process_local_cache`),
so warm factorisations survive across clients, bursts and even
interleaved batch runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal, Sequence

from ..api.request import ScheduleRequest, SolveReport
from ..api.workbench import Workbench
from ..engine.cache import ThermalModelCache, process_local_cache


@dataclass(frozen=True)
class SolveOutcome:
    """The terminal record of one service job (success or failure).

    Attributes
    ----------
    status:
        ``"ok"`` or ``"error"``.
    report:
        The solve report (``None`` on error).
    error:
        ``"ExcType: message"`` failure description (``None`` on
        success).
    error_type:
        Exception class name, so clients can distinguish an infeasible
        request from a timeout without parsing messages.
    elapsed_s:
        Wall-clock time inside the worker (queue wait excluded).
    steady_solves:
        Steady-state solves the job issued (errors included, via the
        effort the exception carried out).
    cache_hit:
        Whether the thermal model came out of a cache.
    """

    status: Literal["ok", "error"]
    report: SolveReport | None
    error: str | None
    error_type: str | None
    elapsed_s: float
    steady_solves: int = 0
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        """True when the job produced a report."""
        return self.status == "ok"


def error_outcome(exc: BaseException, elapsed_s: float) -> SolveOutcome:
    """Wrap an exception into an error outcome (effort preserved)."""
    return SolveOutcome(
        status="error",
        report=None,
        error=f"{type(exc).__name__}: {exc}",
        error_type=type(exc).__name__,
        elapsed_s=elapsed_s,
        steady_solves=getattr(exc, "solve_steady_solves", 0),
        cache_hit=getattr(exc, "solve_cache_hit", False),
    )


def solve_requests(
    requests: Sequence[ScheduleRequest],
    cache: ThermalModelCache | None = None,
) -> list[SolveOutcome]:
    """Execute one group of requests; one outcome per request, in order.

    Backed by :meth:`~repro.api.Workbench.solve_batch`: the requests
    run one after another over shared model builds, with reports equal
    to solo solves.  Each request's own wall time in the worker, SoC
    build included, is its ``worker`` phase and its outcome's
    ``elapsed_s``.  Per-request failures come back as per-request error
    outcomes — a mid-group infeasible request never poisons its
    neighbours.
    """
    start = time.perf_counter()
    try:
        results = Workbench(cache=cache, use_cache=cache is not None).solve_batch(
            requests
        )
    # Catch everything, not just ReproError: a buggy registered solver
    # must not take down a long-lived service worker, and a failure to
    # even start the group still must answer every job.
    except Exception as exc:
        elapsed_s = time.perf_counter() - start
        return [error_outcome(exc, elapsed_s) for _ in requests]
    outcomes: list[SolveOutcome] = []
    for item in results:
        if isinstance(item, BaseException):
            outcomes.append(
                error_outcome(item, getattr(item, "solve_elapsed_s", 0.0))
            )
            continue
        assert item.timings is not None  # solve_batch stamps "worker"
        outcomes.append(
            SolveOutcome(
                status="ok",
                report=item,
                error=None,
                error_type=None,
                elapsed_s=item.timings["worker"],
                steady_solves=item.steady_solves,
                cache_hit=item.cache_hit,
            )
        )
    return outcomes


def process_solve(
    requests: Sequence[ScheduleRequest], use_cache: bool = True
) -> list[SolveOutcome]:
    """Module-level (hence picklable) process-pool worker.

    Solves against the worker process's own model cache, or none for
    ``use_cache=False`` services.
    """
    return solve_requests(requests, process_local_cache() if use_cache else None)
