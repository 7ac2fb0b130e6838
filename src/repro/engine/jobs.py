"""Job specifications and results for the batch scheduling engine.

A :class:`JobSpec` pairs a :class:`~repro.engine.scenarios.ScenarioSpec`
(the SoC description) with the scheduling question asked of it: the
temperature limit ``TL``, the session-thermal-characteristic limit
``STCL`` and the scheduler-variant knobs.  Limits can be given
absolutely or as *headrooms* relative to the scenario's own thermal
regime; headrooms keep generated fleets feasible by construction.

A :class:`JobResult` is the complete record of one executed job:
the resolved limits, the :class:`~repro.core.scheduler.ScheduleResult`
(on success), the failure (on error — batch runs never die because one
scenario was infeasible), wall-clock timing, simulation-effort metrics
and whether the job's thermal model came out of the shared cache.

Both are frozen dataclasses of picklable content so they cross process
boundaries unchanged, and both round-trip through plain dicts (and
therefore through the JSONL archives the runner writes).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Literal, Mapping

from ..core.scheduler import ScheduleResult
from ..core.serialize import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    result_from_dict,
    result_to_dict,
)
from ..errors import ReproError, SchedulingError
from ..soc.system import SocUnderTest
from ..spec_utils import FrozenParams, hashable_params, validate_limit_fields
from .scenarios import ScenarioSpec


def _solver_needs_stcl(name: str) -> bool:
    """Whether the named solver's capability flag demands an STCL.

    Unknown names are let through here — a solver may be registered
    later or only in the worker process; the solve path re-checks and
    turns a genuinely missing solver into a per-job error record.
    """
    from ..api.solvers import get_solver  # deferred: api imports engine

    try:
        return get_solver(name).needs_stcl
    except ReproError:
        return False


@dataclass(frozen=True)
class JobSpec:
    """One scheduling question: a scenario plus limits and knobs.

    Exactly one of (``tl_c``, ``tl_headroom``) must be set.  An STCL
    (one of ``stcl``, ``stcl_headroom``) is required when the job's
    solver uses the STC heuristic (the default thermal-aware solver
    does) and optional otherwise — matching
    :class:`~repro.api.ScheduleRequest`, so the same job expressed
    through either front door behaves identically.

    Attributes
    ----------
    job_id:
        Unique identifier within a batch.
    scenario:
        Declarative SoC description.
    tl_c:
        Absolute temperature limit (Celsius).
    tl_headroom:
        Alternative: TL sits ``headroom x`` the hottest
        singleton-session temperature *rise* above ambient
        (``TL = ambient + headroom * (max BCMT - ambient)``; > 1
        guarantees phase A passes).
    stcl:
        Absolute session-thermal-characteristic limit.
    stcl_headroom:
        Alternative: ``STCL = headroom x`` the worst singleton STC
        (> 1 keeps every core individually schedulable).
    solver:
        Registered solver name the job dispatches to (see
        :func:`repro.api.available_solvers`); defaults to the paper's
        thermal-aware algorithm, so archives written before the solver
        field existed load unchanged.
    solver_params:
        Extra per-solver parameters (merged over the scheduler-variant
        knobs below for the thermal-aware solver; passed verbatim to
        every other solver).
    weight_factor, candidate_order, validation:
        Scheduler-variant knobs (see
        :class:`~repro.core.scheduler.SchedulerConfig`); only
        meaningful for ``solver="thermal_aware"``.
    include_vertical:
        Session-model ablation switch.
    stc_scale:
        STC normalisation; ``None`` uses the scenario's calibrated
        default.
    """

    job_id: str
    scenario: ScenarioSpec
    tl_c: float | None = None
    tl_headroom: float | None = None
    stcl: float | None = None
    stcl_headroom: float | None = None
    solver: str = "thermal_aware"
    solver_params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    weight_factor: float = 1.1
    candidate_order: str = "input"
    validation: Literal["steady", "transient"] = "steady"
    include_vertical: bool = False
    stc_scale: float | None = None

    def __post_init__(self) -> None:
        if not self.solver or not isinstance(self.solver, str):
            raise SchedulingError(
                f"job {self.job_id!r}: solver must be a non-empty name, "
                f"got {self.solver!r}"
            )
        object.__setattr__(
            self, "solver_params", FrozenParams(self.solver_params or {})
        )
        validate_limit_fields(
            tl_c=self.tl_c,
            tl_headroom=self.tl_headroom,
            stcl=self.stcl,
            stcl_headroom=self.stcl_headroom,
            error_cls=SchedulingError,
            prefix=f"job {self.job_id!r}: ",
            stc_scale=self.stc_scale,
        )
        if (
            self.stcl is None
            and self.stcl_headroom is None
            and _solver_needs_stcl(self.solver)
        ):
            raise SchedulingError(
                f"job {self.job_id!r}: exactly one of stcl / stcl_headroom is "
                f"required for solver {self.solver!r}"
            )

    def __hash__(self) -> int:
        # The generated hash would raise on the dict-typed
        # solver_params field; hash a canonical frozen view instead.
        return hash(
            (
                self.job_id,
                self.scenario,
                self.tl_c,
                self.tl_headroom,
                self.stcl,
                self.stcl_headroom,
                self.solver,
                hashable_params(self.solver_params),
                self.weight_factor,
                self.candidate_order,
                self.validation,
                self.include_vertical,
                self.stc_scale,
            )
        )

    def to_request(self) -> "ScheduleRequest":
        """The :class:`~repro.api.ScheduleRequest` this job asks.

        The scheduler-variant knobs (``weight_factor`` etc.) only apply
        to the thermal-aware solver; other solvers receive
        ``solver_params`` alone, so a fleet can flip between solvers
        without tripping parameter validation.
        """
        from ..api.request import ScheduleRequest  # deferred: api imports engine

        if self.solver == "thermal_aware":
            params = {
                "weight_factor": self.weight_factor,
                "candidate_order": self.candidate_order,
                "validation": self.validation,
                **self.solver_params,
            }
        else:
            params = dict(self.solver_params)
        return ScheduleRequest(
            scenario=self.scenario,
            tl_c=self.tl_c,
            tl_headroom=self.tl_headroom,
            stcl=self.stcl,
            stcl_headroom=self.stcl_headroom,
            solver=self.solver,
            params=params,
            include_vertical=self.include_vertical,
            stc_scale=self.stc_scale,
        )


#: Terminal states of an executed job.
JobStatus = Literal["ok", "error"]


@dataclass(frozen=True)
class JobResult:
    """The complete record of one executed batch job.

    Attributes
    ----------
    spec:
        The job as submitted.
    status:
        ``"ok"`` or ``"error"``.
    tl_c, stcl:
        The resolved absolute limits (``nan`` if resolution itself
        failed).
    result:
        The scheduling result (``None`` on error).
    error:
        Failure description (``None`` on success).
    elapsed_s:
        Wall-clock execution time of this job in its worker.
    steady_solves:
        Linear-system solves the job issued (model build + scheduling).
    cache_hit:
        Whether the job's thermal network + factorisation came out of
        the shared model cache.
    timings:
        Per-phase wall-clock durations in seconds, carried over from
        the solve report (``model_build``, ``limit_resolve``,
        ``solver``, ``total``, ``worker``).  ``None`` for error records
        and for archives predating the tracing layer.
    """

    spec: JobSpec
    status: JobStatus
    tl_c: float
    stcl: float
    result: ScheduleResult | None
    error: str | None
    elapsed_s: float
    steady_solves: int = 0
    cache_hit: bool = False
    timings: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.timings is not None:
            object.__setattr__(
                self,
                "timings",
                {str(k): float(v) for k, v in dict(self.timings).items()},
            )
        if self.status == "ok" and self.result is None:
            raise SchedulingError(
                f"job {self.spec.job_id!r}: status 'ok' requires a result"
            )
        if self.status == "error" and self.error is None:
            raise SchedulingError(
                f"job {self.spec.job_id!r}: status 'error' requires an error"
            )

    @property
    def ok(self) -> bool:
        """True when the job produced a schedule."""
        return self.status == "ok"

    @property
    def length_s(self) -> float:
        """Test schedule length (nan on error)."""
        return self.result.length_s if self.result is not None else math.nan

    @property
    def effort_s(self) -> float:
        """Simulation effort (nan on error)."""
        return self.result.effort_s if self.result is not None else math.nan

    def describe(self) -> str:
        """One-line human-readable job summary."""
        if self.result is not None:
            body = (
                f"length {self.result.length_s:g} s in "
                f"{self.result.n_sessions} sessions, "
                f"effort {self.result.effort_s:g} s, "
                f"{self.steady_solves} solves"
            )
        else:
            body = f"ERROR: {self.error}"
        cache = "hit" if self.cache_hit else "miss"
        return (
            f"{self.spec.job_id}: {body} "
            f"[{self.elapsed_s * 1e3:.1f} ms, cache {cache}]"
        )


# -- dict / JSONL round-tripping -----------------------------------------------------


def job_spec_to_dict(spec: JobSpec) -> dict[str, Any]:
    """Serialise a job spec to a JSON-ready dict."""
    data = dataclasses.asdict(spec)  # recursive: scenario becomes a dict too
    data["schema_version"] = SCHEMA_VERSION
    return data


def job_spec_from_dict(data: dict[str, Any]) -> JobSpec:
    """Load a job spec back from its dict form."""
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchedulingError(
            f"unsupported job spec schema version {version!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    payload = {k: v for k, v in data.items() if k != "schema_version"}
    payload["scenario"] = ScenarioSpec(**payload["scenario"])
    return JobSpec(**payload)


def job_result_to_dict(job_result: JobResult) -> dict[str, Any]:
    """Serialise a job result (spec + diagnostics + embedded schedule).

    The unresolved limits of error records are NaN in memory but
    ``null`` on disk: ``json.dumps`` would otherwise emit a bare
    ``NaN`` token, which strict JSON parsers (jq, non-Python loaders)
    reject.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": job_spec_to_dict(job_result.spec),
        "status": job_result.status,
        "tl_c": None if math.isnan(job_result.tl_c) else job_result.tl_c,
        "stcl": None if math.isnan(job_result.stcl) else job_result.stcl,
        "error": job_result.error,
        "elapsed_s": job_result.elapsed_s,
        "steady_solves": job_result.steady_solves,
        "cache_hit": job_result.cache_hit,
        "timings": (
            None if job_result.timings is None else dict(job_result.timings)
        ),
        "result": (
            None
            if job_result.result is None
            else result_to_dict(job_result.result)
        ),
    }


def job_result_from_dict(
    data: dict[str, Any], soc: SocUnderTest | None = None
) -> JobResult:
    """Load a job result back, rebuilding its SoC to revalidate the schedule.

    Parameters
    ----------
    data:
        Dict form as produced by :func:`job_result_to_dict`.
    soc:
        Reused when provided (loading a fleet groups results by
        scenario); otherwise rebuilt from the embedded scenario spec.
    """
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchedulingError(
            f"unsupported job result schema version {version!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    spec = job_spec_from_dict(data["spec"])
    result = None
    if data.get("result") is not None:
        if soc is None:
            soc = spec.scenario.build_soc()
        result = result_from_dict(data["result"], soc)
    return JobResult(
        spec=spec,
        status=data["status"],
        tl_c=math.nan if data["tl_c"] is None else float(data["tl_c"]),
        stcl=math.nan if data["stcl"] is None else float(data["stcl"]),
        result=result,
        error=data.get("error"),
        elapsed_s=float(data["elapsed_s"]),
        steady_solves=int(data.get("steady_solves", 0)),
        cache_hit=bool(data.get("cache_hit", False)),
        timings=data.get("timings"),
    )
