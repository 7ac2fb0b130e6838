"""Problem and request specifications for the unified solver API.

A :class:`ScheduleRequest` is the one question shape every scheduler in
this library answers: *which system, which limits, which solver, which
knobs*.  It is a frozen dataclass of primitives (plus a picklable
:class:`~repro.engine.scenarios.ScenarioSpec`), so requests cross
process boundaries unchanged and round-trip through plain dicts — and
therefore through the JSONL archives the batch engine writes.

A :class:`SolveReport` is the uniform answer: the resolved limits, the
full :class:`~repro.core.scheduler.ScheduleResult` (every solver
produces one, baselines included, with their schedules thermally
annotated post hoc), timing/effort diagnostics, and a per-solver
``extras`` mapping for anything solver-specific (the power cap a
power-constrained run derived, the subset count an exact search
explored, ...).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from ..core.scheduler import ScheduleResult
from ..core.serialize import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    result_from_dict,
    result_to_dict,
)
from ..core.session import TestSchedule
from ..errors import RequestError
from ..engine.scenarios import BUILTIN_KINDS, ScenarioSpec
from ..spec_utils import FrozenParams, hashable_params, validate_limit_fields

#: Built-in platforms a request may name instead of an inline scenario —
#: exactly the scenario kinds backed by library SoCs, so the two lists
#: cannot drift.
BUILTIN_SOC_NAMES = BUILTIN_KINDS

#: The solver used when a request does not name one.
DEFAULT_SOLVER = "thermal_aware"


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling question, solver included.

    Exactly one of (``soc``, ``scenario``) selects the system under
    test, exactly one of (``tl_c``, ``tl_headroom``) sets the
    temperature limit, and at most one of (``stcl``, ``stcl_headroom``)
    sets the session-thermal-characteristic limit (solvers that do not
    use the STC heuristic ignore it; the thermal-aware solver requires
    it).

    Attributes
    ----------
    soc:
        Name of a built-in platform (one of
        :data:`BUILTIN_SOC_NAMES`); hyphens are accepted in place of
        underscores.
    scenario:
        Inline declarative SoC description (generated floorplans,
        custom cooling, ...).
    tl_c:
        Absolute temperature limit ``TL`` (Celsius).
    tl_headroom:
        Alternative: ``TL = ambient + headroom * (max BCMT - ambient)``
        (> 1 guarantees every core passes phase A).
    stcl:
        Absolute session-thermal-characteristic limit.
    stcl_headroom:
        Alternative: ``STCL = headroom x`` the worst singleton STC.
    solver:
        Registered solver name (see
        :func:`repro.api.solvers.available_solvers`).
    params:
        Per-solver parameters; unknown keys are rejected at solve time
        by the named solver's ``validate_params``.
    include_vertical:
        Include the vertical heat path in the STC session model
        (automatically enabled for floorplans that do not tile the
        die, e.g. the hypothetical7 platform).
    stc_scale:
        STC normalisation; ``None`` uses the platform's calibrated
        default.
    """

    soc: str | None = None
    scenario: ScenarioSpec | None = None
    tl_c: float | None = None
    tl_headroom: float | None = None
    stcl: float | None = None
    stcl_headroom: float | None = None
    solver: str = DEFAULT_SOLVER
    params: Mapping[str, Any] = field(default_factory=dict)
    include_vertical: bool = False
    stc_scale: float | None = None

    def __post_init__(self) -> None:
        if (self.soc is None) == (self.scenario is None):
            raise RequestError(
                "a request selects its system with exactly one of "
                "soc=<builtin name> / scenario=<ScenarioSpec>"
            )
        if self.soc is not None:
            canonical = self.soc.replace("-", "_")
            if canonical not in BUILTIN_SOC_NAMES:
                raise RequestError(
                    f"unknown built-in SoC {self.soc!r}; available: "
                    f"{', '.join(BUILTIN_SOC_NAMES)}"
                )
            object.__setattr__(self, "soc", canonical)
        validate_limit_fields(
            tl_c=self.tl_c,
            tl_headroom=self.tl_headroom,
            stcl=self.stcl,
            stcl_headroom=self.stcl_headroom,
            stc_scale=self.stc_scale,
        )
        if not self.solver or not isinstance(self.solver, str):
            raise RequestError(f"solver must be a non-empty name, got {self.solver!r}")
        object.__setattr__(self, "params", FrozenParams(self.params or {}))
        for key in self.params:
            if not isinstance(key, str):
                raise RequestError(f"params keys must be strings, got {key!r}")

    def __hash__(self) -> int:
        # The generated hash would raise on the dict-typed params
        # field; hash a canonical frozen view of it instead.
        return hash(
            (
                self.soc,
                self.scenario,
                self.tl_c,
                self.tl_headroom,
                self.stcl,
                self.stcl_headroom,
                self.solver,
                hashable_params(self.params),
                self.include_vertical,
                self.stc_scale,
            )
        )

    @property
    def has_stcl(self) -> bool:
        """True when the request carries an STCL (absolute or headroom)."""
        return self.stcl is not None or self.stcl_headroom is not None

    def content_hash(self) -> str:
        """Stable cross-process content hash of this request.

        Hashes the canonical (key-sorted, compact) JSON of the request's
        dict form, so two requests hash equal exactly when their JSONL
        wire frames are byte-identical — the property the scheduling
        service's in-flight deduplication relies on.  Unlike ``hash()``,
        the digest survives process boundaries and interpreter hash
        randomisation.  A request is immutable, so the digest is
        computed once per request object (a pickled or deep-copied
        request carries it along; ``dataclasses.replace`` builds a new
        request, which hashes afresh).
        """
        return self._content_digest

    @cached_property
    def _content_digest(self) -> str:
        payload = request_to_dict(self)
        del payload["schema_version"]  # identity, not format vintage
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        """One-line human-readable request summary."""
        if self.soc is not None:
            system = self.soc
        else:
            assert self.scenario is not None  # __post_init__: exactly one source
            system = self.scenario.name
        tl = f"TL={self.tl_c:g}" if self.tl_c is not None else f"TLx{self.tl_headroom:g}"
        if self.stcl is not None:
            stcl = f", STCL={self.stcl:g}"
        elif self.stcl_headroom is not None:
            stcl = f", STCLx{self.stcl_headroom:g}"
        else:
            stcl = ""
        return f"{self.solver}({system}, {tl}{stcl})"


def request_to_dict(request: ScheduleRequest) -> dict[str, Any]:
    """Serialise a request to a JSON-ready dict."""
    data = dataclasses.asdict(request)  # recursive: scenario becomes a dict
    data["schema_version"] = SCHEMA_VERSION
    return data


def request_from_dict(data: dict[str, Any]) -> ScheduleRequest:
    """Load a request back from its dict form."""
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise RequestError(
            f"unsupported request schema version {version!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    payload = {k: v for k, v in data.items() if k != "schema_version"}
    if payload.get("scenario") is not None:
        payload["scenario"] = ScenarioSpec(**payload["scenario"])
    return ScheduleRequest(**payload)


@dataclass(frozen=True)
class SolveReport:
    """The uniform answer every registered solver returns.

    Attributes
    ----------
    solver:
        Registered name of the solver that ran.
    request:
        The request as submitted (``None`` when the solve was issued
        against a prebuilt SoC via :meth:`Workbench.solve_soc`).
    tl_c:
        The resolved absolute temperature limit (Celsius).
    stcl:
        The resolved STC limit (``nan`` when the request carried none
        and the solver does not use it).
    result:
        Full scheduling result; baselines get a synthesised one with an
        annotated schedule, zero construction effort and empty
        weight/BCMT maps.
    elapsed_s:
        Wall-clock time of the solve (context build excluded).
    steady_solves:
        Steady-state queries the whole request made of the simulator:
        one per power map asked about, limit resolution included (one
        per core for a ``tl_headroom``).  For the thermal-aware solver
        that is one per core in phase A and one per phase-B validation,
        computed or repeated (see
        :attr:`~repro.core.scheduler.ScheduleResult.steady_solves`).
    cache_hit:
        Whether the thermal model came out of a shared cache.
    cached:
        Answer provenance: ``True`` when this report was served from
        the scheduling service's answer cache instead of a fresh solve
        (``elapsed_s`` etc. then describe the *original* solve).
    timings:
        Per-phase wall-clock durations in seconds (``model_build``,
        ``limit_resolve``, ``solver``, ``total``; a group solve, which
        is the service's worker path, adds ``worker``, the request's
        own wall time with its SoC build; the service adds
        ``queue_wait`` and ``service_total``).  ``None``
        for reports predating the tracing layer — every consumer must
        stay ``None``-safe.
    extras:
        Solver-specific diagnostics.
    """

    solver: str
    request: ScheduleRequest | None
    tl_c: float
    stcl: float
    result: ScheduleResult
    elapsed_s: float
    steady_solves: int = 0
    cache_hit: bool = False
    cached: bool = False
    timings: Mapping[str, float] | None = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extras", dict(self.extras or {}))
        if self.timings is not None:
            object.__setattr__(
                self,
                "timings",
                {str(k): float(v) for k, v in dict(self.timings).items()},
            )

    @property
    def request_hash(self) -> str | None:
        """Provenance: the content hash of the request this report answers.

        ``None`` for reports produced without a request object
        (:meth:`Workbench.solve_soc`).  Wire frames and archives carry
        it so clients can pair reports with submissions without trusting
        transport-level correlation ids alone.
        """
        return None if self.request is None else self.request.content_hash()

    @property
    def schedule(self) -> TestSchedule:
        """The produced test schedule."""
        return self.result.schedule

    @property
    def length_s(self) -> float:
        """Test schedule length (s)."""
        return self.result.length_s

    @property
    def n_sessions(self) -> int:
        """Number of sessions in the schedule."""
        return self.result.n_sessions

    @property
    def max_temperature_c(self) -> float:
        """Peak simulated temperature over the schedule (Celsius)."""
        return self.result.max_temperature_c

    @property
    def hot_spot_rate(self) -> float:
        """Fraction of sessions whose peak reaches ``tl_c`` (0..1).

        0 by construction for the thermal-aware solver; the comparison
        metric for the thermally blind baselines.
        """
        sessions = self.schedule.sessions
        hot = sum(1 for s in sessions if s.max_temperature_c >= self.tl_c)
        return hot / len(sessions)

    @property
    def margin_c(self) -> float:
        """Temperature headroom ``TL - peak`` (negative when unsafe)."""
        return self.tl_c - self.max_temperature_c

    def describe(self) -> str:
        """Multi-line human-readable report."""
        stcl = "" if math.isnan(self.stcl) else f", STCL={self.stcl:g}"
        lines = [
            f"{self.solver} solve (TL={self.tl_c:g} degC{stcl}): "
            f"length {self.length_s:g} s in {self.n_sessions} sessions, "
            f"peak {self.max_temperature_c:.2f} degC "
            f"(hot-spot rate {self.hot_spot_rate * 100:.0f}%)",
            f"  {self.steady_solves} steady-state solves in "
            f"{self.elapsed_s * 1e3:.1f} ms, model cache "
            f"{'hit' if self.cache_hit else 'miss'}"
            f"{' (served from the answer cache)' if self.cached else ''}",
        ]
        if self.timings:
            phases = ", ".join(
                f"{name} {duration * 1e3:.1f} ms"
                for name, duration in self.timings.items()
            )
            lines.append(f"  phases: {phases}")
        if self.extras:
            pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.extras.items()))
            lines.append(f"  {pairs}")
        lines.append(self.schedule.describe())
        return "\n".join(lines)


def report_to_dict(report: SolveReport) -> dict[str, Any]:
    """Serialise a solve report to a JSON-ready dict.

    Only reports that carry their request can be serialised: the
    embedded request is what lets a loader rebuild the SoC and
    revalidate the schedule, and what gives archives their provenance
    (``request_hash``).  ``solve_soc`` reports have no request and are
    rejected.  NaN limits become ``null`` so the output stays strict
    JSON.
    """
    if report.request is None:
        raise RequestError(
            "reports without a request (solve_soc) cannot be serialised; "
            "express the system as a ScheduleRequest to archive its reports"
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "solver": report.solver,
        "request": request_to_dict(report.request),
        "request_hash": report.request_hash,
        "tl_c": report.tl_c,
        "stcl": None if math.isnan(report.stcl) else report.stcl,
        "result": result_to_dict(report.result),
        "elapsed_s": report.elapsed_s,
        "steady_solves": report.steady_solves,
        "cache_hit": report.cache_hit,
        "cached": report.cached,
        "timings": None if report.timings is None else dict(report.timings),
        "extras": dict(report.extras),
    }


def report_from_dict(data: dict[str, Any]) -> SolveReport:
    """Load a solve report back onto the SoC its request describes.

    The schedule is revalidated against that SoC (the same guarantee
    the batch archive loader gives), so a corrupted or hand-edited
    record cannot smuggle in an impossible schedule.  The SoC is the
    spec's shared build (:meth:`ScenarioSpec.build_soc`), equal to a
    fresh one, so decoding a report on a spec this process has seen
    builds nothing.
    """
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise RequestError(
            f"unsupported report schema version {version!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    request = request_from_dict(data["request"])
    stored_hash = data.get("request_hash")
    if stored_hash is not None and stored_hash != request.content_hash():
        raise RequestError(
            "report provenance mismatch: stored request_hash "
            f"{stored_hash[:12]}... does not match the embedded request"
        )
    if request.scenario is not None:
        scenario = request.scenario
    else:
        from .workbench import _builtin_scenario  # deferred: workbench imports us

        assert request.soc is not None  # __post_init__: exactly one source
        scenario = _builtin_scenario(request.soc)
    soc = scenario.build_soc()
    return SolveReport(
        solver=data["solver"],
        request=request,
        tl_c=float(data["tl_c"]),
        stcl=math.nan if data["stcl"] is None else float(data["stcl"]),
        result=result_from_dict(data["result"], soc),
        elapsed_s=float(data["elapsed_s"]),
        steady_solves=int(data.get("steady_solves", 0)),
        cache_hit=bool(data.get("cache_hit", False)),
        cached=bool(data.get("cached", False)),
        # .get twice over: archives written before the tracing layer
        # carry no "timings" key at all, and newer ones may carry null.
        timings=data.get("timings"),
        extras=data.get("extras") or {},
    )
