"""The workbench: one front door for single solves and whole fleets.

:class:`Workbench` owns a shared
:class:`~repro.engine.cache.ThermalModelCache` and routes every
scheduling question through the same path — resolve the system, borrow
a thermal model from the cache, resolve the limits, dispatch to the
registered solver, report uniformly.  Single requests
(:meth:`Workbench.solve`), prebuilt SoCs (:meth:`Workbench.solve_soc`)
and generated fleets (:meth:`Workbench.run_fleet`, which fans a batch
out over an execution backend with the *same* cache) all share it.

Module-level :func:`solve` is the one-liner for scripts::

    from repro.api import ScheduleRequest, solve

    report = solve(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
    print(report.describe())
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..errors import ReproError, RequestError
from ..core.session_model import SessionModelConfig, SessionThermalModel
from ..engine.cache import ThermalModelCache, resolve_cache
from ..obs.trace import RequestTrace
from ..engine.scenarios import ScenarioSpec
from ..soc.library import ALPHA15_POWER_SEED
from ..spec_utils import validate_limit_fields
from ..soc.system import SocUnderTest
from ..thermal.reduced import MemoizedSteadyOperator
from ..thermal.simulator import ThermalSimulator
from .request import ScheduleRequest, SolveReport
from .solvers import Solver, SolveContext, get_solver

if TYPE_CHECKING:
    from ..engine.jobs import JobSpec
    from ..engine.runner import BatchResult


def _builtin_scenario(name: str) -> ScenarioSpec:
    """The scenario describing a built-in platform by name.

    Routing builtins through :class:`ScenarioSpec` keeps one source of
    truth for platform construction, STC calibration and the
    vertical-path requirement; alpha15's power profile is the
    calibrated seeded draw, the other builtins ignore the seed.
    """
    seed = ALPHA15_POWER_SEED if name == "alpha15" else 0
    return ScenarioSpec(kind=name, power_seed=seed)


@dataclass
class _SharedBuild:
    """One shared model build serving a coalesced group of requests.

    Everything here is either immutable at solve time (the SoC, the
    session model, the reduced operator behind the simulator facade) or
    a pure memo keyed by exact inputs (the operator's power memo, the
    session-growth memo), so pushing many requests through one build
    sequentially produces bit-identical reports to solo solves.
    ``cache_hit`` is per-use bookkeeping: the first request of a group
    reports the underlying model-cache outcome, later ones report what
    a sequential solo run would have seen (a hit, when caching is on).
    """

    soc: SocUnderTest
    simulator: ThermalSimulator
    model: SessionThermalModel
    cache_hit: bool
    growth_memo: dict = field(default_factory=dict)


class Workbench:
    """Shared-cache facade over every registered solver.

    Parameters
    ----------
    cache:
        Thermal-model cache shared by every solve issued through this
        workbench (and by fleets run on memory-sharing backends).
        Defaults to a fresh cache with the default LRU bound
        (:data:`~repro.engine.cache.MODEL_CACHE_ENTRIES`).
    use_cache:
        Disable model sharing entirely; every solve builds its own
        network.
    """

    def __init__(
        self,
        cache: ThermalModelCache | None = None,
        use_cache: bool = True,
    ) -> None:
        self._cache = resolve_cache(cache, use_cache)

    @property
    def cache(self) -> ThermalModelCache | None:
        """The shared thermal-model cache (``None`` when disabled)."""
        return self._cache

    # -- system resolution -----------------------------------------------------------

    def _resolve_system(
        self, request: ScheduleRequest
    ) -> tuple[SocUnderTest, float, bool]:
        """Build the SoC and its model defaults (stc scale, vertical path)."""
        if request.soc is not None:
            scenario = _builtin_scenario(request.soc)
        else:
            scenario = request.scenario
            assert scenario is not None  # __post_init__ guarantees one source
        return (
            scenario.build_soc(),
            scenario.default_stc_scale(),
            scenario.needs_vertical_path(),
        )

    def _simulator_for(self, soc: SocUnderTest) -> tuple[ThermalSimulator, bool]:
        if self._cache is not None:
            return self._cache.simulator_for(soc.floorplan, soc.package, soc.adjacency)
        return ThermalSimulator(soc.floorplan, soc.package, soc.adjacency), False

    # -- the unified solve path --------------------------------------------------------

    def solve(self, request: ScheduleRequest) -> SolveReport:
        """Answer one scheduling request through the registered solver.

        Raises
        ------
        RequestError
            Unknown solver, rejected parameters, or a thermal-aware
            style solver asked to run without an STCL.
        ReproError
            Whatever the solver itself raises (infeasible limits,
            phase-A violations, ...).
        """
        solver = get_solver(request.solver)
        solver.validate_params(request.params)
        if solver.needs_stcl and not request.has_stcl:
            raise RequestError(
                f"solver {request.solver!r} needs an STCL; set stcl= or "
                f"stcl_headroom= on the request"
            )
        soc, default_scale, needs_vertical = self._resolve_system(request)
        return self._execute(
            solver=solver,
            request=request,
            soc=soc,
            params=request.params,
            tl_c=request.tl_c,
            tl_headroom=request.tl_headroom,
            stcl=request.stcl,
            stcl_headroom=request.stcl_headroom,
            include_vertical=request.include_vertical or needs_vertical,
            stc_scale=(
                request.stc_scale if request.stc_scale is not None else default_scale
            ),
        )

    def solve_batch(
        self, requests: Sequence[ScheduleRequest]
    ) -> list[SolveReport | BaseException]:
        """Answer a coalesced group of requests through shared model builds.

        Requests are processed **sequentially** against shared
        artefacts: one SoC + session model per distinct
        ``(scenario, include_vertical, stc_scale)``, one simulator
        (with a :class:`~repro.thermal.reduced.MemoizedSteadyOperator`
        and a shared session-growth memo) per distinct thermal network
        — so repeated GEMM inputs across the group are answered from
        memory, bit-identical to solo solves by construction (a memo
        hit replays the exact array a solo solve computes; nothing is
        cross-request column-stacked).

        Per-request failures are returned in place as the raised
        exception (annotated with ``solve_elapsed_s`` /
        ``solve_steady_solves`` / ``solve_cache_hit`` where possible)
        so one infeasible request never poisons its group.
        """
        shares: dict[tuple[ScenarioSpec, bool, float], _SharedBuild] = {}
        sims: dict[tuple, ThermalSimulator] = {}
        results: list[SolveReport | BaseException] = []
        for request in requests:
            start = time.perf_counter()
            try:
                results.append(self._solve_one_shared(request, shares, sims))
            except Exception as exc:
                try:
                    setattr(exc, "solve_elapsed_s", time.perf_counter() - start)
                except AttributeError:
                    pass  # exceptions with __slots__ cannot carry extras
                results.append(exc)
        return results

    def _solve_one_shared(
        self,
        request: ScheduleRequest,
        shares: dict[tuple[ScenarioSpec, bool, float], _SharedBuild],
        sims: dict[tuple, ThermalSimulator],
    ) -> SolveReport:
        """One request of a coalesced group (mirrors :meth:`solve`)."""
        solver = get_solver(request.solver)
        solver.validate_params(request.params)
        if solver.needs_stcl and not request.has_stcl:
            raise RequestError(
                f"solver {request.solver!r} needs an STCL; set stcl= or "
                f"stcl_headroom= on the request"
            )
        if request.soc is not None:
            scenario = _builtin_scenario(request.soc)
        else:
            scenario = request.scenario
            assert scenario is not None  # __post_init__ guarantees one source
        include_vertical = request.include_vertical or scenario.needs_vertical_path()
        stc_scale = (
            request.stc_scale
            if request.stc_scale is not None
            else scenario.default_stc_scale()
        )
        build_key = (scenario, include_vertical, stc_scale)
        shared = shares.get(build_key)
        if shared is None:
            soc = scenario.build_soc()
            sim_key = scenario.thermal_key()
            simulator = sims.get(sim_key)
            if simulator is None:
                base, cache_hit = self._simulator_for(soc)
                simulator = ThermalSimulator.from_handles(
                    base.model,
                    base.steady_solver,
                    MemoizedSteadyOperator(base.reduced_operator),
                )
                sims[sim_key] = simulator
            else:
                cache_hit = self._cache is not None
            shared = _SharedBuild(
                soc=soc,
                simulator=simulator,
                model=SessionThermalModel(
                    soc,
                    SessionModelConfig(
                        include_vertical=include_vertical, stc_scale=stc_scale
                    ),
                ),
                cache_hit=cache_hit,
            )
            shares[build_key] = shared
        try:
            return self._execute(
                solver=solver,
                request=request,
                soc=shared.soc,
                params=request.params,
                tl_c=request.tl_c,
                tl_headroom=request.tl_headroom,
                stcl=request.stcl,
                stcl_headroom=request.stcl_headroom,
                include_vertical=include_vertical,
                stc_scale=stc_scale,
                shared=shared,
            )
        finally:
            # The next request reusing this build sees what a
            # sequential solo run would: a model-cache hit (when on).
            shared.cache_hit = self._cache is not None

    def solve_soc(
        self,
        soc: SocUnderTest,
        solver: str = "thermal_aware",
        *,
        tl_c: float | None = None,
        tl_headroom: float | None = None,
        stcl: float | None = None,
        stcl_headroom: float | None = None,
        params: Mapping[str, Any] | None = None,
        include_vertical: bool = False,
        stc_scale: float = 1.0,
    ) -> SolveReport:
        """Solve against a prebuilt SoC (same path, no request object).

        The experiments and tests use this for systems that are not
        expressible as a :class:`ScenarioSpec` (custom floorplans,
        hand-tuned power profiles); the report's ``request`` is
        ``None``.
        """
        solver_obj = get_solver(solver)
        params = dict(params or {})
        solver_obj.validate_params(params)
        validate_limit_fields(
            tl_c=tl_c,
            tl_headroom=tl_headroom,
            stcl=stcl,
            stcl_headroom=stcl_headroom,
            error_cls=RequestError,
            stc_scale=stc_scale,
        )
        if solver_obj.needs_stcl and stcl is None and stcl_headroom is None:
            raise RequestError(
                f"solver {solver!r} needs an STCL; pass stcl= or stcl_headroom="
            )
        return self._execute(
            solver=solver_obj,
            request=None,
            soc=soc,
            params=params,
            tl_c=tl_c,
            tl_headroom=tl_headroom,
            stcl=stcl,
            stcl_headroom=stcl_headroom,
            include_vertical=include_vertical,
            stc_scale=stc_scale,
        )

    def _execute(
        self,
        *,
        solver: Solver,
        request: ScheduleRequest | None,
        soc: SocUnderTest,
        params: Mapping[str, Any],
        tl_c: float | None,
        tl_headroom: float | None,
        stcl: float | None,
        stcl_headroom: float | None,
        include_vertical: bool,
        stc_scale: float,
        shared: _SharedBuild | None = None,
    ) -> SolveReport:
        start = time.perf_counter()
        trace = RequestTrace()
        with trace.phase("model_build"):
            if shared is not None:
                simulator, cache_hit = shared.simulator, shared.cache_hit
                model = shared.model
            else:
                simulator, cache_hit = self._simulator_for(soc)
                model = SessionThermalModel(
                    soc,
                    SessionModelConfig(
                        include_vertical=include_vertical, stc_scale=stc_scale
                    ),
                )
        solves_before = simulator.steady_solve_count
        try:
            return self._resolve_and_solve(
                solver=solver,
                request=request,
                soc=soc,
                params=params,
                tl_c=tl_c,
                tl_headroom=tl_headroom,
                stcl=stcl,
                stcl_headroom=stcl_headroom,
                simulator=simulator,
                model=model,
                cache_hit=cache_hit,
                solves_before=solves_before,
                start=start,
                trace=trace,
                growth_memo=None if shared is None else shared.growth_memo,
            )
        except Exception as exc:
            # Error-record consumers (the batch runner) still want the
            # effort spent before the failure; exceptions carry it out.
            # Any exception type: run_job records non-ReproError solver
            # bugs too, and their effort must not read as zero.
            try:
                setattr(
                    exc,
                    "solve_steady_solves",
                    simulator.steady_solve_count - solves_before,
                )
                setattr(exc, "solve_cache_hit", cache_hit)
            except AttributeError:
                pass  # exceptions with __slots__ cannot carry extras
            raise

    def _resolve_and_solve(
        self,
        *,
        solver: Solver,
        request: ScheduleRequest | None,
        soc: SocUnderTest,
        params: Mapping[str, Any],
        tl_c: float | None,
        tl_headroom: float | None,
        stcl: float | None,
        stcl_headroom: float | None,
        simulator: ThermalSimulator,
        model: SessionThermalModel,
        cache_hit: bool,
        solves_before: int,
        start: float,
        trace: RequestTrace,
        growth_memo: dict | None = None,
    ) -> SolveReport:
        with trace.phase("limit_resolve"):
            if tl_c is None:
                assert tl_headroom is not None
                ambient = soc.package.ambient_c
                # Every core's singleton peak off the reduced operator's
                # diagonal (as in the scheduler's phase A).
                own = simulator.solo_block_temperatures_c(soc.test_power_map())
                peak = float(own.max())
                tl_c = ambient + tl_headroom * (peak - ambient)
            if stcl is None and stcl_headroom is not None:
                worst = max(model.singleton_stcs(range(len(soc))))
                if not math.isfinite(worst):
                    raise RequestError(
                        "a core has an infinite singleton STC under the "
                        "lateral-only session model (isolated block on a "
                        "non-tiling floorplan); set include_vertical=True"
                    )
                stcl = stcl_headroom * worst

        context = SolveContext(
            soc=soc,
            simulator=simulator,
            model=model,
            tl_c=float(tl_c),
            stcl=math.nan if stcl is None else float(stcl),
            growth_memo=growth_memo,
        )
        try:
            with trace.phase("solver"):
                result, extras = solver.solve(context, params)
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            # validate_params only vets key names; value coercion
            # happens inside the solver.  Surface bad values as the
            # library's own error so batch fleets record them instead
            # of dying and the CLI prints them instead of a traceback.
            raise RequestError(
                f"solver {solver.name!r} rejected params "
                f"{dict(params)!r}: {exc}"
            ) from exc
        elapsed_s = time.perf_counter() - start
        # "total" is the same wall clock as elapsed_s, so phase sums
        # and the headline number can never disagree.
        trace.record("total", elapsed_s)
        return SolveReport(
            solver=solver.name,
            request=request,
            tl_c=context.tl_c,
            stcl=context.stcl,
            result=result,
            elapsed_s=elapsed_s,
            steady_solves=simulator.steady_solve_count - solves_before,
            cache_hit=cache_hit,
            timings=trace.timings,
            extras=extras,
        )

    # -- fleets ------------------------------------------------------------------------

    def run_fleet(
        self,
        jobs: Sequence["JobSpec"],
        backend: str = "serial",
        max_workers: int | None = None,
        jsonl_path: str | Path | None = None,
    ) -> "BatchResult":
        """Fan a fleet of :class:`~repro.engine.jobs.JobSpec` out.

        Delegates to :class:`~repro.engine.runner.BatchRunner` with this
        workbench's cache, so single solves and fleet jobs share warm
        thermal models (on memory-sharing backends).

        Returns
        -------
        repro.engine.runner.BatchResult
        """
        from ..engine.runner import BatchRunner

        runner = BatchRunner(
            backend=backend,
            max_workers=max_workers,
            cache=self._cache,
            use_cache=self._cache is not None,
        )
        return runner.run(jobs, jsonl_path=jsonl_path)


#: Lazily created process-wide workbench behind the module-level solve().
_DEFAULT_WORKBENCH: Workbench | None = None


def default_workbench() -> Workbench:
    """The process-wide workbench used by :func:`solve` (created lazily)."""
    global _DEFAULT_WORKBENCH
    if _DEFAULT_WORKBENCH is None:
        _DEFAULT_WORKBENCH = Workbench()
    return _DEFAULT_WORKBENCH


def solve(request: ScheduleRequest) -> SolveReport:
    """Answer one request through the process-wide default workbench.

    Repeated calls share one thermal-model cache, so solving many
    requests against the same platform only factorises its network
    once.
    """
    return default_workbench().solve(request)


def execute_request(
    request: ScheduleRequest, cache: ThermalModelCache | None = None
) -> SolveReport:
    """One-shot execution path used by the batch runner's workers.

    Parameters
    ----------
    request:
        The question.
    cache:
        The worker's model cache (``None`` builds a throwaway network).
    """
    return Workbench(cache=cache, use_cache=cache is not None).solve(request)


def execute_requests_batch(
    requests: Sequence[ScheduleRequest],
    cache: ThermalModelCache | None = None,
) -> list[SolveReport | BaseException]:
    """Batch execution path used by the service's request coalescer.

    One :meth:`Workbench.solve_batch` over the whole group: shared
    model builds and memoised GEMMs, per-request reports (or in-place
    exceptions) bit-identical to solo :func:`execute_request` calls.
    """
    return Workbench(cache=cache, use_cache=cache is not None).solve_batch(
        requests
    )
