"""The workbench: one front door for single solves, groups and whole fleets.

:class:`Workbench` owns a shared
:class:`~repro.engine.cache.ThermalModelCache` and routes every
scheduling question through one path — take the shared system, borrow
a thermal model from the cache, build its session model, resolve the
limits, dispatch to the registered solver, report uniformly.  A single
request (:meth:`Workbench.solve`) and each request of a group
(:meth:`Workbench.solve_batch`) take that path alone; requests about
the same system meet in the process's SoC memo and the model cache.
Prebuilt SoCs (:meth:`Workbench.solve_soc`) and generated fleets
(:meth:`Workbench.run_fleet`, which fans a batch out over an execution
backend with the *same* cache) share the path too.

Module-level :func:`solve` is the one-liner for scripts::

    from repro.api import ScheduleRequest, solve

    report = solve(ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0))
    print(report.describe())
"""

from __future__ import annotations

import dataclasses
import math
import time
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..errors import ReproError, RequestError
from ..core.session_model import SessionModelConfig, SessionThermalModel
from ..engine.cache import ThermalModelCache, resolve_cache
from ..obs.trace import RequestTrace
from ..engine.scenarios import BUILTIN_KINDS, ScenarioSpec
from ..soc.library import ALPHA15_POWER_SEED
from ..spec_utils import validate_limit_fields
from ..soc.system import SocUnderTest
from ..thermal.simulator import ThermalSimulator
from .request import ScheduleRequest, SolveReport
from .solvers import Solver, SolveContext, get_solver

if TYPE_CHECKING:
    from ..engine.runner import BatchResult


@lru_cache(maxsize=len(BUILTIN_KINDS))
def _builtin_scenario(name: str) -> ScenarioSpec:
    """The scenario describing a built-in platform by name.

    Routing builtins through :class:`ScenarioSpec` keeps one source of
    truth for platform construction, STC calibration and the
    vertical-path requirement; alpha15's power profile is the
    calibrated seeded draw, the other builtins ignore the seed.  Each
    name has one spec, so a request naming a platform makes none.
    """
    seed = ALPHA15_POWER_SEED if name == "alpha15" else 0
    return ScenarioSpec(kind=name, power_seed=seed)


def _annotate(exc: BaseException, **fields: Any) -> None:
    """Attach effort figures to a failure for error-record consumers."""
    try:
        for name, value in fields.items():
            setattr(exc, name, value)
    except AttributeError:
        pass  # exceptions with __slots__ cannot carry extras


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
        if request.soc is not None:
            scenario = _builtin_scenario(request.soc)
        else:
            scenario = request.scenario
            assert scenario is not None  # __post_init__ guarantees one source
        return self._execute(
            solver=solver,
            request=request,
            # Built outside the request's trace: a worker's wall time
            # shows it as the gap between its ``worker`` and ``total``.
            soc=scenario.build_soc(),
            include_vertical=(
                request.include_vertical or scenario.needs_vertical_path()
            ),
            stc_scale=(
                request.stc_scale
                if request.stc_scale is not None
                else scenario.default_stc_scale()
            ),
            params=request.params,
            tl_c=request.tl_c,
            tl_headroom=request.tl_headroom,
            stcl=request.stcl,
            stcl_headroom=request.stcl_headroom,
        )

    def solve_batch(
        self, requests: Sequence[ScheduleRequest]
    ) -> list[SolveReport | BaseException]:
        """Answer a group of requests, one :meth:`solve` after another.

        Each report equals the report of a solo solve, ``elapsed_s`` and
        ``timings`` aside, and its ``cache_hit`` is what the solo solve
        at that point would see: a request about a system an earlier
        one just solved finds its model in the cache, when caching is
        on.

        Each answer carries its own wall time in this call, SoC build
        included: a report as its ``worker`` phase, a failure as
        ``solve_elapsed_s``.  Per-request failures are returned in
        place as the raised exception (also annotated with
        ``solve_steady_solves`` / ``solve_cache_hit`` where possible),
        so one infeasible request never poisons its group.
        """
        results: list[SolveReport | BaseException] = []
        for request in requests:
            start = time.perf_counter()
            try:
                report = self.solve(request)
            except Exception as exc:
                _annotate(exc, solve_elapsed_s=time.perf_counter() - start)
                results.append(exc)
                continue
            worker_s = time.perf_counter() - start
            results.append(
                dataclasses.replace(
                    report, timings={**(report.timings or {}), "worker": worker_s}
                )
            )
        return results

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
            include_vertical=include_vertical,
            stc_scale=stc_scale,
            params=params,
            tl_c=tl_c,
            tl_headroom=tl_headroom,
            stcl=stcl,
            stcl_headroom=stcl_headroom,
        )

    def _execute(
        self,
        *,
        solver: Solver,
        request: ScheduleRequest | None,
        soc: SocUnderTest,
        include_vertical: bool,
        stc_scale: float,
        params: Mapping[str, Any],
        tl_c: float | None,
        tl_headroom: float | None,
        stcl: float | None,
        stcl_headroom: float | None,
    ) -> SolveReport:
        """Solve on *soc* over its cached simulator and a new session model."""
        start = time.perf_counter()
        trace = RequestTrace()
        with trace.phase("model_build"):
            if self._cache is not None:
                simulator, cache_hit = self._cache.simulator_for(
                    soc.floorplan, soc.package, soc.adjacency
                )
            else:
                simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
                cache_hit = False
            model = SessionThermalModel(
                soc,
                SessionModelConfig(
                    include_vertical=include_vertical, stc_scale=stc_scale
                ),
            )
        try:
            with trace.phase("limit_resolve"):
                if tl_c is None:
                    assert tl_headroom is not None
                    ambient = soc.package.ambient_c
                    # Every core's singleton peak off the reduced
                    # operator's diagonal (as in the scheduler's phase A).
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
            )
            try:
                with trace.phase("solver"):
                    result, extras = solver.solve(context, params)
            except ReproError:
                raise
            except (TypeError, ValueError) as exc:
                # validate_params only vets key names; value coercion
                # happens inside the solver.  Surface bad values as the
                # library's own error so batch fleets record them
                # instead of dying and the CLI prints them instead of a
                # traceback.
                raise RequestError(
                    f"solver {solver.name!r} rejected params "
                    f"{dict(params)!r}: {exc}"
                ) from exc
        except Exception as exc:
            # Error-outcome consumers (service and batch) still want the
            # effort spent before the failure; exceptions carry it out.
            # Any exception type: a worker records non-ReproError solver
            # bugs too, and their effort must not read as zero.
            _annotate(
                exc,
                solve_steady_solves=simulator.steady_solve_count,
                solve_cache_hit=cache_hit,
            )
            raise
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
            steady_solves=simulator.steady_solve_count,
            cache_hit=cache_hit,
            timings=trace.timings,
            extras=extras,
        )

    # -- fleets ------------------------------------------------------------------------

    def run_fleet(
        self,
        jobs: Mapping[str, ScheduleRequest],
        backend: str = "serial",
        max_workers: int | None = None,
        jsonl_path: str | Path | None = None,
    ) -> "BatchResult":
        """Fan a fleet (job id -> :class:`ScheduleRequest`) out.

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
