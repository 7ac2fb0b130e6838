"""The ``Solver`` protocol and the solver registry.

Every scheduling algorithm in this library — the paper's thermal-aware
Algorithm 1, the power-constrained and random baselines it argues
against, the purely sequential reference and the exact branch-and-bound
optimum — answers the same question: *given a system and limits,
produce a test schedule*.  This module gives them one calling shape.

A solver is a stateless singleton registered by name via
:func:`register_solver`.  It declares capability flags (``needs_stcl``:
does it use the STC session model and therefore require an STCL?) and
its accepted parameter names, validates request parameters before any
thermal work happens, and returns a
:class:`~repro.core.scheduler.ScheduleResult`.  Baseline solvers, which
are thermally blind by design, get their schedules annotated post hoc
with simulated temperatures so the uniform report can compare peak
temperatures and hot-spot rates across solvers.

Adding a scheduler to the comparison space is now one class::

    @register_solver
    class MySolver(Solver):
        name = "mine"
        needs_stcl = False
        param_names = frozenset({"alpha"})

        def solve(self, context, params):
            schedule = ...  # build a TestSchedule for context.soc
            return self.baseline_result(context, schedule), {}
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from ..core.baselines import (
    OptimalMinSessionsScheduler,
    PowerConstrainedConfig,
    PowerConstrainedScheduler,
    RandomScheduler,
    sequential_schedule,
)
from ..core.safety import annotate_schedule
from ..core.scheduler import SchedulerConfig, ScheduleResult, ThermalAwareScheduler
from ..core.session import TestSchedule
from ..core.session_model import SessionThermalModel
from ..errors import RequestError, SchedulingError
from ..soc.system import SocUnderTest
from ..thermal.simulator import ThermalSimulator


@dataclass(frozen=True)
class SolveContext:
    """Everything a solver needs, prepared once by the workbench.

    Attributes
    ----------
    soc:
        The built system under test.
    simulator:
        The accurate thermal simulator (possibly a facade over a shared
        cached model, shared with the group's earlier requests on the
        same system; read its effort counters as differences).
    model:
        The STC session thermal model.
    tl_c:
        Resolved absolute temperature limit (Celsius).
    stcl:
        Resolved STC limit (``nan`` when the request carried none).
    """

    soc: SocUnderTest
    simulator: ThermalSimulator
    model: SessionThermalModel
    tl_c: float
    stcl: float


class Solver(ABC):
    """One scheduling algorithm behind the unified ``solve(request)`` door.

    Class attributes
    ----------------
    name:
        Registry name (the ``solver=`` switch).
    needs_stcl:
        Capability flag: the solver uses the STC session model, so the
        request must resolve an STCL.
    param_names:
        Parameter keys this solver accepts; anything else is rejected
        by :meth:`validate_params` before thermal work starts.
    """

    name: ClassVar[str] = "abstract"
    needs_stcl: ClassVar[bool] = False
    param_names: ClassVar[frozenset[str]] = frozenset()

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject parameters the solver does not accept.

        Raises
        ------
        RequestError
            On unknown keys, with the accepted set in the message.
        """
        unknown = sorted(set(params) - self.param_names)
        if unknown:
            accepted = ", ".join(sorted(self.param_names)) or "(none)"
            raise RequestError(
                f"solver {self.name!r} does not accept params {unknown}; "
                f"accepted: {accepted}"
            )

    @abstractmethod
    def solve(
        self, context: SolveContext, params: Mapping[str, Any]
    ) -> tuple[ScheduleResult, dict[str, Any]]:
        """Produce a schedule for the prepared context.

        Returns
        -------
        (result, extras)
            The uniform scheduling result plus solver-specific
            diagnostics for the report's ``extras`` mapping.
        """

    def baseline_result(
        self, context: SolveContext, schedule: TestSchedule
    ) -> ScheduleResult:
        """Wrap a thermally blind schedule into a uniform result.

        The schedule is annotated with freshly simulated steady-state
        temperatures (the construction itself spent none — that
        blindness is the point of the baselines), so peak temperature
        and hot-spot metrics are comparable across solvers.
        """
        annotated = annotate_schedule(schedule, simulator=context.simulator)
        return ScheduleResult(
            schedule=annotated,
            tl_c=context.tl_c,
            stcl=context.stcl,
            length_s=annotated.length_s,
            effort_s=0.0,
            max_temperature_c=annotated.max_temperature_c,
            bcmt_c={},
            weights={},
        )

    def __repr__(self) -> str:
        return f"<solver {self.name!r}>"


#: Solver registry: name -> stateless singleton.
_REGISTRY: dict[str, Solver] = {}


def register_solver(cls: type[Solver]) -> type[Solver]:
    """Register a solver class under its ``name`` (usable as a decorator)."""
    name = cls.name
    if not name or name == "abstract":
        raise RequestError(f"solver {cls.__name__} needs a concrete name")
    _REGISTRY[name] = cls()
    return cls


def available_solvers() -> list[str]:
    """Registered solver names, deterministically sorted."""
    return sorted(_REGISTRY)


def get_solver(name: str) -> Solver:
    """Look a solver up by registry name.

    Raises
    ------
    RequestError
        On unknown names, listing what is available.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RequestError(
            f"unknown solver {name!r}; available: "
            f"{', '.join(available_solvers())}"
        ) from None


# -- the built-in solver fleet ---------------------------------------------------------


@register_solver
class ThermalAwareSolver(Solver):
    """The paper's Algorithm 1 (STC-guided growth, simulate, escalate)."""

    name = "thermal_aware"
    needs_stcl = True
    param_names = frozenset(
        {
            "weight_factor",
            "candidate_order",
            "on_stuck",
            "max_discards",
            "count_phase_a_effort",
            "validation",
            "transient_dt_s",
        }
    )

    def solve(
        self, context: SolveContext, params: Mapping[str, Any]
    ) -> tuple[ScheduleResult, dict[str, Any]]:
        try:
            config = SchedulerConfig(**dict(params))
        except SchedulingError as exc:
            raise SchedulingError(
                f"solver {self.name!r} rejected params {dict(params)!r}: {exc}"
            ) from None
        scheduler = ThermalAwareScheduler(
            context.soc,
            simulator=context.simulator,
            session_model=context.model,
            config=config,
        )
        result = scheduler.schedule(context.tl_c, context.stcl)
        return result, {
            "discarded": result.n_discarded,
            "forced_singletons": result.forced_singletons,
        }


@register_solver
class PowerConstrainedSolver(Solver):
    """Classic chip-level power-cap packing (first-fit / FFD).

    Parameters
    ----------
    power_limit_w:
        Absolute session power cap.  When omitted the cap is derived
        from the SoC itself as
        ``max(1.02 x biggest core, power_fraction x total test power)``,
        which keeps every generated fleet schedulable without per-SoC
        tuning.
    power_fraction:
        Fraction of the total test power used by the derived cap
        (default 0.5).
    sort_descending:
        First-fit-decreasing when true (the literature's standard).
    """

    name = "power_constrained"
    needs_stcl = False
    param_names = frozenset({"power_limit_w", "power_fraction", "sort_descending"})

    @staticmethod
    def default_power_limit_w(soc: SocUnderTest, fraction: float = 0.5) -> float:
        """The derived cap used when a request names none."""
        biggest = max(core.test_power_w for core in soc)
        return max(1.02 * biggest, fraction * soc.total_test_power_w())

    def solve(
        self, context: SolveContext, params: Mapping[str, Any]
    ) -> tuple[ScheduleResult, dict[str, Any]]:
        fraction = float(params.get("power_fraction", 0.5))
        cap = params.get("power_limit_w")
        if cap is None:
            cap = self.default_power_limit_w(context.soc, fraction)
        config = PowerConstrainedConfig(
            power_limit_w=float(cap),
            sort_descending=bool(params.get("sort_descending", True)),
        )
        schedule = PowerConstrainedScheduler(context.soc, config).schedule()
        return self.baseline_result(context, schedule), {
            "power_limit_w": config.power_limit_w
        }


@register_solver
class SequentialSolver(Solver):
    """One core per session, input order — the longest sensible schedule."""

    name = "sequential"
    needs_stcl = False
    param_names = frozenset()

    def solve(
        self, context: SolveContext, params: Mapping[str, Any]
    ) -> tuple[ScheduleResult, dict[str, Any]]:
        schedule = sequential_schedule(context.soc)
        return self.baseline_result(context, schedule), {}


@register_solver
class RandomSolver(Solver):
    """Seeded random packing under an optional power cap (sanity baseline)."""

    name = "random"
    needs_stcl = False
    param_names = frozenset({"seed", "power_limit_w"})

    def solve(
        self, context: SolveContext, params: Mapping[str, Any]
    ) -> tuple[ScheduleResult, dict[str, Any]]:
        cap = params.get("power_limit_w")
        scheduler = RandomScheduler(
            context.soc,
            seed=int(params.get("seed", 0)),
            power_limit_w=None if cap is None else float(cap),
        )
        schedule = scheduler.schedule()
        return self.baseline_result(context, schedule), {}


@register_solver
class OptimalMinSessionsSolver(Solver):
    """Exact branch-and-bound minimum-session search (small SoCs only)."""

    name = "optimal"
    needs_stcl = False
    param_names = frozenset({"max_cores"})

    def solve(
        self, context: SolveContext, params: Mapping[str, Any]
    ) -> tuple[ScheduleResult, dict[str, Any]]:
        scheduler = OptimalMinSessionsScheduler(
            context.soc,
            simulator=context.simulator,
            max_cores=int(params.get("max_cores", 12)),
        )
        schedule = scheduler.schedule(context.tl_c)
        result = self.baseline_result(context, schedule)
        return result, {"thermal_solve_count": scheduler.thermal_solve_count}
