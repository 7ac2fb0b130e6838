"""Thermal-aware test schedule generation — the paper's Algorithm 1.

The flow (Section 3 of the paper):

* **Phase A (lines 1-7)** — simulate every core tested alone and record
  its *best-case max temperature* (BCMT).  A core whose BCMT already
  reaches the limit ``TL`` cannot be scheduled at all; the paper fixes
  this by redesigning the core's test infrastructure or raising ``TL``,
  neither of which an algorithm can do, so we raise
  :class:`~repro.errors.CoreThermalViolationError`.
* **Phase B (lines 8-28)** — repeatedly grow a test session by scanning
  the unscheduled cores in order and admitting each core whose addition
  keeps the session thermal characteristic within the limit
  (``STC(TS) <= STCL``); then validate the full session with an
  accurate thermal simulation.  On any violation (``MaxTemp >= TL``)
  the session is discarded and the violators' weights are escalated
  (``W *= 1.1``), making them look hotter to the STC heuristic on the
  next attempt; otherwise the session is committed and its cores
  retired.  Loop until every core is scheduled.

Two metrics instrument the run exactly as the paper reports them:

* *test schedule length* — the sum of committed session durations;
* *simulation effort* — the total session time submitted to the
  accurate simulator in phase B, **including discarded sessions**.
  Phase-A singleton simulations are not counted (the paper's "for very
  tight constraints the simulation effort equals the schedule length"
  observation only holds under this accounting).

Termination: every discarded session strictly escalates at least one
weight by a factor > 1, so any session that keeps violating eventually
exceeds ``STCL`` and stops being proposed; in the limit only singleton
sessions remain, and phase A guarantees those commit.  With
``weight_factor = 1.0`` (ablation: no feedback) that argument fails, so
the scheduler additionally enforces ``max_discards``.

One situation the paper's pseudocode does not handle: no remaining core
fits an *empty* session (its singleton STC already exceeds ``STCL``,
e.g. after heavy weight escalation or under an unrealistically tight
limit).  ``on_stuck`` selects between forcing the best core through as
a singleton (default; a singleton is thermally identical to its phase-A
simulation, so it always commits) or raising
:class:`~repro.errors.ScheduleInfeasibleError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence, get_args

import numpy as np

from ..errors import (
    CoreThermalViolationError,
    ScheduleInfeasibleError,
    SchedulingError,
)
from ..soc.system import SocUnderTest
from ..spec_utils import is_finite_number, is_integer, is_positive_number
from ..thermal.simulator import ThermalSimulator
from .session import TestSchedule, TestSession
from .session_model import (
    PAPER_SESSION_MODEL,
    GrowthPass,
    SessionModelConfig,
    SessionThermalModel,
)

#: The paper's weight escalation factor (Algorithm 1, line 20).
PAPER_WEIGHT_FACTOR = 1.1

#: Candidate-scan orders for session growth (paper: input order).
CandidateOrder = Literal["input", "power_desc", "area_asc", "density_desc"]
OnStuck = Literal["force", "error"]
Validation = Literal["steady", "transient"]
SteadyPath = Literal["reduced", "dense"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the thermal-aware scheduler.

    Attributes
    ----------
    weight_factor:
        Escalation factor for violating cores (paper: 1.1; 1.0 turns
        the feedback loop off for the ablation study).
    candidate_order:
        Order in which unscheduled cores are scanned when growing a
        session.  The paper scans "FOR EACH Ci in A" without further
        qualification, i.e. input order; the alternatives are provided
        for sensitivity studies.
    on_stuck:
        Behaviour when no core fits an empty session: ``"force"``
        commits the lowest-STC core as a singleton; ``"error"`` raises.
    max_discards:
        Hard cap on discarded sessions per run (safety net; the paper's
        configuration terminates long before hitting it).
    count_phase_a_effort:
        When true, phase-A singleton simulations are added to the
        simulation-effort metric.  The paper does not count them.
    validation:
        How sessions are thermally validated.  ``"steady"`` is the
        paper's modification M1 (steady-state temperatures, a
        conservative upper bound).  ``"transient"`` validates against
        the actual transient peak over the session duration starting
        from ambient — tighter, so schedules pack harder, at the cost
        of a (far) more expensive simulation per attempt.  The M1
        validation study (`repro.experiments.m1_validation`) quantifies
        the gap between the two.
    transient_dt_s:
        Integration step for ``"transient"`` validation.
    steady_path:
        How ``"steady"`` validations are computed.  ``"reduced"``
        (default) applies the precomputed block-level influence
        operator — one small matvec per candidate session, with phase A
        read off the operator's diagonal.  ``"dense"`` issues a full-network
        back-substitution per candidate (the pre-reduced behaviour);
        it exists for equivalence testing and benchmarking, and the two
        agree to solver precision (same factorisation, superposed).
    """

    weight_factor: float = PAPER_WEIGHT_FACTOR
    candidate_order: CandidateOrder = "input"
    on_stuck: OnStuck = "force"
    max_discards: int = 10_000
    count_phase_a_effort: bool = False
    validation: Validation = "steady"
    transient_dt_s: float = 1e-2
    steady_path: SteadyPath = "reduced"

    def __post_init__(self) -> None:
        # Request params reach this constructor straight from JSON, so
        # every field is checked for type as well as range: a NaN cap
        # never ends the discard loop and a NaN factor poisons weights.
        if not (is_finite_number(self.weight_factor) and self.weight_factor >= 1.0):
            raise SchedulingError(
                f"weight_factor must be a finite number >= 1.0, got "
                f"{self.weight_factor!r}"
            )
        if not (is_integer(self.max_discards) and self.max_discards >= 1):
            raise SchedulingError(
                f"max_discards must be an integer >= 1, got {self.max_discards!r}"
            )
        if not is_positive_number(self.transient_dt_s):
            raise SchedulingError(
                f"transient_dt_s must be a finite positive number, got "
                f"{self.transient_dt_s!r}"
            )
        if not isinstance(self.count_phase_a_effort, bool):
            raise SchedulingError(
                f"count_phase_a_effort must be a bool, got "
                f"{self.count_phase_a_effort!r}"
            )
        for name, allowed in (
            ("candidate_order", get_args(CandidateOrder)),
            ("on_stuck", get_args(OnStuck)),
            ("validation", get_args(Validation)),
            ("steady_path", get_args(SteadyPath)),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise SchedulingError(
                    f"{name} must be one of {', '.join(allowed)}; got {value!r}"
                )


#: Configuration matching the paper exactly.
PAPER_SCHEDULER = SchedulerConfig()


@dataclass(frozen=True)
class DiscardedSession:
    """Record of a session rejected by thermal validation.

    Attributes
    ----------
    cores:
        The candidate session's cores.
    duration_s:
        Its duration (charged to simulation effort).
    violators:
        Cores whose simulated temperature reached ``TL``.
    max_temperature_c:
        Peak simulated temperature over the session's cores.
    iteration:
        1-based phase-B iteration number.
    """

    cores: tuple[str, ...]
    duration_s: float
    violators: tuple[str, ...]
    max_temperature_c: float
    iteration: int


@dataclass(frozen=True)
class ScheduleResult:
    """Everything a thermal-aware scheduling run produced.

    Attributes
    ----------
    schedule:
        The committed, thermally validated test schedule.
    tl_c, stcl:
        The limits the run was given.
    length_s:
        Test schedule length (the paper's first metric).
    effort_s:
        Simulation effort in seconds of simulated session time (the
        paper's second metric).
    max_temperature_c:
        Peak simulated temperature over the final schedule (the paper's
        third metric, Table 1 column 5).
    bcmt_c:
        Phase-A best-case max temperature per core.
    weights:
        Final weight of every core.
    discarded:
        All rejected sessions, in order.
    forced_singletons:
        How many sessions had to be forced through the ``on_stuck``
        path (0 in every paper-regime run).
    steady_solves:
        Steady-state queries the run made of the simulator, one per
        power map Algorithm 1 asks about: one per core in phase A (read
        off the influence matrix's diagonal on the reduced path) and
        one per phase-B validation, whether computed or repeated (a
        session grown again after its discard reuses its temperatures
        but still counts).  Transient validation makes no steady query.
        Unlike ``effort_s`` (simulated seconds, the paper's metric) it
        counts queries, not seconds.
    """

    schedule: TestSchedule
    tl_c: float
    stcl: float
    length_s: float
    effort_s: float
    max_temperature_c: float
    bcmt_c: Mapping[str, float]
    weights: Mapping[str, float]
    discarded: tuple[DiscardedSession, ...] = field(default_factory=tuple)
    forced_singletons: int = 0
    steady_solves: int = 0

    @property
    def n_sessions(self) -> int:
        """Number of committed sessions."""
        return len(self.schedule)

    @property
    def n_discarded(self) -> int:
        """Number of rejected sessions."""
        return len(self.discarded)

    def describe(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [
            f"Thermal-aware schedule (TL={self.tl_c:g} degC, STCL={self.stcl:g}): "
            f"length {self.length_s:g} s, effort {self.effort_s:g} s, "
            f"max temp {self.max_temperature_c:.2f} degC",
            self.schedule.describe(),
        ]
        if self.steady_solves:
            lines.append(f"  steady-state solves: {self.steady_solves}")
        if self.discarded:
            lines.append(f"  discarded sessions: {self.n_discarded}")
        if self.forced_singletons:
            lines.append(f"  forced singletons: {self.forced_singletons}")
        return "\n".join(lines)


class ThermalAwareScheduler:
    """Algorithm 1 of the paper, bound to one SoC.

    Parameters
    ----------
    soc:
        The system under test.
    simulator:
        The accurate thermal simulator (built from the SoC's floorplan
        and package when omitted) — the HotSpot stand-in.
    session_model:
        The STC session model (built with the paper configuration when
        omitted).
    config:
        Scheduler tunables (defaults reproduce the paper).
    """

    def __init__(
        self,
        soc: SocUnderTest,
        simulator: ThermalSimulator | None = None,
        session_model: SessionThermalModel | None = None,
        session_model_config: SessionModelConfig = PAPER_SESSION_MODEL,
        config: SchedulerConfig = PAPER_SCHEDULER,
    ) -> None:
        self._soc = soc
        self._simulator = (
            simulator
            if simulator is not None
            else ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        )
        self._model = (
            session_model
            if session_model is not None
            else SessionThermalModel(soc, session_model_config)
        )
        self._config = config

    @property
    def soc(self) -> SocUnderTest:
        """The system under test."""
        return self._soc

    @property
    def simulator(self) -> ThermalSimulator:
        """The accurate thermal simulator used for validation."""
        return self._simulator

    @property
    def session_model(self) -> SessionThermalModel:
        """The STC session model guiding session growth."""
        return self._model

    @property
    def config(self) -> SchedulerConfig:
        """The scheduler configuration."""
        return self._config

    # -- phase A ------------------------------------------------------------------

    def _use_reduced(self) -> bool:
        return (
            self._config.validation == "steady"
            and self._config.steady_path == "reduced"
        )

    def _session_temperatures(
        self, power_map: dict[str, float], duration_s: float, cores: Sequence[str]
    ) -> np.ndarray:
        """Per-core validation temperatures off the reduced path.

        Returns an array aligned with *cores* (Celsius).  ``"steady"``
        uses the cached full-network solve (the ``"dense"`` path of the
        paper's M1); ``"transient"`` uses the true transient peak over
        the session duration starting from ambient.
        """
        if self._config.validation == "steady":
            field_ = self._simulator.steady_state(power_map)
            return np.array([field_.temperature_c(c) for c in cores])
        peaks = self._simulator.block_peak_transient_c(
            power_map, duration_s, dt=self._config.transient_dt_s
        )
        return np.array([peaks[c] for c in cores])

    def best_case_max_temperatures(self) -> tuple[dict[str, float], float]:
        """Simulate the purely sequential schedule (lines 1-3).

        On the reduced steady path a core tested alone reaches ambient
        plus its power times its self resistance, so phase A reads the
        influence operator's diagonal
        (:meth:`~repro.thermal.simulator.ThermalSimulator.solo_block_temperatures_c`).

        Returns
        -------
        (bcmt, effort_s)
            Per-core best-case max temperature (Celsius), in candidate
            order, and the simulated time spent (only charged to the
            effort metric when :attr:`SchedulerConfig.count_phase_a_effort`
            is set).
        """
        every = list(self._soc)
        cores = [every[i] for i in self._candidate_order()]
        effort = sum(core.test_time_s for core in cores)
        if self._use_reduced():
            own = self._simulator.solo_block_temperatures_c(
                {core.name: core.test_power_w for core in cores}
            )
            return dict(zip((core.name for core in cores), own.tolist())), effort

        bcmt: dict[str, float] = {}
        for core in cores:
            temps = self._session_temperatures(
                {core.name: core.test_power_w}, core.test_time_s, [core.name]
            )
            bcmt[core.name] = float(temps[0])
        return bcmt, effort

    # -- phase B helpers -------------------------------------------------------------

    def _candidate_order(self) -> list[int]:
        """Every core's floorplan index, in candidate-scan order."""
        order = self._config.candidate_order
        indices = list(range(len(self._soc)))
        if order == "input":
            return indices
        power = [core.test_power_w for core in self._soc]
        area = [block.area for block in self._soc.floorplan]
        if order == "power_desc":
            return sorted(indices, key=lambda i: -power[i])
        if order == "area_asc":
            return sorted(indices, key=lambda i: area[i])
        if order == "density_desc":
            return sorted(indices, key=lambda i: -power[i] / area[i])
        raise SchedulingError(f"unknown candidate order {order!r}")

    # -- the full flow ----------------------------------------------------------------

    def schedule(self, tl_c: float, stcl: float) -> ScheduleResult:
        """Generate a thermal-safe test schedule.

        Phase B runs on core indices in floorplan order: pending cores,
        weights and growth passes are index lists, and names appear
        only in what the result records.  The session model's ``Rth``
        memo lives on its resistance table, so it outlives the run.
        After a grown session is discarded,
        :meth:`~repro.core.session_model.SessionThermalModel.repeats`
        decides whether the retry's pass would admit the same cores; if
        so the pass is skipped, and so is the simulation: the same
        session has the same temperatures and violators, which are
        reused and counted again (effort, one steady solve on the steady
        paths, a :class:`DiscardedSession`), so the result is the one
        every pass and every validation give.

        Parameters
        ----------
        tl_c:
            Maximum allowable temperature ``TL`` (Celsius); a simulated
            core temperature **at or above** this value is a violation
            (the paper's ``MaxTemp >= TL`` test, line 19).
        stcl:
            Session thermal characteristic limit ``STCL``.

        Returns
        -------
        ScheduleResult

        Raises
        ------
        CoreThermalViolationError
            When a core violates ``TL`` even tested alone (phase A).
        ScheduleInfeasibleError
            When ``on_stuck="error"`` and no core fits an empty
            session, or ``max_discards`` is exhausted.
        """
        if not math.isfinite(tl_c):
            raise SchedulingError(f"TL must be finite, got {tl_c!r}")
        if not (math.isfinite(stcl) and stcl > 0.0):
            raise SchedulingError(f"STCL must be positive and finite, got {stcl!r}")
        config = self._config
        simulator = self._simulator
        solves_before = simulator.steady_solve_count

        # Phase A: individual-core thermal sanity (lines 1-7).
        bcmt, phase_a_effort = self.best_case_max_temperatures()
        for name, temperature in bcmt.items():
            if temperature >= tl_c:
                raise CoreThermalViolationError(name, temperature, tl_c)

        # Phase B: session packing (lines 8-28).
        names = self._soc.core_names
        power = [core.test_power_w for core in self._soc]
        test_time = [core.test_time_s for core in self._soc]
        steady = config.validation == "steady"
        reduced = self._use_reduced()
        if reduced:
            operator = simulator.reduced_operator
            columns = [operator.index_of(name) for name in names]
        weights = [1.0] * len(names)
        pending = self._candidate_order()
        committed: list[TestSession] = []
        discarded: list[DiscardedSession] = []
        effort_s = phase_a_effort if config.count_phase_a_effort else 0.0
        forced_singletons = 0
        iteration = 0
        model = self._model
        # The last growth pass, while the next one would admit the same cores.
        grown: GrowthPass | None = None

        while pending:
            iteration += 1
            if grown is None:
                # Lines 9-15: one growth pass over the pending cores.
                grown = model.grow(pending, stcl, weights)
                session = grown.cores
                if not session:
                    in_input_order = sorted(pending)
                    if config.on_stuck == "error":
                        raise ScheduleInfeasibleError(
                            f"no remaining core fits an empty session at "
                            f"STCL={stcl:g} (pending: "
                            f"{[names[i] for i in in_input_order]}); weights "
                            f"may have escalated past the limit"
                        )
                    stcs = model.singleton_stcs(in_input_order, weights)
                    session = [in_input_order[stcs.index(min(stcs))]]
                    forced_singletons += 1
                session_cores = tuple(names[i] for i in session)
                duration = max(test_time[i] for i in session)
                # Validate the session with the accurate simulator.
                if reduced:
                    temps = simulator.block_steady_temperatures_c(
                        [columns[i] for i in session], [power[i] for i in session]
                    )
                else:
                    temps = self._session_temperatures(
                        self._soc.session_power_map(session_cores),
                        duration,
                        session_cores,
                    )
                # Vectorised violator detection: one comparison against TL
                # over the whole session instead of a per-core Python loop.
                raised = (temps >= tl_c).nonzero()[0].tolist()
            elif steady:
                # The session just discarded, grown again: the same cores
                # and powers, so the same temperatures and violators.  The
                # query still counts, as the steady solve it repeats did.
                simulator.charge_steady_solve()
            effort_s += duration

            if raised:
                # Lines 19-22: discard, escalate, retry.
                for k in raised:
                    weights[session[k]] = weights[session[k]] * config.weight_factor
                discarded.append(
                    DiscardedSession(
                        cores=session_cores,
                        duration_s=duration,
                        violators=tuple(session_cores[k] for k in raised),
                        max_temperature_c=float(temps.max()),
                        iteration=iteration,
                    )
                )
                if len(discarded) >= config.max_discards:
                    raise ScheduleInfeasibleError(
                        f"exceeded max_discards={config.max_discards} at "
                        f"TL={tl_c:g}, STCL={stcl:g}; the weight feedback is not "
                        f"converging (weight_factor={config.weight_factor:g})"
                    )
                # Only the violators' weights rose: until one of them
                # prices past STCL, the retry's growth pass would admit
                # the same cores, so the loop skips it and reuses this
                # validation.  A forced singleton was never grown.
                if not (grown.cores and model.repeats(grown, raised, stcl, weights)):
                    grown = None
                continue

            # Lines 24-27: commit the session.
            committed.append(
                TestSession(cores=session_cores, duration_s=duration).with_temperatures(
                    dict(zip(session_cores, temps.tolist()))
                )
            )
            retained = set(session)
            pending = [i for i in pending if i not in retained]
            grown = None

        schedule = TestSchedule(committed, self._soc)
        return ScheduleResult(
            schedule=schedule,
            tl_c=tl_c,
            stcl=stcl,
            length_s=schedule.length_s,
            effort_s=effort_s,
            max_temperature_c=schedule.max_temperature_c,
            bcmt_c=bcmt,
            weights=dict(zip(names, weights)),
            discarded=tuple(discarded),
            forced_singletons=forced_singletons,
            steady_solves=simulator.steady_solve_count - solves_before,
        )
