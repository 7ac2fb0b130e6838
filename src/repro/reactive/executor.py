"""Closed-loop execution of a thermal-safe test schedule.

The paper's schedules are generated a priori and executed open-loop.
:class:`ReactiveExecutor` runs one session-by-session against a
:class:`~repro.reactive.sensor.VirtualSensor` and lets a
:class:`~repro.reactive.guard.ThermalGuard` steer the run:

* **throttle** — in ELEVATED the remaining test time of the current
  session is stretched at reduced power (work done scales with the
  throttle factor, so a session throttled at 0.5 takes twice as long
  to finish its remaining work);
* **pause** — in CRITICAL all test power is dropped and the die cools
  until the guard downgrades (hysteresis applies);
* **reorder** — at a session boundary in ELEVATED the executor picks,
  among the remaining sessions, the one predicted to heat the current
  hottest block least — a single batched reduced-operator evaluation
  (`block_steady_state_batch`, one GEMM over the remaining sessions'
  power maps against the influence matrix the scheduler validates
  candidate sessions with).

Everything is driven by simulated time from the sensor, so a run is
bit-reproducible: same schedule, config, and step size give the
identical event timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..errors import ReactiveError
from ..thermal.simulator import ThermalSimulator
from .guard import GuardAnalysis, GuardConfig, ThermalGuard, ThermalState
from .sensor import VirtualSensor

if TYPE_CHECKING:
    from ..core.scheduler import ScheduleResult
    from ..core.session import TestSchedule

__all__ = [
    "EVENT_KINDS",
    "ReactiveConfig",
    "ReactiveEvent",
    "ReactiveExecutor",
    "ReactiveRunReport",
    "run_schedule_result",
]

#: Every event kind a reactive run can emit, in no particular order.
EVENT_KINDS = (
    "queued",
    "running",
    "throttled",
    "restored",
    "paused",
    "resumed",
    "reordered",
    "session_done",
    "done",
)


@dataclass(frozen=True)
class ReactiveConfig:
    """Control-loop knobs of a :class:`ReactiveExecutor`.

    ``chunk_s`` is the control period: the executor advances the
    sensor that far between guard decisions.  ``throttle_factor``
    scales session power in ELEVATED; the session's remaining work is
    stretched by its inverse.  ``pause_s`` is how long one cooling
    interval lasts in CRITICAL; ``max_pause_s`` bounds the total time
    a single run may spend paused before giving up.
    """

    chunk_s: float = 0.02
    throttle_factor: float = 0.5
    pause_s: float = 0.05
    max_pause_s: float = 30.0
    reorder: bool = True

    def __post_init__(self) -> None:
        if self.chunk_s <= 0.0:
            raise ReactiveError(
                f"control period must be positive, got {self.chunk_s!r}"
            )
        if not 0.0 < self.throttle_factor < 1.0:
            raise ReactiveError(
                f"throttle factor must be in (0, 1), got "
                f"{self.throttle_factor!r}"
            )
        if self.pause_s <= 0.0:
            raise ReactiveError(
                f"pause interval must be positive, got {self.pause_s!r}"
            )
        if self.max_pause_s < self.pause_s:
            raise ReactiveError(
                f"pause budget ({self.max_pause_s!r} s) is below one pause "
                f"interval ({self.pause_s!r} s)"
            )


@dataclass(frozen=True)
class ReactiveEvent:
    """One entry of a reactive run's timeline."""

    seq: int
    kind: str
    time_s: float
    session: int | None
    cores: tuple[str, ...]
    guard_state: str
    max_temperature_c: float
    hottest_block: str
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "time_s": self.time_s,
            "session": self.session,
            "cores": list(self.cores),
            "guard_state": self.guard_state,
            "max_temperature_c": self.max_temperature_c,
            "hottest_block": self.hottest_block,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ReactiveRunReport:
    """Outcome of one closed-loop (or open-loop) run."""

    events: tuple[ReactiveEvent, ...]
    total_time_s: float
    work_s: float
    peak_temperature_c: float
    peak_block: str
    peak_by_block: Mapping[str, float]
    throttles: int
    pauses: int
    reorders: int
    guard_transitions: Mapping[str, int]
    dwell_s: Mapping[str, float]
    samples: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "events": [event.to_dict() for event in self.events],
            "total_time_s": self.total_time_s,
            "work_s": self.work_s,
            "peak_temperature_c": self.peak_temperature_c,
            "peak_block": self.peak_block,
            "peak_by_block": dict(self.peak_by_block),
            "throttles": self.throttles,
            "pauses": self.pauses,
            "reorders": self.reorders,
            "guard_transitions": dict(self.guard_transitions),
            "dwell_s": dict(self.dwell_s),
            "samples": self.samples,
        }

    def describe(self) -> str:
        """One-paragraph human summary."""
        stretch = self.total_time_s / self.work_s if self.work_s else 1.0
        return (
            f"reactive run: {self.work_s:g} s of test work in "
            f"{self.total_time_s:g} s (x{stretch:.2f}), peak "
            f"{self.peak_temperature_c:.2f} C on {self.peak_block}, "
            f"{self.throttles} throttle(s), {self.pauses} pause(s), "
            f"{self.reorders} reorder(s), "
            f"{sum(self.guard_transitions.values())} guard transition(s)"
        )


@dataclass
class _SessionState:
    """A pending session with its remaining work at full power."""

    index: int
    cores: tuple[str, ...]
    power: dict[str, float]
    remaining_s: float
    duration_s: float = field(init=False)

    def __post_init__(self) -> None:
        self.duration_s = self.remaining_s


class ReactiveExecutor:
    """Runs a schedule session-by-session under thermal-guard control."""

    def __init__(
        self,
        sensor: VirtualSensor,
        guard: ThermalGuard,
        config: ReactiveConfig | None = None,
        *,
        on_event: Callable[[ReactiveEvent], None] | None = None,
    ) -> None:
        self._sensor = sensor
        self._guard = guard
        self._config = config or ReactiveConfig()
        self._on_event = on_event
        self._events: list[ReactiveEvent] = []
        self._peak_by_block: dict[str, float] = {}
        self._samples = 0
        self._last: GuardAnalysis | None = None
        self._throttles = 0
        self._pauses = 0
        self._reorders = 0

    # -- event emission ------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        session: _SessionState | None = None,
        detail: str = "",
    ) -> None:
        analysis = self._last
        event = ReactiveEvent(
            seq=len(self._events),
            kind=kind,
            time_s=self._sensor.time_s,
            session=session.index if session is not None else None,
            cores=session.cores if session is not None else (),
            guard_state=self._guard.state.value,
            max_temperature_c=(
                analysis.max_temperature_c if analysis is not None else 0.0
            ),
            hottest_block=(
                analysis.hottest_block if analysis is not None else ""
            ),
            detail=detail,
        )
        self._events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    # -- sensing -------------------------------------------------------------------

    def _advance(
        self, power: Mapping[str, float], duration_s: float
    ) -> GuardAnalysis:
        """Advance the die one control chunk; return the last analysis."""
        samples = self._sensor.advance(power, duration_s)
        analysis = self._last
        for sample in samples:
            analysis = self._guard.update(sample)
            for block, temp in sample.temperatures_c.items():
                if temp > self._peak_by_block.get(block, float("-inf")):
                    self._peak_by_block[block] = temp
        self._samples += len(samples)
        if analysis is None:  # pragma: no cover - advance always samples
            raise ReactiveError("sensor advance produced no samples")
        self._last = analysis
        return analysis

    # -- re-planning ---------------------------------------------------------------

    def _pick_next(self, pending: list[_SessionState]) -> int:
        """Index into *pending* of the session to run next.

        In ELEVATED (with reordering on) the remaining sessions are
        batch-evaluated with the reduced steady-state operator and the
        one predicted to heat the currently hottest block least wins;
        ties keep schedule order.  Otherwise: schedule order.
        """
        if (
            not self._config.reorder
            or len(pending) < 2
            or self._last is None
            or self._guard.state is not ThermalState.ELEVATED
        ):
            return 0
        hot_block = self._last.hottest_block
        batch = self._sensor.simulator.block_steady_state_batch(
            [session.power for session in pending]
        )
        best = 0
        best_temp = float("inf")
        for j, session in enumerate(pending):
            predicted = batch.field(j).temperature_c(hot_block)
            if predicted < best_temp - 1e-12:
                best = j
                best_temp = predicted
        return best

    # -- the control loop ----------------------------------------------------------

    def run(
        self,
        schedule: TestSchedule,
        *,
        closed_loop: bool = True,
    ) -> ReactiveRunReport:
        """Execute *schedule*; with ``closed_loop=False`` the guard still
        observes (and the timeline is still recorded) but never acts —
        the open-loop baseline the acceptance tests compare against."""
        soc = schedule.soc
        pending = [
            _SessionState(
                index=i,
                cores=tuple(session.cores),
                power=soc.session_power_map(session.cores),
                remaining_s=session.duration_s,
            )
            for i, session in enumerate(schedule.sessions)
        ]
        if not pending:
            raise ReactiveError("cannot run an empty schedule")
        work_total = sum(s.remaining_s for s in pending)
        start_s = self._sensor.time_s
        paused_total = 0.0

        for session in pending:
            self._emit("queued", session)

        while pending:
            if closed_loop and self._guard.state is ThermalState.CRITICAL:
                paused_total += self._cool_down(paused_total)
                continue
            pick = self._pick_next(pending) if closed_loop else 0
            session = pending.pop(pick)
            if pick != 0:
                self._reorders += 1
                self._emit(
                    "reordered",
                    session,
                    detail=(
                        f"avoiding {self._last.hottest_block}"
                        if self._last is not None
                        else ""
                    ),
                )
            self._emit("running", session)
            paused_total = self._run_session(
                session, closed_loop, paused_total
            )
            self._emit("session_done", session)

        self._emit("done")
        return ReactiveRunReport(
            events=tuple(self._events),
            total_time_s=self._sensor.time_s - start_s,
            work_s=work_total,
            peak_temperature_c=max(self._peak_by_block.values()),
            peak_block=max(
                self._peak_by_block, key=lambda b: self._peak_by_block[b]
            ),
            peak_by_block=dict(self._peak_by_block),
            throttles=self._throttles,
            pauses=self._pauses,
            reorders=self._reorders,
            guard_transitions=self._guard.transitions,
            dwell_s=self._guard.dwell_s,
            samples=self._samples,
        )

    def _run_session(
        self,
        session: _SessionState,
        closed_loop: bool,
        paused_total: float,
    ) -> float:
        throttled = False
        while session.remaining_s > 1e-12:
            if closed_loop and self._guard.state is ThermalState.CRITICAL:
                if throttled:
                    throttled = False
                paused_total += self._cool_down(paused_total, session)
                continue
            want = (
                closed_loop
                and self._guard.state is ThermalState.ELEVATED
            )
            if want and not throttled:
                throttled = True
                self._throttles += 1
                self._emit(
                    "throttled",
                    session,
                    detail=f"power x{self._config.throttle_factor:g}",
                )
            elif throttled and not want:
                throttled = False
                self._emit("restored", session, detail="full power")
            factor = self._config.throttle_factor if throttled else 1.0
            # A chunk at reduced power completes chunk*factor of the
            # session's remaining (full-power) test time.
            chunk = min(self._config.chunk_s, session.remaining_s / factor)
            power = (
                {k: v * factor for k, v in session.power.items()}
                if throttled
                else session.power
            )
            self._advance(power, chunk)
            session.remaining_s -= chunk * factor
        return paused_total

    def _cool_down(
        self, paused_total: float, session: _SessionState | None = None
    ) -> float:
        """One cooling interval at zero test power; returns its length."""
        if paused_total >= self._config.max_pause_s:
            raise ReactiveError(
                f"guard stayed CRITICAL after {paused_total:g} s of "
                f"cooling (budget {self._config.max_pause_s:g} s); the "
                f"schedule cannot be run under these thresholds"
            )
        self._pauses += 1
        self._emit("paused", session, detail="cooling at zero test power")
        self._advance({}, self._config.pause_s)
        if self._guard.state is not ThermalState.CRITICAL:
            self._emit("resumed", session)
        return self._config.pause_s


def run_schedule_result(
    result: ScheduleResult,
    *,
    guard_config: GuardConfig | None = None,
    config: ReactiveConfig | None = None,
    dt: float = 5e-3,
    simulator: ThermalSimulator | None = None,
    on_event: Callable[[ReactiveEvent], None] | None = None,
    closed_loop: bool = True,
) -> ReactiveRunReport:
    """Run a solved :class:`ScheduleResult` under closed-loop control.

    Convenience assembly used by the service streaming path and the
    CLI: builds the simulator for the result's SoC (unless one is
    passed in), derives guard thresholds from the result's temperature
    limit when no :class:`GuardConfig` is given, and wires sensor,
    guard, and executor together.
    """
    schedule = result.schedule
    soc = schedule.soc
    if simulator is None:
        simulator = ThermalSimulator(
            soc.floorplan, soc.package, soc.adjacency
        )
    if guard_config is None:
        guard_config = GuardConfig.from_limit(
            result.tl_c, simulator.ambient_c
        )
    sensor = VirtualSensor(simulator, dt=dt)
    guard = ThermalGuard(guard_config)
    executor = ReactiveExecutor(sensor, guard, config, on_event=on_event)
    return executor.run(schedule, closed_loop=closed_loop)
