"""A name-keyed reference implementation of the paper's Algorithm 1.

Written for clarity, not speed, and independent of the scheduler's
index-space phase B: every growth decision recomputes the session
thermal characteristic of ``S + [candidate]`` from scratch through the
public name-keyed :meth:`SessionThermalModel.session_thermal_characteristic`,
weights are a dict escalated by the factor, the forced singleton is the
first minimum singleton STC in pending (input) order, and sessions are
validated through the simulator's name-keyed entry points
(``block_steady_state``, ``steady_state`` or ``block_peak_transient_c``).

:func:`reference_schedule` returns a
:class:`~repro.core.scheduler.ScheduleResult` (or raises the same
exception) that the real scheduler must reproduce field for field.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduler import DiscardedSession, ScheduleResult, SchedulerConfig
from repro.core.session import TestSchedule, TestSession
from repro.core.session_model import SessionThermalModel
from repro.errors import CoreThermalViolationError, ScheduleInfeasibleError
from repro.soc.system import SocUnderTest
from repro.thermal.simulator import ThermalSimulator


def candidate_order(soc: SocUnderTest, names: list[str], order: str) -> list[str]:
    """*names* in the scan order the configuration asks for."""
    if order == "input":
        return list(names)
    if order == "power_desc":
        return sorted(names, key=lambda n: -soc[n].test_power_w)
    if order == "area_asc":
        return sorted(names, key=lambda n: soc.floorplan[n].area)
    if order == "density_desc":
        return sorted(
            names, key=lambda n: -soc[n].test_power_w / soc.floorplan[n].area
        )
    raise AssertionError(f"unknown order {order!r}")


def validation_temperatures(
    simulator: ThermalSimulator,
    config: SchedulerConfig,
    power_map: dict[str, float],
    duration_s: float,
    cores: list[str],
) -> np.ndarray:
    """Per-core validation temperatures (Celsius), aligned with *cores*."""
    if config.validation == "transient":
        peaks = simulator.block_peak_transient_c(
            power_map, duration_s, dt=config.transient_dt_s
        )
        return np.array([peaks[c] for c in cores])
    if config.steady_path == "dense":
        field = simulator.steady_state(power_map)
        return np.array([field.temperature_c(c) for c in cores])
    return simulator.block_steady_state(power_map).temperatures_for(cores)


def reference_schedule(
    soc: SocUnderTest,
    simulator: ThermalSimulator,
    model: SessionThermalModel,
    config: SchedulerConfig,
    tl_c: float,
    stcl: float,
) -> ScheduleResult:
    """Algorithm 1, phases A and B, the slow and obvious way."""
    solves_before = simulator.steady_solve_count

    # Phase A: every core tested alone, in candidate order.
    bcmt: dict[str, float] = {}
    phase_a_effort = 0.0
    for name in candidate_order(soc, list(soc.core_names), config.candidate_order):
        core = soc[name]
        temps = validation_temperatures(
            simulator, config, {name: core.test_power_w}, core.test_time_s, [name]
        )
        bcmt[name] = float(temps[0])
        phase_a_effort += core.test_time_s
    for name, temperature in bcmt.items():
        if temperature >= tl_c:
            raise CoreThermalViolationError(name, temperature, tl_c)

    # Phase B.
    weights = {name: 1.0 for name in soc.core_names}
    pending = list(soc.core_names)
    committed: list[TestSession] = []
    discarded: list[DiscardedSession] = []
    effort_s = phase_a_effort if config.count_phase_a_effort else 0.0
    forced_singletons = 0
    iteration = 0
    while pending:
        iteration += 1
        session: list[str] = []
        for candidate in candidate_order(soc, pending, config.candidate_order):
            grown = session + [candidate]
            if model.session_thermal_characteristic(grown, weights) <= stcl:
                session = grown
        if not session:
            if config.on_stuck == "error":
                raise ScheduleInfeasibleError(
                    f"no remaining core fits an empty session at STCL={stcl:g} "
                    f"(pending: {pending}); weights may have escalated past "
                    f"the limit"
                )
            session = [
                min(
                    pending,
                    key=lambda c: model.session_thermal_characteristic([c], weights),
                )
            ]
            forced_singletons += 1

        duration = max(soc[c].test_time_s for c in session)
        power_map = {c: soc[c].test_power_w for c in session}
        temps = validation_temperatures(simulator, config, power_map, duration, session)
        effort_s += duration

        violators = tuple(c for c, t in zip(session, temps) if t >= tl_c)
        if violators:
            for core in violators:
                weights[core] = weights[core] * config.weight_factor
            discarded.append(
                DiscardedSession(
                    cores=tuple(session),
                    duration_s=duration,
                    violators=violators,
                    max_temperature_c=float(max(temps)),
                    iteration=iteration,
                )
            )
            if len(discarded) >= config.max_discards:
                raise ScheduleInfeasibleError(
                    f"exceeded max_discards={config.max_discards} at "
                    f"TL={tl_c:g}, STCL={stcl:g}; the weight feedback is not "
                    f"converging (weight_factor={config.weight_factor:g})"
                )
            continue

        committed.append(
            TestSession(cores=tuple(session), duration_s=duration).with_temperatures(
                {c: float(t) for c, t in zip(session, temps)}
            )
        )
        pending = [c for c in pending if c not in session]

    schedule = TestSchedule(committed, soc)
    return ScheduleResult(
        schedule=schedule,
        tl_c=tl_c,
        stcl=stcl,
        length_s=schedule.length_s,
        effort_s=effort_s,
        max_temperature_c=schedule.max_temperature_c,
        bcmt_c=bcmt,
        weights=weights,
        discarded=tuple(discarded),
        forced_singletons=forced_singletons,
        steady_solves=simulator.steady_solve_count - solves_before,
    )


def run(call):
    """``("ok", result)`` or ``("error", type, message)`` of *call()*."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the oracle compares any failure
        return ("error", type(exc), str(exc))
