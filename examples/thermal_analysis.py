"""Thermal deep-dive: heatmaps, transients and the M1 bound.

Everything the paper's 'accurate thermal simulation' does behind the
scenes, made visible:

1. draw the alpha15 floorplan and the test-power density map;
2. simulate the hottest session of a generated schedule and render the
   steady-state temperature field as an ASCII heatmap;
3. show the transient heating curve of the hottest core against its
   steady-state bound — the paper's modification M1 in one picture;
4. quantify the M1 margin for every session, back to back.

Run:  python examples/thermal_analysis.py
"""

from __future__ import annotations

from repro import alpha15_soc
from repro.core.scheduler import ThermalAwareScheduler
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.floorplan.render import render_floorplan
from repro.soc.library import ALPHA15_STC_SCALE
from repro.thermal import ThermalSimulator, die_node
from repro.thermal.heatmap import render_heatmap, render_power_density_map
from repro.thermal.validation import check_schedule_bound

TL_C = 165.0
STCL = 60.0


def main() -> None:
    soc = alpha15_soc()
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)

    print(render_floorplan(soc.floorplan))
    print("test power density:")
    print(render_power_density_map(soc.floorplan, soc.test_power_map()))

    model = SessionThermalModel(
        soc, SessionModelConfig(stc_scale=ALPHA15_STC_SCALE)
    )
    result = ThermalAwareScheduler(
        soc, simulator=simulator, session_model=model
    ).schedule(tl_c=TL_C, stcl=STCL)
    print(result.describe())
    print()

    hottest = max(result.schedule.sessions, key=lambda s: s.max_temperature_c)
    power = soc.session_power_map(hottest.cores)
    field = simulator.steady_state(power)
    print(f"steady-state heatmap of the hottest session "
          f"[{', '.join(hottest.cores)}]:")
    print(render_heatmap(soc.floorplan, field))

    # Transient heating of the hottest core vs its steady bound (M1).
    hottest_core = field.hottest_block()
    steady_c = field.temperature_c(hottest_core)
    trajectory = simulator.transient(power, duration_s=1.0, dt=5e-3)
    column = trajectory.node_names.index(die_node(hottest_core))
    print(f"transient heating of {hottest_core} during the 1 s session "
          f"(steady bound {steady_c:.1f} degC):")
    samples = range(0, len(trajectory.times), max(1, len(trajectory.times) // 10))
    for index in samples:
        temp = simulator.ambient_c + trajectory.rises[index, column]
        bar = "#" * int(50 * (temp - simulator.ambient_c) / (steady_c - simulator.ambient_c))
        print(f"  t={trajectory.times[index]:5.2f} s  {temp:7.2f} degC |{bar}")
    peak = simulator.ambient_c + trajectory.rises[:, column].max()
    print(f"  transient peak {peak:.2f} degC — "
          f"{steady_c - peak:.1f} degC below the steady-state bound (M1).")
    print()

    # M1 across the whole schedule, sessions back to back.
    check = check_schedule_bound(simulator, result.schedule, cooling_gap_s=0.0)
    print("M1 bound across the schedule (no cooling gaps):")
    for index, session_check in enumerate(check.sessions, start=1):
        print(
            f"  session {index}: tightest margin "
            f"{session_check.min_margin_c:6.2f} degC "
            f"({'holds' if session_check.holds else 'VIOLATED'})"
        )


if __name__ == "__main__":
    main()
