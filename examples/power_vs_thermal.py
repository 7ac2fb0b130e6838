"""Power-safe is not thermal-safe: the paper's Figure 1, executable.

A chip-level power cap treats every watt the same no matter where it
lands on the die.  On the hypothetical 7-core system (all cores 15 W),
a 45 W cap happily accepts both

* the *hot* session {C2, C3, C4} — three tiny, mutually adjacent cores
  with 4x the power density of
* the *cool* session {C5, C6, C7} — three large, spread-out cores,

yet simulation shows a dramatic temperature gap.  The script then runs
both a power-constrained baseline and the thermal-aware scheduler on
the same SoC and audits their schedules against the same limit.

Run:  python examples/power_vs_thermal.py
"""

from __future__ import annotations

from repro import audit_schedule, hypothetical7_soc
from repro.core.baselines import PowerConstrainedConfig, PowerConstrainedScheduler
from repro.core.scheduler import ThermalAwareScheduler
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.experiments.fig1 import report_fig1

POWER_CAP_W = 45.0


def main() -> None:
    # Part 1 — the paper's motivational comparison.
    print(report_fig1())

    # Part 2 — schedule the whole SoC both ways and audit.
    soc = hypothetical7_soc()

    baseline = PowerConstrainedScheduler(
        soc,
        PowerConstrainedConfig(power_limit_w=POWER_CAP_W, sort_descending=False),
    ).schedule()

    # The hypothetical floorplan is not fully tiled (isolated cores), so
    # the session model needs the vertical heat path; stc_scale maps its
    # values onto a convenient limit range.
    model = SessionThermalModel(
        soc, SessionModelConfig(include_vertical=True, stc_scale=25.0)
    )
    audit_base_loose = audit_schedule(baseline, limit_c=1_000.0)
    # Pick a limit between the hottest *individual* core (below which no
    # schedule can exist at all) and the baseline's hottest session:
    # thermally achievable, but invisible to the power cap.
    from repro.thermal import ThermalSimulator

    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    hottest_alone = max(
        simulator.steady_state({n: soc[n].test_power_w}).temperature_c(n)
        for n in soc.core_names
    )
    hottest_session = audit_base_loose.max_temperature_c
    tl_c = (hottest_alone + hottest_session) / 2.0

    thermal = ThermalAwareScheduler(soc, session_model=model).schedule(
        tl_c=tl_c, stcl=20.0
    )

    audit_base = audit_schedule(baseline, limit_c=tl_c)
    audit_thermal = audit_schedule(thermal.schedule, limit_c=tl_c)

    print(f"Temperature limit for both audits: TL = {tl_c:.1f} degC")
    print()
    print(f"power-constrained (cap {POWER_CAP_W:g} W):")
    print(f"  sessions      : {len(baseline)}")
    print(f"  peak temp     : {audit_base.max_temperature_c:.1f} degC")
    print(f"  hot-spot rate : {audit_base.hot_spot_rate:.0%}")
    print(f"  verdict       : {'SAFE' if audit_base.is_safe else 'UNSAFE'}")
    print()
    print("thermal-aware (Algorithm 1):")
    print(f"  sessions      : {thermal.n_sessions}")
    print(f"  peak temp     : {audit_thermal.max_temperature_c:.1f} degC")
    print(f"  hot-spot rate : {audit_thermal.hot_spot_rate:.0%}")
    print(f"  verdict       : {'SAFE' if audit_thermal.is_safe else 'UNSAFE'}")


if __name__ == "__main__":
    main()
