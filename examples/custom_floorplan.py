"""Bring your own SoC: custom floorplan, generated powers, scheduling.

Shows the full user workflow on a design that is not bundled with the
library:

1. describe a floorplan in HotSpot ``.flp`` syntax (or build one with
   the slicing-tree generator);
2. generate a test power profile in the paper's 1.5x-8x regime;
3. derive the calibration points (hottest singleton, full concurrency,
   singleton STC range) that choose sensible TL / STCL values;
4. schedule and audit.

Run:  python examples/custom_floorplan.py
"""

from __future__ import annotations

from repro import audit_schedule
from repro.core.scheduler import ThermalAwareScheduler
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.floorplan import parse_flp
from repro.power import PowerGeneratorConfig, generate_power_profile
from repro.soc import SocUnderTest
from repro.thermal import ThermalSimulator

# An 8-block 12x12 mm SoC: two big accelerators, a CPU cluster of four
# small cores, an IO block and an SRAM.  HotSpot .flp syntax: name,
# width, height, left-x, bottom-y (metres).
CUSTOM_FLP = """
npu     0.0060  0.0072  0.0000  0.0048
gpu     0.0060  0.0048  0.0000  0.0000
cpu0    0.0030  0.0024  0.0060  0.0096
cpu1    0.0030  0.0024  0.0090  0.0096
cpu2    0.0030  0.0024  0.0060  0.0072
cpu3    0.0030  0.0024  0.0090  0.0072
sram    0.0060  0.0048  0.0060  0.0024
io      0.0060  0.0024  0.0060  0.0000
"""


def main() -> None:
    floorplan = parse_flp(CUSTOM_FLP, name="custom8")
    print(floorplan.describe())
    print()

    profile = generate_power_profile(
        floorplan,
        config=PowerGeneratorConfig(seed=11),
        block_classes={
            "npu": "execution",
            "gpu": "execution",
            "cpu0": "control",
            "cpu1": "control",
            "cpu2": "control",
            "cpu3": "control",
            "sram": "cache",
            "io": "cache",
        },
    ).scaled(3.0)
    soc = SocUnderTest.from_profile(floorplan, profile, name="custom8")
    print(soc.describe())
    print()

    # Calibration points: what regime does this SoC live in?
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    model = SessionThermalModel(soc, SessionModelConfig())
    hottest_alone = max(
        simulator.steady_state({n: soc[n].test_power_w}).temperature_c(n)
        for n in soc.core_names
    )
    all_active = simulator.steady_state(soc.test_power_map()).max_temperature_c()
    singleton_stcs = [
        model.session_thermal_characteristic([n]) for n in soc.core_names
    ]
    print(f"hottest core alone : {hottest_alone:.1f} degC")
    print(f"everything at once : {all_active:.1f} degC")
    print(
        f"singleton STC range: {min(singleton_stcs):.1f} .. "
        f"{max(singleton_stcs):.1f}"
    )

    # Pick limits inside that regime: TL halfway, STCL at 2x the max
    # singleton (same recipe the alpha15 calibration used).
    tl_c = (hottest_alone + all_active) / 2.0
    stcl = 2.0 * max(singleton_stcs)
    print(f"chosen limits      : TL = {tl_c:.1f} degC, STCL = {stcl:.1f}")
    print()

    result = ThermalAwareScheduler(
        soc, simulator=simulator, session_model=model
    ).schedule(tl_c=tl_c, stcl=stcl)
    print(result.describe())
    print()

    audit = audit_schedule(result.schedule, limit_c=tl_c, simulator=simulator)
    print(audit.describe())


if __name__ == "__main__":
    main()
