"""Shared fixtures for the repro test suite.

Expensive objects (SoCs, simulators, sweep grids) are session-scoped:
they are immutable once built, and the suite solves hundreds of
steady-state systems against the same factorised networks.
"""

from __future__ import annotations

import math
import os
import signal
import threading

import pytest

from repro.core.scheduler import ThermalAwareScheduler
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.floorplan.library import alpha15, hypothetical7, worked_example6
from repro.soc.library import (
    ALPHA15_STC_SCALE,
    alpha15_soc,
    hypothetical7_soc,
    worked_example6_soc,
)
from repro.thermal.simulator import ThermalSimulator

#: Global per-test timeout (seconds).  The service suite runs real
#: asyncio servers; a deadlocked queue or an unawaited future must fail
#: fast instead of hanging the whole run (and the CI workflow with it).
#: Override with REPRO_TEST_TIMEOUT_S; 0 disables (e.g. when stepping
#: through a test under a debugger).
TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))


@pytest.fixture(autouse=True)
def _global_test_timeout(request):
    """Fail any test that exceeds TEST_TIMEOUT_S (SIGALRM, unix only).

    The same mechanism as pytest-timeout's signal method, inlined so
    the suite needs no extra plugin: the alarm fires in the main
    thread and surfaces as an ordinary test failure with a traceback
    pointing at the hung line.
    """
    use_alarm = (
        TEST_TIMEOUT_S > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        yield
        return

    def _timed_out(signum, frame):
        pytest.fail(
            f"test exceeded the global {TEST_TIMEOUT_S:g}s timeout "
            f"(override with REPRO_TEST_TIMEOUT_S)",
            pytrace=True,
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(
    params=[
        (field, value)
        for field in ("tl_c", "tl_headroom", "stcl", "stcl_headroom")
        for value in (math.nan, math.inf)
    ],
    ids=lambda param: f"{param[0]}={param[1]}",
)
def non_finite_limits(request) -> dict[str, float]:
    """Valid TL and STCL keyword limits with one field NaN or infinite."""
    field, value = request.param
    limits = {"tl_c": 165.0, "stcl": 60.0}
    del limits["tl_c" if field.startswith("tl") else "stcl"]
    limits[field] = value
    return limits


@pytest.fixture(scope="session")
def alpha15_floorplan():
    """The 15-block Alpha-class floorplan."""
    return alpha15()


@pytest.fixture(scope="session")
def hypothetical7_floorplan():
    """The Figure 1 hypothetical floorplan."""
    return hypothetical7()


@pytest.fixture(scope="session")
def worked_example_floorplan():
    """The Figures 2-4 didactic floorplan."""
    return worked_example6()


@pytest.fixture(scope="session")
def alpha_soc():
    """The calibrated alpha15 SoC."""
    return alpha15_soc()


@pytest.fixture(scope="session")
def hypo_soc():
    """The Figure 1 SoC (7 cores, 15 W each)."""
    return hypothetical7_soc()


@pytest.fixture(scope="session")
def example_soc():
    """The worked-example SoC (6 blocks, 10 W each)."""
    return worked_example6_soc()


@pytest.fixture(scope="session")
def alpha_simulator(alpha_soc):
    """Thermal simulator bound to the alpha15 SoC."""
    return ThermalSimulator(
        alpha_soc.floorplan, alpha_soc.package, alpha_soc.adjacency
    )


@pytest.fixture(scope="session")
def alpha_session_model(alpha_soc):
    """Calibrated session thermal model for alpha15."""
    return SessionThermalModel(
        alpha_soc, SessionModelConfig(stc_scale=ALPHA15_STC_SCALE)
    )


@pytest.fixture(scope="session")
def alpha_scheduler(alpha_soc, alpha_simulator, alpha_session_model):
    """Paper-configured thermal-aware scheduler for alpha15."""
    return ThermalAwareScheduler(
        alpha_soc, simulator=alpha_simulator, session_model=alpha_session_model
    )
