"""Core-under-test description.

A :class:`CoreUnderTest` bundles what the scheduler needs to know about
one core: its identity (which must match a floorplan block), its test
power, and how long its test takes.  The paper's experiments use
equal-length tests (schedule length is reported in whole seconds and
equals the session count), so the default test time is 1 s, but the
data model supports heterogeneous test lengths: a session's duration is
the maximum test time of its members (tests run concurrently).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PowerModelError
from ..spec_utils import is_positive_number

#: Default per-core test application time (seconds).  The paper's
#: schedule lengths count sessions at one second each.
DEFAULT_TEST_TIME_S = 1.0


@dataclass(frozen=True)
class CoreUnderTest:
    """One testable core of the SoC.

    Attributes
    ----------
    name:
        Core name; must match a floorplan block name.
    test_power_w:
        Average power dissipated while this core's test runs (W).
    functional_power_w:
        Average mission-mode power (W); recorded for reporting and for
        checking the paper's 1.5x-8x test-power premise.
    test_time_s:
        Test application time (s).
    """

    name: str
    test_power_w: float
    functional_power_w: float
    test_time_s: float = DEFAULT_TEST_TIME_S

    def __post_init__(self) -> None:
        if not self.name:
            raise PowerModelError("core name must be non-empty")
        # is_positive_number also refuses NaN, infinities and booleans:
        # a NaN power would make every temperature NaN, which never
        # reaches TL, so the schedule would pass unchecked.
        if not is_positive_number(self.test_power_w):
            raise PowerModelError(
                f"core {self.name!r}: test power must be positive and "
                f"finite, got {self.test_power_w!r}"
            )
        if not is_positive_number(self.functional_power_w):
            raise PowerModelError(
                f"core {self.name!r}: functional power must be positive "
                f"and finite, got {self.functional_power_w!r}"
            )
        if not is_positive_number(self.test_time_s):
            raise PowerModelError(
                f"core {self.name!r}: test time must be positive and "
                f"finite, got {self.test_time_s!r}"
            )

    @property
    def test_multiplier(self) -> float:
        """Test power divided by functional power."""
        return self.test_power_w / self.functional_power_w
