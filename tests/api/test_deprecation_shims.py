"""The old root scheduler names are gone; their canonical homes stay.

Direct construction predates the unified solver API.  The package root
used to serve the scheduler classes through warning shims; those shims
are removed, so root access is an ordinary ``AttributeError``, while
the classes themselves remain first-class citizens under
``repro.core`` and import there without any warning.
"""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.core

REMOVED_ROOT_NAMES = [
    "ThermalAwareScheduler",
    "PowerConstrainedScheduler",
    "PowerConstrainedConfig",
    "sequential_schedule",
]


@pytest.mark.parametrize("name", REMOVED_ROOT_NAMES)
def test_root_access_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(repro, name)
    assert name not in repro.__all__


@pytest.mark.parametrize("name", REMOVED_ROOT_NAMES)
def test_canonical_home_resolves_without_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert callable(getattr(repro.core, name))


def test_old_scheduler_call_shape_works_from_its_home():
    from repro.core.scheduler import ThermalAwareScheduler
    from repro.soc.library import alpha15_soc

    result = ThermalAwareScheduler(alpha15_soc()).schedule(tl_c=175.0, stcl=40.0)
    assert result.max_temperature_c < 175.0


def test_canonical_homes_do_not_warn(recwarn):
    from repro.core.baselines import PowerConstrainedScheduler  # noqa: F401
    from repro.core.scheduler import ThermalAwareScheduler  # noqa: F401

    assert not [w for w in recwarn if w.category is DeprecationWarning]


def test_unknown_root_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_an_export


def test_reduced_fast_path_names_are_first_class(recwarn):
    """The simulator's fast-path names are canonical, not shims.

    They live at the package root *and* under ``repro.thermal`` with no
    DeprecationWarning on access, and both spellings resolve to the
    same objects.
    """
    import repro.thermal

    assert repro.BlockTemperatureField is repro.thermal.BlockTemperatureField
    assert repro.ReducedSteadyOperator is repro.thermal.ReducedSteadyOperator
    assert "BlockTemperatureField" in repro.__all__
    assert "ReducedSteadyOperator" in repro.__all__
    for name in (
        "block_steady_state",
        "block_steady_state_batch",
        "reduced_operator",
    ):
        assert hasattr(repro.ThermalSimulator, name)
    assert not [w for w in recwarn if w.category is DeprecationWarning]
