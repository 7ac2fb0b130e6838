"""Memoised phase-B pricing against the bytearray kernel it replaced.

:class:`SessionThermalModel` looks each core's ``Rth`` up by the bitmask
of its active neighbours, in a memo that its resistance table shares
among the models of one variant and fills on first use;
:class:`.pricing_reference.ReferencePricing` prices every core from
scratch against a ``bytearray`` mask of the active cores.  Growth
passes (with weights raised between passes, as discards raise them),
singleton STCs and the name-keyed evaluators must agree bit for bit,
errors included, on every model variant, whichever model filled the
memo.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.errors import SchedulingError
from repro.floorplan.generator import slicing_floorplan
from repro.power.generator import PowerGeneratorConfig, generate_power_profile
from repro.soc.library import alpha15_soc, hypothetical7_soc, worked_example6_soc
from repro.soc.system import SocUnderTest
from repro.thermal.resistances import resistance_table

from ..floorplan.floorplan_strategies import die_sides, grid_plans
from .pricing_reference import ReferencePricing

ORACLE = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

slicing_plans = st.builds(
    slicing_floorplan,
    n_blocks=st.integers(1, 40),
    die_width=die_sides,
    die_height=die_sides,
    seed=st.integers(0, 2**16),
    split_bias=st.floats(0.2, 0.8),
)

library_socs = st.sampled_from([alpha15_soc, hypothetical7_soc, worked_example6_soc])


@st.composite
def socs(draw: st.DrawFn) -> SocUnderTest:
    """A library SoC, or a slicing or grid floorplan under seeded powers."""
    if draw(st.booleans()):
        return draw(library_socs)()
    plan = draw(st.one_of(slicing_plans, grid_plans))
    seed = draw(st.integers(0, 2**32 - 1))
    profile = generate_power_profile(plan, PowerGeneratorConfig(seed=seed))
    return SocUnderTest.from_profile(plan, profile)


#: All four M2/M3 settings, each with and without the vertical path.
configs = st.builds(
    SessionModelConfig,
    drop_active_active=st.booleans(),
    ground_passive=st.booleans(),
    include_vertical=st.booleans(),
    stc_scale=st.sampled_from([1.0, 210.0, 0.37]),
)


def hexed(values) -> list[str]:
    """Floats as their exact hex spelling, so -0.0 and 0.0 differ."""
    return [float(value).hex() for value in values]


def grow_both(model, reference, candidates, stcl, weights):
    """Both kernels' growth pass, or both kernels' error message."""
    try:
        expected = reference.grow_session(candidates, stcl, weights)
    except SchedulingError as error:
        with pytest.raises(SchedulingError) as raised:
            model.grow_session(candidates, stcl, weights)
        assert str(raised.value) == str(error)
        return None
    assert model.grow_session(candidates, stcl, weights) == expected
    return expected


@ORACLE
@given(data=st.data(), soc=socs(), config=configs)
def test_growth_passes_match_the_bytearray_kernel(data, soc, config):
    model = SessionThermalModel(soc, config)
    reference = ReferencePricing(model)
    n = len(soc)
    singles = reference.singleton_stcs(range(n))
    assert hexed(model.singleton_stcs(range(n))) == hexed(singles)
    # Limits at singleton STCs put some decisions exactly on the boundary.
    limits = sorted(s for s in singles if math.isfinite(s)) or [1.0]
    factor = data.draw(st.sampled_from([1.0, 1.1, 2.0]), label="weight_factor")
    pending = data.draw(st.permutations(range(n)), label="candidates")
    weights = [1.0] * n
    for _ in range(data.draw(st.integers(1, 6), label="passes")):
        stcl = data.draw(st.sampled_from(limits)) * data.draw(
            st.sampled_from([1.0, 1.5, 4.0, 50.0])
        )
        if data.draw(st.booleans(), label="duplicate"):
            again = data.draw(st.sampled_from(pending))
            grow_both(model, reference, pending + [again], stcl, weights)
        assert hexed(model.singleton_stcs(pending, weights)) == hexed(
            reference.singleton_stcs(pending, weights)
        )
        session = grow_both(model, reference, pending, stcl, weights)
        if session and data.draw(st.booleans(), label="discard"):
            violators = data.draw(
                st.lists(st.sampled_from(session), min_size=1, unique=True)
            )
            for i in violators:
                weights[i] = weights[i] * factor
            continue
        admitted = set(session or pending[:1])
        pending = [i for i in pending if i not in admitted]
        if not pending:
            break


@ORACLE
@given(data=st.data(), soc=socs(), config=configs)
def test_name_keyed_evaluators_match_the_bytearray_kernel(data, soc, config):
    model = SessionThermalModel(soc, config)
    reference = ReferencePricing(model)
    names = soc.core_names
    for _ in range(3):
        active = data.draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=12, unique=True)
        )
        weights = data.draw(
            st.none()
            | st.dictionaries(
                st.sampled_from(names), st.sampled_from([0.0, 1.0, 1.5, 3.375])
            )
        )
        assert hexed([model.session_thermal_characteristic(active, weights)]) == (
            hexed([reference.session_thermal_characteristic(active, weights)])
        )
        contributions = model.core_contributions(active, weights)
        expected = reference.core_contributions(active, weights)
        assert list(contributions) == list(expected)
        assert hexed(contributions.values()) == hexed(expected.values())
        for core in active:
            assert hexed([model.equivalent_resistance(core, active)]) == hexed(
                [reference.equivalent_resistance(core, active)]
            )


def test_landlocked_cores_price_infinite_and_are_never_admitted():
    soc = hypothetical7_soc()
    model = SessionThermalModel(soc, SessionModelConfig())
    reference = ReferencePricing(model)
    n = len(soc)
    singles = model.singleton_stcs(range(n))
    assert hexed(singles) == hexed(reference.singleton_stcs(range(n)))
    landlocked = [i for i, stc in enumerate(singles) if math.isinf(stc)]
    assert landlocked, "hypothetical7 has laterally isolated cores"
    everything = list(range(n))
    session = model.grow_session(everything, 1e300, [1.0] * n)
    assert session == reference.grow_session(everything, 1e300, [1.0] * n)
    assert not set(session) & set(landlocked)
    for i in landlocked:
        name = soc.core_names[i]
        assert model.equivalent_resistance(name, [name]) == math.inf
        # A zero weight does not turn an infinite term into NaN.
        zero = {name: 0.0}
        assert model.session_thermal_characteristic([name], zero) == math.inf
        assert reference.session_thermal_characteristic([name], zero) == math.inf
        assert model.core_contributions([name], zero) == {name: math.inf}
        # Nor in a growth pass, where inf still fits an infinite limit.
        nothing = [0.0] * n
        assert model.grow_session([i], math.inf, nothing) == [i]
        assert reference.grow_session([i], math.inf, nothing) == [i]


def test_an_admitted_duplicate_raises_the_same_error():
    soc = alpha15_soc()
    model = SessionThermalModel(soc, SessionModelConfig(stc_scale=210.0))
    reference = ReferencePricing(model)
    weights = [1.0] * len(soc)
    name = soc.core_names[3]
    with pytest.raises(SchedulingError, match=f"'{name}' is already part of"):
        model.grow_session([3, 0, 3], 1e9, weights)
    assert grow_both(model, reference, [3, 0, 3], 1e9, weights) is None
    # A duplicate of a rejected candidate is simply rejected again.
    assert grow_both(model, reference, [3, 3], 0.0, weights) == []


#: (include_vertical, ground_passive, drop_active_active): the memo key.
VARIANTS = list(itertools.product([False, True], repeat=3))


def memo_rth(reference, i, mask):
    """Core *i*'s Rth under *mask*, priced from scratch by the reference."""
    names = reference._soc.core_names
    neighbours = reference._neighbours[i]
    active = [names[i]] + [
        names[j] for k, (j, _) in enumerate(neighbours) if mask >> k & 1
    ]
    return reference.equivalent_resistance(names[i], active)


@ORACLE
@given(data=st.data(), plan=st.one_of(slicing_plans, grid_plans))
def test_models_of_one_variant_share_one_memo_whoever_fills_it(data, plan):
    resistance_table.cache_clear()
    socs = [
        SocUnderTest.from_profile(
            plan, generate_power_profile(plan, PowerGeneratorConfig(seed=seed))
        )
        for seed in (1, 2)
    ]
    models = [
        SessionThermalModel(
            soc,
            SessionModelConfig(
                include_vertical=vertical,
                ground_passive=ground,
                drop_active_active=drop,
                stc_scale=scale,
            ),
        )
        for soc in socs
        for vertical, ground, drop in VARIANTS
        for scale in (1.0, 210.0)
    ]
    table = resistance_table(socs[0].adjacency, socs[0].package)
    memos = {variant: table.rth_memo(*variant) for variant in VARIANTS}
    for model in models:
        config = model.config
        variant = (
            config.include_vertical,
            config.ground_passive,
            config.drop_active_active,
        )
        assert model._rth is memos[variant]
    # Every variant has its own memo, down to each core's dict.
    entries = {id(entry) for memo in memos.values() for entry in memo}
    assert len(entries) == len(VARIANTS) * len(plan)
    assert not any(any(memo) for memo in memos.values())

    # Whichever model fills an entry first, every model reads the same float.
    n = len(plan)
    order = data.draw(st.permutations(models), label="fill order")
    candidates = data.draw(st.permutations(range(n)), label="candidates")
    for model in order:
        reference = ReferencePricing(model)
        singles = reference.singleton_stcs(range(n))
        assert hexed(model.singleton_stcs(range(n))) == hexed(singles)
        limits = sorted(s for s in singles if math.isfinite(s)) or [1.0]
        weights = [1.0] * n
        for factor in (1.0, 4.0, 50.0):
            stcl = limits[len(limits) // 2] * factor
            session = grow_both(model, reference, candidates, stcl, weights)
            for i in session[: len(session) // 2]:
                weights[i] = weights[i] * 1.1
            assert hexed(model.singleton_stcs(candidates, weights)) == hexed(
                reference.singleton_stcs(candidates, weights)
            )
    for model in models[: len(VARIANTS) * 2 : 2]:
        reference = ReferencePricing(model)
        for i, memo in enumerate(model._rth):
            for mask, rth in memo.items():
                assert hexed([rth]) == hexed([memo_rth(reference, i, mask)])
