"""The session models' shared ``Rth`` memo: its bound, lifetime and threads.

:meth:`~repro.thermal.resistances.ResistanceTable.rth_memo` keeps one
memo per model variant on each resistance table, and every session model
of that variant on the table prices through it.  Core *i*'s memo never
holds more than ``2 ** deg(i)`` entries, the memo dies with its table
once :func:`~repro.thermal.resistances.resistance_table` has evicted it,
and threads that fill one memo concurrently get the sessions a single
thread gets.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import sys
import threading
import time
import weakref

from hypothesis import given
from hypothesis import strategies as st

from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.floorplan.generator import slicing_floorplan
from repro.power.generator import PowerGeneratorConfig, generate_power_profile
from repro.soc.system import SocUnderTest
from repro.thermal.resistances import RESISTANCE_TABLE_SIZE, resistance_table

from .pricing_reference import ReferencePricing
from .test_pricing_oracle import ORACLE, VARIANTS, configs, socs


def variant_config(variant):
    vertical, ground, drop = variant
    return SessionModelConfig(
        include_vertical=vertical, ground_passive=ground, drop_active_active=drop
    )


def seeded_soc(plan, seed):
    return SocUnderTest.from_profile(
        plan, generate_power_profile(plan, PowerGeneratorConfig(seed=seed))
    )


@ORACLE
@given(data=st.data(), soc=socs(), config=configs)
def test_a_memo_holds_at_most_two_to_the_degree_entries_per_core(data, soc, config):
    model = SessionThermalModel(soc, config)
    n = len(soc)
    singles = model.singleton_stcs(range(n))
    limits = sorted(s for s in singles if s < float("inf")) or [1.0]
    weights = [1.0] * n
    for _ in range(data.draw(st.integers(1, 8), label="passes")):
        candidates = data.draw(st.permutations(range(n)), label="candidates")
        stcl = data.draw(st.sampled_from(limits)) * data.draw(
            st.sampled_from([1.0, 2.0, 10.0, 1e6])
        )
        for i in model.grow_session(candidates, stcl, weights)[::2]:
            weights[i] = weights[i] * 1.5
    degrees = [len(paths) for paths in model._table.neighbour_conductances]
    memo = model._rth
    assert len(memo) == n
    for degree, entries in zip(degrees, memo):
        assert all(0 <= mask < 2**degree for mask in entries)
    assert sum(map(len, memo)) <= sum(2**degree for degree in degrees)


def test_a_memo_dies_with_its_table_once_the_table_is_evicted():
    soc = seeded_soc(slicing_floorplan(23, seed=4049), 7)
    model = SessionThermalModel(soc)
    n = len(soc)
    assert model.grow_session(range(n), 1e9, [1.0] * n)
    table = weakref.ref(model._table)
    assert any(table().rth_memo(False, True, True))
    del model
    # Still cached: a new model reads the filled memo.
    assert any(SessionThermalModel(soc)._rth)
    assert table() is not None
    for k in range(RESISTANCE_TABLE_SIZE):
        other = dataclasses.replace(
            soc.package, convection_resistance=soc.package.convection_resistance + k + 1
        )
        resistance_table(soc.adjacency, other)
    assert table() is None
    # The next model builds a new table with an empty memo.
    assert not any(SessionThermalModel(soc)._rth)


#: Wall-clock budget of the stress test's growing threads (seconds).
STRESS_S = 1.5


def test_threads_filling_one_memo_get_the_single_threaded_sessions():
    plan, twin = (slicing_floorplan(40, seed=7211) for _ in range(2))
    n = len(plan)
    socs_ = [seeded_soc(plan, seed) for seed in (1, 2)]
    cases = []
    for soc, variant in itertools.product(socs_, VARIANTS):
        # The twin floorplan has its own table, so the threads start with
        # no memo at all on this one and race to create and fill it.
        twin_soc = seeded_soc(twin, 1 + socs_.index(soc))
        reference = ReferencePricing(SessionThermalModel(twin_soc, variant_config(variant)))
        singles = reference.singleton_stcs(range(n))
        finite = sorted(s for s in singles if s < float("inf")) or [1.0]
        for k, factor in enumerate((1.0, 3.0, 1e6)):
            candidates = list(range(k, n)) + list(range(k))
            stcl = finite[len(finite) // 2] * factor
            weights = [1.0 + (i % 3) * 0.25 for i in range(n)]
            expected = reference.grow_session(candidates, stcl, weights)
            cases.append((soc, variant, candidates, stcl, weights, expected))
    table = resistance_table(socs_[0].adjacency, socs_[0].package)
    assert not table._rth_memos

    n_threads = min((os.cpu_count() or 1) + 2, 32)
    memos: list[dict] = [{} for _ in range(n_threads)]
    failures: list[str] = []
    deadline = time.monotonic() + STRESS_S
    # All threads build their first models at once.
    start_line = threading.Barrier(n_threads)

    def grow(worker: int) -> None:
        models = {}
        try:
            start_line.wait(timeout=STRESS_S + 30.0)
            for rotation in itertools.count():
                start = (worker + rotation) % len(cases)
                for soc, variant, candidates, stcl, weights, expected in (
                    cases[start:] + cases[:start]
                ):
                    model = models.get((id(soc), variant))
                    if model is None:
                        model = models[id(soc), variant] = SessionThermalModel(
                            soc, variant_config(variant)
                        )
                        memos[worker][variant] = model._rth
                    session = model.grow_session(candidates, stcl, weights)
                    if session != expected:
                        failures.append(f"worker {worker}: {session} != {expected}")
                        return
                if time.monotonic() > deadline:
                    return
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(f"worker {worker}: {error!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=grow, args=(worker,)) for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=STRESS_S + 60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    # However the threads raced, each variant got one memo.
    for variant in VARIANTS:
        assert all(memo[variant] is table.rth_memo(*variant) for memo in memos)
