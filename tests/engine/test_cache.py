"""Unit tests for the shared thermal-model cache."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.cache import (
    MODEL_CACHE_ENTRIES,
    ThermalModelCache,
    floorplan_fingerprint,
    model_key,
    package_fingerprint,
)
from repro.floorplan.generator import grid_floorplan
from repro.thermal.package import DEFAULT_PACKAGE
from repro.thermal.simulator import ThermalSimulator


@pytest.fixture()
def plan():
    return grid_floorplan(2, 2)


class TestFingerprints:
    def test_name_does_not_affect_floorplan_fingerprint(self):
        a = grid_floorplan(2, 2, name="first")
        b = grid_floorplan(2, 2, name="second")
        assert floorplan_fingerprint(a) == floorplan_fingerprint(b)

    def test_geometry_changes_fingerprint(self):
        assert floorplan_fingerprint(grid_floorplan(2, 2)) != floorplan_fingerprint(
            grid_floorplan(2, 3)
        )
        assert floorplan_fingerprint(grid_floorplan(2, 2)) != floorplan_fingerprint(
            grid_floorplan(2, 2, die_width=20e-3)
        )

    def test_package_parameters_change_fingerprint(self):
        warm = replace(DEFAULT_PACKAGE, convection_resistance=0.9)
        assert package_fingerprint(DEFAULT_PACKAGE) != package_fingerprint(warm)
        hot = replace(DEFAULT_PACKAGE, ambient_c=60.0)
        assert package_fingerprint(DEFAULT_PACKAGE) != package_fingerprint(hot)

    def test_model_key_combines_both(self, plan):
        warm = replace(DEFAULT_PACKAGE, convection_resistance=0.9)
        assert model_key(plan, DEFAULT_PACKAGE) != model_key(plan, warm)


class TestThermalModelCache:
    def test_miss_then_hit(self, plan):
        cache = ThermalModelCache()
        _, hit_first = cache.simulator_for(plan, DEFAULT_PACKAGE)
        _, hit_second = cache.simulator_for(plan, DEFAULT_PACKAGE)
        assert (hit_first, hit_second) == (False, True)
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert len(cache) == 1

    def test_shared_model_separate_counters(self, plan):
        cache = ThermalModelCache()
        first, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        second, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        assert first.model is second.model
        assert first.steady_solver is second.steady_solver
        first.steady_state({"C0_0": 10.0})
        assert first.steady_solve_count == 1
        assert second.steady_solve_count == 0

    def test_shared_reduced_operator(self, plan):
        # The reduced-order influence matrix rides in the cache entry:
        # cold workers must not pay the multi-RHS extraction again.
        cache = ThermalModelCache()
        first, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        second, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        assert first.reduced_operator is second.reduced_operator
        fast = first.block_steady_state({"C0_0": 10.0})
        dense = second.steady_state({"C0_0": 10.0})
        assert fast.max_temperature_c() == pytest.approx(
            dense.max_temperature_c(), abs=1e-9
        )

    def test_reduced_operator_extraction_is_lazy(self, plan, monkeypatch):
        # Dense- or transient-only consumers must not pay the
        # extraction: it happens on first reduced-path use, once.
        from repro.thermal.reduced import ReducedSteadyOperator

        calls = []
        original = ReducedSteadyOperator.from_model.__func__

        def counting(cls, model, solver):
            calls.append(1)
            return original(cls, model, solver)

        monkeypatch.setattr(
            ReducedSteadyOperator, "from_model", classmethod(counting)
        )
        cache = ThermalModelCache()
        first, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        second, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        first.steady_state({"C0_0": 10.0})
        assert not calls
        first.block_steady_state({"C0_0": 10.0})
        second.block_steady_state({"C0_0": 10.0})
        assert len(calls) == 1

    def test_cached_simulator_matches_fresh_build(self, plan):
        cache = ThermalModelCache()
        cached, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        fresh = ThermalSimulator(plan, DEFAULT_PACKAGE)
        power = {"C0_0": 20.0, "C1_1": 5.0}
        assert cached.steady_state(power).max_temperature_c() == pytest.approx(
            fresh.steady_state(power).max_temperature_c()
        )

    def test_distinct_pairs_get_distinct_models(self, plan):
        cache = ThermalModelCache()
        a, _ = cache.simulator_for(plan, DEFAULT_PACKAGE)
        warm = replace(DEFAULT_PACKAGE, convection_resistance=0.9)
        b, hit = cache.simulator_for(plan, warm)
        assert not hit
        assert a.model is not b.model
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = ThermalModelCache(max_entries=2)
        plans = [grid_floorplan(1, n) for n in (1, 2, 3)]
        for p in plans:
            cache.simulator_for(p, DEFAULT_PACKAGE)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (1x1) was evicted; re-asking is a miss.
        _, hit = cache.simulator_for(plans[0], DEFAULT_PACKAGE)
        assert not hit

    @staticmethod
    def _fill(cache, count):
        plan = grid_floorplan(1, 1)
        for i in range(count):
            package = replace(DEFAULT_PACKAGE, convection_resistance=0.3 + 1e-3 * i)
            cache.simulator_for(plan, package)

    def test_bounded_by_default(self):
        cache = ThermalModelCache()
        self._fill(cache, MODEL_CACHE_ENTRIES + 3)
        assert len(cache) == MODEL_CACHE_ENTRIES
        assert cache.stats.evictions == 3

    def test_none_still_means_unbounded(self):
        cache = ThermalModelCache(max_entries=None)
        self._fill(cache, MODEL_CACHE_ENTRIES + 3)
        assert len(cache) == MODEL_CACHE_ENTRIES + 3
        assert cache.stats.evictions == 0

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ThermalModelCache(max_entries=0)

    def test_reset_and_clear(self, plan):
        cache = ThermalModelCache()
        cache.simulator_for(plan, DEFAULT_PACKAGE)
        cache.reset_stats()
        assert cache.stats.lookups == 0
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_stats_describe(self, plan):
        cache = ThermalModelCache()
        cache.simulator_for(plan, DEFAULT_PACKAGE)
        cache.simulator_for(plan, DEFAULT_PACKAGE)
        text = cache.stats.describe()
        assert "1 hits" in text and "2 lookups" in text


class TestAdjacencyKeying:
    @staticmethod
    def _gapped_plan():
        """Two blocks separated by a 0.5 mm gap.

        The default geometric tolerance sees no shared edge; a coarse
        1 mm tolerance bridges the gap and reports one — two different
        interface topologies, hence two different thermal networks.
        """
        from repro.floorplan.floorplan import Block, Floorplan, Rect

        return Floorplan(
            [
                Block("left", Rect(0.0, 0.0, 4e-3, 8e-3)),
                Block("right", Rect(4.5e-3, 0.0, 4e-3, 8e-3)),
            ],
            name="gapped",
        )

    def test_custom_adjacency_does_not_false_hit(self):
        from repro.floorplan.adjacency import AdjacencyMap
        from repro.thermal.package import DEFAULT_PACKAGE

        plan = self._gapped_plan()
        default_map = AdjacencyMap(plan)
        coarse_map = AdjacencyMap(plan, tol=1e-3)
        assert len(default_map.interfaces) != len(coarse_map.interfaces)
        assert model_key(plan, DEFAULT_PACKAGE, default_map) != model_key(
            plan, DEFAULT_PACKAGE, coarse_map
        )
        cache = ThermalModelCache()
        cache.simulator_for(plan, DEFAULT_PACKAGE, default_map)
        _, hit = cache.simulator_for(plan, DEFAULT_PACKAGE, coarse_map)
        assert not hit

    def test_same_adjacency_still_hits(self):
        from repro.floorplan.adjacency import AdjacencyMap
        from repro.floorplan.generator import grid_floorplan
        from repro.thermal.package import DEFAULT_PACKAGE

        plan = grid_floorplan(2, 2)
        adjacency = AdjacencyMap(plan)
        cache = ThermalModelCache()
        _, first = cache.simulator_for(plan, DEFAULT_PACKAGE, adjacency)
        _, second = cache.simulator_for(plan, DEFAULT_PACKAGE, AdjacencyMap(plan))
        assert not first
        assert second
