"""Workbench routing: shared cache, solve_soc, fleet dispatch."""

from __future__ import annotations

import math

import pytest

from repro.api import ScheduleRequest, Workbench, default_workbench, solve
from repro.engine import ScenarioSpec, ThermalModelCache, generate_fleet
from repro.errors import RequestError
from repro.soc.library import alpha15_soc

GRID = ScenarioSpec(kind="grid", rows=2, cols=2)
REQUEST = ScheduleRequest(scenario=GRID, tl_headroom=1.3, stcl_headroom=2.0)


class TestCacheSharing:
    def test_second_solve_hits_the_cache(self):
        workbench = Workbench()
        first = workbench.solve(REQUEST)
        second = workbench.solve(REQUEST)
        assert not first.cache_hit
        assert second.cache_hit
        assert workbench.cache.stats.hits == 1

    def test_passed_in_empty_cache_is_used_not_replaced(self):
        cache = ThermalModelCache()
        workbench = Workbench(cache=cache)
        workbench.solve(REQUEST)
        assert workbench.cache is cache
        assert cache.stats.lookups == 1

    def test_use_cache_false_disables_sharing(self):
        workbench = Workbench(use_cache=False)
        assert workbench.cache is None
        report = workbench.solve(REQUEST)
        assert not report.cache_hit

    def test_solvers_share_one_model(self):
        workbench = Workbench()
        workbench.solve(REQUEST)
        baseline = workbench.solve(
            ScheduleRequest(
                scenario=GRID, tl_headroom=1.3, solver="sequential"
            )
        )
        assert baseline.cache_hit


class TestSolveSoc:
    def test_prebuilt_soc_no_request(self):
        workbench = Workbench()
        report = workbench.solve_soc(
            alpha15_soc(), tl_c=170.0, stcl=60.0, stc_scale=0.02
        )
        assert report.request is None
        assert report.n_sessions >= 1

    def test_limit_validation(self):
        workbench = Workbench()
        soc = alpha15_soc()
        with pytest.raises(RequestError, match="exactly one"):
            workbench.solve_soc(soc, stcl=60.0)
        with pytest.raises(RequestError, match="needs an STCL"):
            workbench.solve_soc(soc, tl_c=170.0)
        with pytest.raises(RequestError, match="at most one"):
            workbench.solve_soc(
                soc, tl_c=170.0, stcl=60.0, stcl_headroom=2.0
            )

    def test_non_finite_limits_rejected(self, non_finite_limits):
        with pytest.raises(RequestError, match="must be a finite number"):
            Workbench().solve_soc(alpha15_soc(), **non_finite_limits)

    def test_baseline_without_stcl_reports_nan(self):
        report = Workbench().solve_soc(
            alpha15_soc(), solver="sequential", tl_c=170.0
        )
        assert math.isnan(report.stcl)
        assert report.n_sessions == 15


class TestHeadroomResolution:
    def test_absolute_and_headroom_agree(self):
        workbench = Workbench()
        headroom = workbench.solve(REQUEST)
        absolute = workbench.solve(
            ScheduleRequest(
                scenario=GRID, tl_c=headroom.tl_c, stcl=headroom.stcl
            )
        )
        assert absolute.length_s == headroom.length_s
        assert absolute.n_sessions == headroom.n_sessions


class TestFleetRouting:
    def test_run_fleet_shares_the_workbench_cache(self, tmp_path):
        workbench = Workbench()
        workbench.solve(
            ScheduleRequest(soc="alpha15", tl_c=170.0, stcl=60.0)
        )
        warm = len(workbench.cache)
        fleet = generate_fleet(4, seed=0)
        batch = workbench.run_fleet(
            fleet, jsonl_path=tmp_path / "fleet.jsonl"
        )
        assert batch.n_jobs == 4
        # The alpha15 job found the model the single solve warmed up.
        assert workbench.cache.stats.hits >= 1
        assert len(workbench.cache) >= warm
        assert (tmp_path / "fleet.jsonl").exists()


class TestModuleLevelSolve:
    def test_solve_uses_one_process_wide_cache(self):
        first = solve(REQUEST)
        second = solve(REQUEST)
        assert second.cache_hit or first.cache_hit  # warmed by any earlier test
        assert default_workbench() is default_workbench()
