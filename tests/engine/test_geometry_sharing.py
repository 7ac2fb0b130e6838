"""Built SoCs and geometry-only artefacts are built once per process and shared.

:meth:`ScenarioSpec.build_soc` serves one SoC per spec from a bounded
LRU keyed by every field's value and type.  A cold build takes its
floorplan from a bounded LRU keyed by the generator arguments (built-in
layouts are shared by the floorplan library), every shared floorplan
computes its adjacency map and fingerprint once, and one resistance
table per (floorplan, package) feeds both the network builder and the
session model.  These tests pin that the sharing happens, that the
shared artefacts equal fresh ones, and that a solve through warm memos
equals a solve with every memo cleared, field for field.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ScheduleRequest, Workbench
from repro.api.request import report_from_dict, report_to_dict
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.engine import scenarios
from repro.engine.cache import model_key
from repro.engine.scenarios import ScenarioSpec
from repro.errors import ReproError
from repro.floorplan import library
from repro.floorplan.adjacency import AdjacencyMap
from repro.floorplan.generator import grid_floorplan, slicing_floorplan
from repro.service.archive import outcome_from_record, outcome_record
from repro.service.execution import solve_requests
from repro.thermal import resistances
from repro.thermal.package import DEFAULT_PACKAGE

SPECS = [
    ScenarioSpec(kind="grid", rows=4, cols=5, power_seed=1),
    ScenarioSpec(kind="slicing", n_blocks=11, floorplan_seed=3, power_seed=2),
    ScenarioSpec(kind="alpha15", power_seed=2005),
    ScenarioSpec(kind="hypothetical7"),
    ScenarioSpec(kind="worked_example6"),
]


def clear_geometry_memos() -> None:
    """Forget every shared SoC, floorplan and resistance table of this process."""
    scenarios._scenario_soc.cache_clear()
    scenarios._generated_floorplan.cache_clear()
    scenarios._package.cache_clear()
    resistances.resistance_table.cache_clear()
    for builtin in (library.alpha15, library.hypothetical7, library.worked_example6):
        builtin.cache_clear()


def fresh_floorplan(spec: ScenarioSpec):
    """The spec's floorplan built anew, bypassing every memo."""
    if spec.kind == "grid":
        return grid_floorplan(spec.rows, spec.cols, spec.die_width, spec.die_height)
    if spec.kind == "slicing":
        return slicing_floorplan(
            spec.n_blocks,
            spec.die_width,
            spec.die_height,
            seed=spec.floorplan_seed,
            split_bias=spec.split_bias,
        )
    return getattr(library, spec.kind).__wrapped__()


def comparable(report) -> dict:
    """A report's dict form without the fields that vary run to run."""
    data = report_to_dict(report)
    for key in ("elapsed_s", "timings", "cache_hit"):
        del data[key]
    return data


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
class TestSharing:
    def test_power_and_cooling_variants_share_geometry(self, spec):
        soc = spec.build_soc()
        for variant in (
            replace(spec, power_seed=spec.power_seed + 1),
            replace(spec, convection_resistance=0.61, ambient_c=30.0),
            replace(spec, power_scale=1.3, test_time_s=2.0),
        ):
            other = variant.build_soc()
            assert other.floorplan is soc.floorplan
            assert other.adjacency is soc.adjacency
            same_cooling = variant.thermal_key() == spec.thermal_key()
            assert (other.package is soc.package) == same_cooling

    def test_shared_adjacency_equals_a_fresh_one(self, spec):
        floorplan = spec.build_soc().floorplan
        shared, fresh = floorplan.adjacency, AdjacencyMap(floorplan)
        assert shared.interfaces == fresh.interfaces
        for name in floorplan.block_names:
            assert shared.boundary_segments(name) == fresh.boundary_segments(name)

    def test_model_key_matches_fresh_objects(self, spec):
        soc = spec.build_soc()
        floorplan = fresh_floorplan(spec)
        package = replace(
            DEFAULT_PACKAGE,
            convection_resistance=spec.convection_resistance,
            ambient_c=spec.ambient_c,
        )
        assert floorplan is not soc.floorplan and package is not soc.package
        assert model_key(soc.floorplan, soc.package, soc.adjacency) == model_key(
            floorplan, package, AdjacencyMap(floorplan)
        )
        assert model_key(soc.floorplan, soc.package) == model_key(floorplan, package)

    @pytest.mark.parametrize("include_vertical", [False, True])
    def test_session_model_matches_a_fresh_build(self, spec, include_vertical):
        config = SessionModelConfig(include_vertical=include_vertical)
        soc = spec.build_soc()
        shared = SessionThermalModel(soc, config)
        clear_geometry_memos()
        fresh = SessionThermalModel(spec.build_soc(), config)
        assert fresh.soc.floorplan is not soc.floorplan
        assert shared._neighbours == fresh._neighbours
        assert shared._fixed == fresh._fixed
        for core in soc.core_names:
            assert shared.neighbour_resistances(core) == fresh.neighbour_resistances(core)
            assert shared.edge_resistance(core) == fresh.edge_resistance(core)
            assert shared.vertical_resistance(core) == fresh.vertical_resistance(core)


def test_int_and_float_die_sizes_do_not_share_a_floorplan():
    as_int = ScenarioSpec(kind="grid", rows=2, cols=2, die_width=1, die_height=1)
    as_float = ScenarioSpec(kind="grid", rows=2, cols=2, die_width=1.0, die_height=1.0)
    assert as_int.build_floorplan() is not as_float.build_floorplan()
    assert as_float.build_floorplan().fingerprint == fresh_floorplan(as_float).fingerprint


def test_int_and_float_die_sizes_do_not_share_an_soc():
    """Equal specs whose floorplans' fingerprints differ get an SoC each."""
    as_int = ScenarioSpec(kind="grid", rows=2, cols=2, die_width=1, die_height=1)
    as_float = ScenarioSpec(kind="grid", rows=2, cols=2, die_width=1.0, die_height=1.0)
    assert as_int == as_float and hash(as_int) == hash(as_float)
    clear_geometry_memos()
    int_soc = as_int.build_soc()
    float_soc = as_float.build_soc()
    assert float_soc is not int_soc
    assert as_int.build_soc() is int_soc and as_float.build_soc() is float_soc
    for spec, soc in ((as_int, int_soc), (as_float, float_soc)):
        assert soc.floorplan.fingerprint == fresh_floorplan(spec).fingerprint


def soc_content(soc) -> tuple:
    """What a built SoC holds, by value: name, floorplan, package and cores."""
    return (soc.name, soc.floorplan.fingerprint, soc.package, list(soc))


#: A changed value for every field but ``kind``.
CHANGED = dict(
    rows=5,
    cols=6,
    n_blocks=12,
    floorplan_seed=4,
    split_bias=0.4,
    die_width=12e-3,
    die_height=11e-3,
    power_seed=7,
    power_scale=1.3,
    test_time_s=2.0,
    convection_resistance=0.61,
    ambient_c=30.0,
)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_one_soc_per_spec_and_a_new_one_per_changed_field(spec):
    assert sorted(CHANGED) == sorted(
        f.name for f in dataclasses.fields(ScenarioSpec) if f.name != "kind"
    )
    clear_geometry_memos()
    soc = spec.build_soc()
    assert spec.build_soc() is soc
    assert replace(spec).build_soc() is soc  # an equal spec, another object
    variants = {}
    for name, value in CHANGED.items():
        assert getattr(spec, name) != value, name
        variant = replace(spec, **{name: value})
        variants[name] = variant, variant.build_soc()
        assert variants[name][1] is not soc, name
        assert variant.build_soc() is variants[name][1], name
    clear_geometry_memos()
    assert soc_content(spec.build_soc()) == soc_content(soc)
    for name, (variant, built) in variants.items():
        fresh = variant.build_soc()
        assert fresh is not built, name
        assert soc_content(fresh) == soc_content(built), name


def test_warm_paths_build_no_soc(tmp_path):
    """A solve, a group, a decode and an archive load of a seen spec build none."""
    requests = [
        ScheduleRequest(
            scenario=ScenarioSpec(kind="grid", rows=3, cols=3, power_seed=5),
            tl_headroom=1.3,
            stcl_headroom=2.0,
        ),
        ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0),
    ]
    bench = Workbench()
    reports = [bench.solve(request) for request in requests]
    misses = scenarios._scenario_soc.cache_info().misses
    again = [bench.solve(request) for request in requests]
    bench.solve_batch(requests * 2)
    outcomes = solve_requests(requests)
    for request, report, outcome in zip(requests, reports, outcomes):
        soc = report.schedule.soc
        assert again[requests.index(request)].schedule.soc is soc
        assert report_from_dict(report_to_dict(report)).schedule.soc is soc
        loaded = outcome_from_record(outcome_record(request, outcome))
        assert loaded.report.schedule.soc is soc
    assert scenarios._scenario_soc.cache_info().misses == misses


specs = st.one_of(
    st.builds(
        ScenarioSpec,
        kind=st.just("grid"),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        power_seed=st.integers(0, 10_000),
        convection_resistance=st.sampled_from([0.3, 0.45, 0.7]),
    ),
    st.builds(
        ScenarioSpec,
        kind=st.just("slicing"),
        n_blocks=st.integers(2, 16),
        floorplan_seed=st.integers(0, 4),
        power_seed=st.integers(0, 10_000),
        convection_resistance=st.sampled_from([0.3, 0.45, 0.7]),
    ),
    st.builds(
        ScenarioSpec,
        kind=st.sampled_from(["alpha15", "hypothetical7", "worked_example6"]),
        power_seed=st.integers(0, 10_000),
        power_scale=st.floats(0.8, 1.2),
        convection_resistance=st.sampled_from([0.3, 0.45, 0.7]),
    ),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=specs,
    tl_headroom=st.floats(1.05, 2.0),
    stcl_headroom=st.floats(1.1, 3.0),
    solver=st.sampled_from(["thermal_aware", "thermal_aware", "power_constrained"]),
)
def test_warm_memo_solve_equals_cold_solve(spec, tl_headroom, stcl_headroom, solver):
    request = ScheduleRequest(
        scenario=spec,
        tl_headroom=tl_headroom,
        stcl_headroom=stcl_headroom,
        solver=solver,
    )
    warm_bench = Workbench()
    solve_or_error(warm_bench, request)  # fills every memo on the way
    warm = solve_or_error(warm_bench, request)
    clear_geometry_memos()
    cold = solve_or_error(Workbench(), request)
    if isinstance(warm, ReproError):
        assert (type(warm), str(warm)) == (type(cold), str(cold))
        return
    assert comparable(warm) == comparable(cold)
    assert warm.steady_solves == cold.steady_solves
    assert warm.result.schedule.sessions == cold.result.schedule.sessions
    assert warm.result.discarded == cold.result.discarded
    assert warm.result.weights == cold.result.weights
    assert warm.result.effort_s == cold.result.effort_s


def solve_or_error(bench, request):
    try:
        return bench.solve(request)
    except ReproError as exc:
        return exc


class TestReportDecode:
    @pytest.fixture(scope="class")
    def grid16_report(self):
        request = ScheduleRequest(
            scenario=ScenarioSpec(kind="grid", rows=16, cols=16, power_seed=9),
            tl_headroom=1.5,
            stcl_headroom=2.0,
        )
        return Workbench().solve(request)

    def test_decode_reuses_the_shared_floorplan(self, grid16_report):
        decoded = report_from_dict(report_to_dict(grid16_report))
        floorplan = grid16_report.request.scenario.build_floorplan()
        assert decoded.schedule.soc.floorplan is floorplan
        assert decoded.schedule.soc.adjacency is floorplan.adjacency
        assert comparable(decoded) == comparable(grid16_report)

    def test_decode_builds_no_adjacency_map(self, grid16_report):
        data = report_to_dict(grid16_report)
        scenarios._scenario_soc.cache_clear()
        scenarios._generated_floorplan.cache_clear()
        decoded = report_from_dict(data)
        floorplan = decoded.schedule.soc.floorplan
        assert floorplan is grid16_report.request.scenario.build_floorplan()
        # Floorplan.adjacency is a cached_property: built maps live in vars().
        assert "adjacency" not in vars(floorplan)
        assert comparable(decoded) == comparable(grid16_report)
        assert isinstance(decoded.schedule.soc.adjacency, AdjacencyMap)
        assert "adjacency" in vars(floorplan)

    def test_decode_still_rejects_an_unknown_core(self, grid16_report):
        data = report_to_dict(grid16_report)
        session = data["result"]["schedule"]["sessions"][0]
        session["cores"][0] = "NOT_A_CORE"
        with pytest.raises(ReproError, match="NOT_A_CORE"):
            report_from_dict(data)


def test_threads_building_the_same_specs_get_correct_socs():
    clear_geometry_memos()
    specs_ = [
        ScenarioSpec(kind="grid", rows=6, cols=6, power_seed=seed) for seed in range(3)
    ] + [
        ScenarioSpec(kind="slicing", n_blocks=20, floorplan_seed=1, power_seed=seed)
        for seed in range(3)
    ] + [ScenarioSpec(kind="alpha15", power_seed=seed) for seed in range(3)]
    jobs = specs_ * 4
    barrier = threading.Barrier(4)

    def build(spec):
        try:
            barrier.wait(timeout=5)
        except threading.BrokenBarrierError:
            pass
        return spec.build_soc()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            socs = list(pool.map(build, jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    clear_geometry_memos()
    for spec, soc in zip(jobs, socs):
        floorplan = fresh_floorplan(spec)
        assert soc.floorplan.fingerprint == floorplan.fingerprint
        assert soc.adjacency.interfaces == AdjacencyMap(floorplan).interfaces
        assert soc.adjacency.floorplan is soc.floorplan
        assert soc.test_power_map() == spec.build_soc().test_power_map()


class TestMemoBounds:
    def test_soc_memo_stays_at_its_bound(self):
        clear_geometry_memos()
        first = ScenarioSpec(kind="grid", rows=2, cols=2)
        soc = first.build_soc()
        for seed in range(1, scenarios.SCENARIO_MEMO_SIZE + 4):
            replace(first, power_seed=seed).build_soc()
        info = scenarios._scenario_soc.cache_info()
        assert info.currsize == info.maxsize == scenarios.SCENARIO_MEMO_SIZE
        assert first.build_soc() is not soc  # evicted, so built again

    def test_floorplan_and_package_memos_stay_at_their_bound(self):
        clear_geometry_memos()
        for i in range(scenarios.SCENARIO_MEMO_SIZE + 4):
            ScenarioSpec(
                kind="grid",
                rows=2,
                cols=2,
                die_width=(10 + i) * 1e-3,
                convection_resistance=0.3 + 1e-3 * i,
            ).build_soc()
        for memo in (scenarios._generated_floorplan, scenarios._package):
            info = memo.cache_info()
            assert info.currsize == info.maxsize == scenarios.SCENARIO_MEMO_SIZE

    def test_conductance_memo_stays_at_its_bound(self):
        clear_geometry_memos()
        for i in range(resistances.RESISTANCE_TABLE_SIZE + 4):
            spec = ScenarioSpec(
                kind="grid", rows=2, cols=2, convection_resistance=0.3 + 1e-3 * i
            )
            SessionThermalModel(spec.build_soc())
        info = resistances.resistance_table.cache_info()
        assert info.currsize == info.maxsize == resistances.RESISTANCE_TABLE_SIZE
