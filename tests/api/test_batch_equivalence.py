"""Group solves must be bit-identical to solo solves.

The service's request coalescer pushes groups of requests through
:meth:`repro.api.Workbench.solve_batch`, which runs them one after
another over shared SoC builds, simulator facades and session models.
A solo solve is a group of one on the same path.  The design rests on
one property: **sharing must be observationally invisible**.  These
tests state it as a property over randomly generated floorplans and
mixed solvers — every report a group returns equals, field for field,
the report a solo solve of the same request returns, including the
``steady_solves`` effort accounting — and pin the per-request
bookkeeping a group must keep: model-cache hits as a sequential solo
run would see them, and worker wall times that enclose the traced
solve.

Why ``steady_solves`` can match at all: the group path never *stacks*
requests into one GEMM (BLAS multi-column products are not bitwise
equal to their single-column runs); each request computes exactly what
it would alone, and the effort counter is read per request as a
before/after difference on the shared simulator facade.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ScheduleRequest, Workbench
from repro.api.request import report_to_dict
from repro.engine.cache import ThermalModelCache
from repro.engine.scenarios import ScenarioSpec
from repro.errors import ReproError
from repro.service import solve_requests

#: Report fields that legitimately differ between two executions of the
#: same request: wall-clock stamps and cache provenance.  Everything
#: else — schedule, temperatures, weights, BCMT, effort counters — must
#: be bit-identical.
_NONDETERMINISTIC_FIELDS = ("elapsed_s", "timings", "cache_hit")


def canonical(report) -> dict:
    """A report's deterministic content, ready for exact comparison."""
    data = report_to_dict(report)
    for field in _NONDETERMINISTIC_FIELDS:
        data.pop(field, None)
    return data


def solve_alone(request: ScheduleRequest):
    """A solo solve on its own network build (no model cache)."""
    return Workbench(use_cache=False).solve(request)


def solve_group(requests):
    """One group solve on fresh network builds (no model cache)."""
    return Workbench(use_cache=False).solve_batch(requests)


def random_scenarios(rng: random.Random, count: int) -> list[ScenarioSpec]:
    """Seeded random floorplans, mixing grid and slicing kinds."""
    specs = []
    for _ in range(count):
        if rng.random() < 0.5:
            specs.append(
                ScenarioSpec(
                    kind="grid",
                    rows=rng.randint(2, 3),
                    cols=rng.randint(2, 3),
                    power_seed=rng.randint(0, 5),
                )
            )
        else:
            specs.append(
                ScenarioSpec(
                    kind="slicing",
                    n_blocks=rng.randint(5, 8),
                    floorplan_seed=rng.randint(0, 3),
                    power_seed=rng.randint(0, 5),
                )
            )
    return specs


def random_requests(seed: int, count: int) -> list[ScheduleRequest]:
    """A mixed burst: random floorplans, mixed solvers, varied limits.

    Scenario duplicates are likely by construction (small seed spaces),
    so the batch genuinely exercises shared builds rather than
    degenerating into per-request silos.
    """
    rng = random.Random(seed)
    requests = []
    for spec in random_scenarios(rng, count):
        solver = rng.choice(["thermal_aware", "sequential", "power_constrained"])
        kwargs: dict = {"scenario": spec, "solver": solver}
        kwargs["tl_headroom"] = rng.choice([8.0, 12.0, 16.0])
        if solver == "thermal_aware":
            kwargs["stcl_headroom"] = rng.choice([4.0, 6.0])
        requests.append(ScheduleRequest(**kwargs))
    return requests


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_reports_bit_identical_to_solo(self, seed):
        requests = random_requests(seed, count=8)
        batch = solve_group(requests)
        assert len(batch) == len(requests)
        for request, item in zip(requests, batch):
            solo = solve_alone(request)
            assert not isinstance(item, BaseException), item
            assert canonical(item) == canonical(solo)
            # Effort accounting matches exactly: a shared facade's
            # counter is read per request.
            assert item.steady_solves == solo.steady_solves

    def test_same_scenario_varied_limits_share_and_still_match(self):
        spec = ScenarioSpec(kind="grid", rows=3, cols=3, power_seed=7)
        requests = [
            ScheduleRequest(scenario=spec, tl_headroom=h, stcl_headroom=5.0)
            for h in (8.0, 10.0, 12.0, 14.0)
        ]
        batch = solve_group(requests)
        for request, item in zip(requests, batch):
            assert canonical(item) == canonical(solve_alone(request))

    def test_mid_batch_infeasible_request_is_isolated(self):
        spec = ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=3)
        good = ScheduleRequest(scenario=spec, tl_headroom=10.0, stcl_headroom=5.0)
        # An absolute limit below ambient cannot be met by any core.
        bad = ScheduleRequest(scenario=spec, tl_c=1.0, stcl=60.0)
        tail = ScheduleRequest(scenario=spec, tl_headroom=14.0, stcl_headroom=5.0)
        batch = solve_group([good, bad, tail])
        assert canonical(batch[0]) == canonical(solve_alone(good))
        assert isinstance(batch[1], ReproError)
        with pytest.raises(type(batch[1])):
            solve_alone(bad)
        # The neighbour *after* the failure still matches solo exactly:
        # the error did not poison the shared build.
        assert canonical(batch[2]) == canonical(solve_alone(tail))

    def test_batch_outputs_independent_of_group_order(self):
        requests = random_requests(seed=4, count=6)
        forward = solve_group(requests)
        backward = solve_group(list(reversed(requests)))
        for a, b in zip(forward, reversed(backward)):
            assert canonical(a) == canonical(b)


#: A cold-cache group that exercises every build-sharing case: a
#: scenario asked twice, a second power seed on the same network, and a
#: second network.
_GRID = ScenarioSpec(kind="grid", rows=3, cols=3, power_seed=7)
MIXED_GROUP = [
    ScheduleRequest(scenario=_GRID, tl_headroom=8.0, stcl_headroom=5.0),
    ScheduleRequest(scenario=_GRID, tl_headroom=12.0, stcl_headroom=5.0),
    ScheduleRequest(
        scenario=ScenarioSpec(kind="grid", rows=3, cols=3, power_seed=8),
        tl_headroom=8.0,
        stcl_headroom=5.0,
    ),
    ScheduleRequest(
        scenario=ScenarioSpec(kind="slicing", n_blocks=6, floorplan_seed=2),
        tl_headroom=8.0,
        stcl_headroom=5.0,
    ),
]


class TestGroupOfOneInvariants:
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_cache_hits_match_sequential_solo_solves(self, use_cache):
        grouped = Workbench(use_cache=use_cache).solve_batch(MIXED_GROUP)
        bench = Workbench(use_cache=use_cache)
        sequential = [bench.solve(request) for request in MIXED_GROUP]
        assert [r.cache_hit for r in grouped] == [r.cache_hit for r in sequential]
        for a, b in zip(grouped, sequential):
            assert canonical(a) == canonical(b)
        # The premise: a cold cache misses on each new network only.
        expected = [False, True, True, False] if use_cache else [False] * 4
        assert [r.cache_hit for r in sequential] == expected

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_worker_time_encloses_the_traced_solve(self, use_cache):
        def cold_cache():
            return ThermalModelCache() if use_cache else None

        solo_cache = cold_cache()
        alone = [solve_requests([r], solo_cache)[0] for r in MIXED_GROUP]
        grouped = solve_requests(MIXED_GROUP, cold_cache())
        for outcome in alone + grouped:
            assert outcome.ok, outcome.error
            timings = outcome.report.timings
            # Strictly: the worker's wall also covers the request's
            # validation and, on a build's first use, its SoC build.
            assert timings["worker"] > timings["total"]
            assert outcome.elapsed_s == timings["worker"]
