"""Seeded request mixes of the three workloads.

The benchmark's seed is the only source of variation: every generator
here draws from ``numpy.random.default_rng([seed, stream])`` and returns
plain :class:`~repro.api.ScheduleRequest` objects, which are the
program's only input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.api import ScheduleRequest
from repro.engine.scenarios import ScenarioSpec

#: The paper's Table 1 grid on alpha15: TL 145-185 degC, STCL 20-100.
TABLE1_TL_C = tuple(range(145, 186, 5))
TABLE1_STCL = tuple(range(20, 101, 10))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _power_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _stratified(rng: np.random.Generator, low: float, high: float, n: int) -> list[float]:
    """*n* draws, one per equal slice of ``[low, high)``, in random order."""
    edges = (np.arange(n) + rng.uniform(size=n)) / n
    return [float(low + (high - low) * x) for x in rng.permutation(edges)]


def grid(n: int, power_seed: int, **extra) -> ScenarioSpec:
    return ScenarioSpec(kind="grid", rows=n, cols=n, power_seed=power_seed, **extra)


def warm_requests() -> list[ScheduleRequest]:
    """One cheap request per network of paper-sweep and serve-poisson."""
    return [
        ScheduleRequest(soc="alpha15", tl_c=185.0, stcl=20.0),
        ScheduleRequest(scenario=grid(8, 1), tl_headroom=8.0, stcl_headroom=20.0),
        ScheduleRequest(scenario=grid(16, 1), tl_headroom=8.0, stcl_headroom=20.0),
    ]


# -- paper-sweep -----------------------------------------------------------------------


#: Rounds of the paper-sweep mix drawn per seed; the closed loop cycles
#: through them, so the seed's grid costs average over this many power maps.
SWEEP_ROUNDS = 4


def paper_sweep_rounds(seed: int, toy: bool = False) -> list[list[ScheduleRequest]]:
    """The rounds of the paper-sweep mix, each shuffled.

    Every round holds alpha15 over the Table 1 grid, tight 8x8 and 16x16
    grid requests on power maps of its own, and a ``power_constrained``
    solve of every system (the paper's baseline).  The counts give each
    size a similar share of wall time on a 2-vCPU box.
    """
    rng = _rng(seed, 1)
    return [_sweep_round(rng, toy) for _ in range(2 if toy else SWEEP_ROUNDS)]


def _sweep_round(rng: np.random.Generator, toy: bool) -> list[ScheduleRequest]:
    tls, stcls = (TABLE1_TL_C[::4], TABLE1_STCL[::4]) if toy else (TABLE1_TL_C, TABLE1_STCL)
    deck = [
        ScheduleRequest(soc="alpha15", tl_c=float(tl), stcl=float(stcl))
        for tl in tls
        for stcl in stcls
    ]
    deck.append(ScheduleRequest(soc="alpha15", tl_c=165.0, solver="power_constrained"))
    n_small = 2 if toy else 12
    for tl_h, stcl_h in zip(
        _stratified(rng, 1.1, 2.0, n_small), _stratified(rng, 1.5, 3.0, n_small)
    ):
        system = grid(8, _power_seed(rng))
        deck.append(ScheduleRequest(scenario=system, tl_headroom=tl_h, stcl_headroom=stcl_h))
        deck.append(
            ScheduleRequest(scenario=system, tl_headroom=tl_h, solver="power_constrained")
        )
    # One tight 16x16 solve takes ~0.5 s on its own, so toy rounds use a
    # loose one; the full deck fixes the headroom and varies the power map.
    big = grid(16, _power_seed(rng))
    tl_h, stcl_h = (8.0, 20.0) if toy else (1.5, 2.0)
    deck.append(ScheduleRequest(scenario=big, tl_headroom=tl_h, stcl_headroom=stcl_h))
    deck.append(ScheduleRequest(scenario=big, tl_headroom=tl_h, solver="power_constrained"))
    order = rng.permutation(len(deck))
    return [deck[i] for i in order]


# -- serve-poisson ---------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One rate of the serve-poisson ladder: arrivals at offsets from its start."""

    rate_rps: float
    duration_s: float
    arrivals: tuple[tuple[float, ScheduleRequest], ...]
    nominal: bool


#: Ladder rates (req/s) and the share of the run each step gets; the
#: middle step is the nominal rate the latency metrics are read at.
LADDER = ((6.0, 0.1), (12.0, 0.85), (256.0, 0.05))
TOY_LADDER = ((4.0, 0.5), (8.0, 0.5))


#: serve-poisson's mix by count: 16x16 and 8x8 grids; alpha15 takes the rest.
SERVE_GRIDS = ((16, 0.075), (8, 0.125))


def serve_requests(rng: np.random.Generator, count: int) -> list[ScheduleRequest]:
    """*count* distinct loose requests in arrival order: 7.5% 16x16,
    12.5% 8x8, the rest alpha15.

    Shares are exact, limits stratified over their ranges, and each grid
    size spread through the order (one request at a random place in each
    equal block of it), so every seed asks for the same mix and none
    bunches its heavy requests.  Grids get fresh power seeds (the model
    cache hits, the answer cache never does); loose limits commit a grid
    in about two sessions.
    """
    order: list[ScheduleRequest | None] = [None] * count
    for n, share in SERVE_GRIDS:
        k = round(share * count)
        limits = zip(_stratified(rng, 8.0, 12.0, k), _stratified(rng, 20.0, 40.0, k))
        for j, (tl, stcl) in enumerate(limits):
            block = range(j * count // k, (j + 1) * count // k)
            place = rng.choice([i for i in block if order[i] is None])
            order[place] = ScheduleRequest(
                scenario=grid(n, _power_seed(rng)), tl_headroom=tl, stcl_headroom=stcl
            )
    free = [i for i, request in enumerate(order) if request is None]
    limits = zip(
        _stratified(rng, 165.0, 185.0, len(free)), _stratified(rng, 20.0, 40.0, len(free))
    )
    for i, (tl, stcl) in zip(free, limits):
        order[i] = ScheduleRequest(soc="alpha15", tl_c=tl, stcl=stcl)
    return order


def serve_poisson_ladder(
    seed: int, seconds: float, toy: bool = False, nominal_only: bool = False, part: int = 0
) -> list[Step]:
    """Open-loop Poisson arrivals for every step of the rate ladder.

    Each step holds exactly ``round(rate * duration)`` arrivals placed
    as sorted uniform draws — a Poisson process conditioned on its
    count, so a seed always yields the same number of requests.
    Distinct *part* numbers draw distinct requests from the same seed.
    """
    rng = _rng(seed, 2 + 10 * part)
    ladder = TOY_LADDER if toy else LADDER
    nominal = max(range(len(ladder)), key=lambda i: ladder[i][1])
    steps = []
    for i, (rate, share) in enumerate(ladder):
        if nominal_only and i != nominal:
            continue
        duration = seconds * share
        count = max(1, round(rate * duration))
        offsets = np.sort(rng.uniform(0.0, duration, size=count))
        arrivals = tuple(
            (float(t), request) for t, request in zip(offsets, serve_requests(rng, count))
        )
        steps.append(Step(rate, duration, arrivals, i == nominal))
    return steps


# -- fleet-churn -----------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnItem:
    request: ScheduleRequest
    repeat_of: int | None


#: Shapes of new fleet-churn networks: slicing floorplans by block count
#: and square grids by side.  Each block of new requests has one of each.
CHURN_SHAPES = (
    ("slicing", 8), ("slicing", 16), ("slicing", 24), ("slicing", 32), ("slicing", 40),
    ("grid", 6), ("grid", 8), ("grid", 10), ("grid", 12),
)


#: Draws of each fleet-churn shape after which its limits and cooling
#: have covered every tenth of their ranges once.
CHURN_STRATA = 10


def _strata(rng: np.random.Generator, low: float, high: float) -> Iterator[float]:
    """Endless draws from ``[low, high)``; each run of :data:`CHURN_STRATA`
    has one draw in every equal slice."""
    while True:
        yield from _stratified(rng, low, high, CHURN_STRATA)


def churn_requests(rng: np.random.Generator) -> Iterator[ScheduleRequest]:
    """Endless requests on thermal networks no shard has seen.

    Slicing floorplans get a fresh geometry seed, grids a fresh cooling
    resistance, so every one is a model-cache miss.  Shapes come in
    shuffled blocks of :data:`CHURN_SHAPES`, and each shape's limits and
    cooling are stratified over its own draws, so every seed asks for
    the same mix of sizes and of tight and loose limits on each.
    """
    draws = [
        (_strata(rng, 3.5, 6.0), _strata(rng, 6.0, 15.0), _strata(rng, 0.3, 0.7))
        for _ in CHURN_SHAPES
    ]
    while True:
        for shape in rng.permutation(len(CHURN_SHAPES)):
            kind, size = CHURN_SHAPES[shape]
            tl_draws, stcl_draws, cooling_draws = draws[shape]
            tl, stcl, cooling = next(tl_draws), next(stcl_draws), next(cooling_draws)
            if kind == "slicing":
                scenario = ScenarioSpec(
                    kind="slicing",
                    n_blocks=size,
                    floorplan_seed=_power_seed(rng),
                    power_seed=_power_seed(rng),
                )
            else:
                scenario = grid(
                    size, _power_seed(rng), convection_resistance=round(cooling, 9)
                )
            yield ScheduleRequest(scenario=scenario, tl_headroom=tl, stcl_headroom=stcl)


#: fleet-churn's pattern: of every five requests, three are new networks
#: and two re-draw earlier requests (the first block in this order).
CHURN_BLOCK = (False, False, False, True, True)


def fleet_churn_sequence(seed: int, count: int, part: int = 0) -> list[ChurnItem]:
    """60% new networks, 40% seeded re-draws of earlier requests.

    Each block of :data:`CHURN_BLOCK` is shuffled, so every prefix of the
    sequence has about the same repeat share.  With 40% repeats the
    median request is a fresh solve rather than the boundary between
    answer-cache hits and solves.
    """
    rng = _rng(seed, 3 + 10 * part)
    fresh = churn_requests(rng)
    items: list[ChurnItem] = []
    while len(items) < count:
        block = CHURN_BLOCK if not items else rng.permutation(CHURN_BLOCK)
        for repeat in block:
            if repeat:
                source = int(rng.integers(0, len(items)))
                while items[source].repeat_of is not None:
                    source = items[source].repeat_of
                items.append(ChurnItem(items[source].request, source))
            else:
                items.append(ChurnItem(next(fresh), None))
    return items[:count]
