"""The sort-and-sweep geometry passes against their pairwise references.

:class:`AdjacencyMap` and the floorplan's overlap check run as array
passes over the pairs a sort-and-sweep proposes; the pairwise scans in
:mod:`.adjacency_reference` are the oracle.  Interfaces (order, sides,
lengths), each block's interface order and its die-boundary segments
must match bit for bit, and an overlapping block list must fail with
the same message naming the same first pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FloorplanError, ReproError
from repro.floorplan.adjacency import AdjacencyMap
from repro.floorplan.floorplan import Block, Floorplan
from repro.floorplan.generator import grid_floorplan
from repro.floorplan.geometry import Rect, meeting_pairs, overlapping

from .adjacency_reference import (
    ReferenceAdjacency,
    reference_adjacency,
    reference_overlap_error,
)
from .floorplan_strategies import TOLERANCES, jittered_blocks, plans

ORACLE = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def views(adjacency: AdjacencyMap) -> ReferenceAdjacency:
    """What *adjacency* exposes: interfaces, per-block order, segments."""
    names = adjacency.floorplan.block_names
    return ReferenceAdjacency(
        list(adjacency.interfaces),
        {name: list(adjacency.interfaces_of(name)) for name in names},
        {name: list(adjacency.boundary_segments(name)) for name in names},
    )


def assert_matches_reference(plan: Floorplan, tol: float | None = None) -> None:
    """The map of *plan* (at *tol*) equals the pairwise scan, errors included."""
    args = () if tol is None else (tol,)
    try:
        expected = reference_adjacency(plan, *args)
    except ReproError as error:
        with pytest.raises(type(error)) as raised:
            AdjacencyMap(plan, *args)
        assert str(raised.value) == str(error)
        return
    assert views(AdjacencyMap(plan, *args)) == expected


@ORACLE
@given(plan=plans)
def test_default_map_matches_the_pairwise_scan(plan):
    assert_matches_reference(plan)
    assert views(plan.adjacency) == views(AdjacencyMap(plan))


@ORACLE
@given(plan=plans, tol=st.sampled_from(TOLERANCES))
def test_custom_tolerance_map_matches_the_pairwise_scan(plan, tol):
    assert_matches_reference(plan, tol)


@ORACLE
@given(blocks=jittered_blocks(), tol=st.sampled_from(TOLERANCES))
def test_jittered_seams_match_or_fail_alike(blocks, tol):
    expected = reference_overlap_error(blocks)
    try:
        plan = Floorplan(blocks)
    except FloorplanError as error:
        assert str(error) == expected
        return
    assert expected is None
    assert_matches_reference(plan)
    assert_matches_reference(plan, tol)


def test_first_overlapping_pair_is_named():
    plan = grid_floorplan(4, 4, die_width=4.0, die_height=4.0)
    blocks = list(plan.blocks)
    # Slide C2_1 over C2_2 and C1_1 over C1_2 too: two overlaps, and the
    # validator names the one a double loop over the blocks meets first.
    for index in (9, 5):
        r = blocks[index].rect
        blocks[index] = Block(blocks[index].name, r.translated(0.5, 0.0))
    expected = reference_overlap_error(blocks)
    assert expected is not None and "C1_1" in expected
    with pytest.raises(FloorplanError) as raised:
        Floorplan(blocks)
    assert str(raised.value) == expected


def test_overlap_inside_the_tolerance_is_allowed():
    a = Block("a", Rect(0.0, 0.0, 1e-3, 1e-3))
    b = Block("b", Rect(1e-3 - 0.5e-7, 0.0, 1e-3, 1e-3))
    assert reference_overlap_error([a, b]) is None
    plan = Floorplan([a, b])
    assert_matches_reference(plan)


class TestMeetingPairs:
    def test_every_meeting_pair_once_in_loop_order(self):
        rng = np.random.default_rng(7)
        rects = np.concatenate(
            [rng.uniform(0.0, 10.0, size=(60, 2)), rng.uniform(0.1, 3.0, size=(60, 2))],
            1,
        )
        for slack in (0.0, 0.25):
            low = rects[:, :2] - slack
            high = rects[:, :2] + rects[:, 2:] + slack
            i, j = meeting_pairs(rects, slack)
            brute = [
                (a, b)
                for a in range(60)
                for b in range(a + 1, 60)
                if np.all((low[b] <= high[a]) & (low[a] <= high[b]))
            ]
            assert list(zip(i.tolist(), j.tolist())) == brute

    def test_a_column_sweeps_along_its_short_axis(self):
        # 100 stacked boxes share one x-extent: sweeping x would propose
        # all 4950 pairs, sweeping y proposes only the touching ones.
        ones = np.ones(100)
        rects = np.stack([np.zeros(100), np.arange(100.0), ones, ones], 1)
        i, j = meeting_pairs(rects)
        assert list(zip(i.tolist(), j.tolist())) == [(k, k + 1) for k in range(99)]

    def test_one_box(self):
        i, j = meeting_pairs(np.array([[0.0, 0.0, 1.0, 1.0]]))
        assert i.size == j.size == 0


def test_overlapping_is_rect_overlaps_per_pair():
    rng = np.random.default_rng(11)
    rects = np.round(rng.uniform(0.0, 4.0, size=(40, 4)), 1) + [0.0, 0.0, 0.1, 0.1]
    i, j = np.triu_indices(40, 1)
    boxes = [Rect(*row) for row in rects.tolist()]
    for tol in TOLERANCES:
        expected = [boxes[a].overlaps(boxes[b], tol) for a, b in zip(i, j)]
        assert overlapping(rects, i, j, tol).tolist() == expected
