"""Hypothesis strategies for the floorplans the geometry oracles run on.

Slicing floorplans of 1-64 blocks, grids up to 16x16, the three library
layouts (one of which does not tile its die), floorplans parsed from
HotSpot ``.flp`` text printed to seven significant digits (so seams
carry rounding noise well inside the tolerance), and block lists whose
every edge is moved by 0, +-0.5 or +-2 geometric tolerances (so some
seams stop touching and some blocks overlap).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.floorplan import library
from repro.floorplan.floorplan import Block, Floorplan
from repro.floorplan.generator import grid_floorplan, slicing_floorplan
from repro.floorplan.geometry import GEOM_TOL, Rect
from repro.floorplan.hotspot_format import parse_flp

#: Edge moves of the jittered block lists, in units of GEOM_TOL.
JITTERS = (0.0, 0.5, -0.5, 2.0, -2.0)

#: Tolerances a custom-``tol`` adjacency map is built with.
TOLERANCES = (GEOM_TOL, 3e-7, 1e-9, 0.0)

die_sides = st.sampled_from([16e-3, 10e-3, 7.3e-3])

slicing_plans = st.builds(
    slicing_floorplan,
    n_blocks=st.integers(1, 64),
    die_width=die_sides,
    die_height=die_sides,
    seed=st.integers(0, 2**16),
    split_bias=st.floats(0.2, 0.8),
)

grid_plans = st.builds(
    grid_floorplan,
    rows=st.integers(1, 16),
    cols=st.integers(1, 16),
    die_width=die_sides,
    die_height=die_sides,
)

library_plans = st.sampled_from(
    [library.alpha15(), library.hypothetical7(), library.worked_example6()]
)


def _flp_text(plan: Floorplan) -> str:
    return "".join(
        f"{b.name}\t{b.rect.width:.7g}\t{b.rect.height:.7g}\t"
        f"{b.rect.x:.7g}\t{b.rect.y:.7g}\n"
        for b in plan
    )


flp_plans = st.one_of(slicing_plans, grid_plans, library_plans).map(
    lambda plan: parse_flp(_flp_text(plan), name=f"{plan.name}-flp")
)

#: Every valid floorplan family.
plans = st.one_of(slicing_plans, grid_plans, library_plans, flp_plans)


@st.composite
def jittered_blocks(draw: st.DrawFn) -> list[Block]:
    """A floorplan's blocks with every edge moved by a few tolerances."""
    plan = draw(st.one_of(slicing_plans, grid_plans, library_plans))
    moves = draw(
        st.lists(
            st.sampled_from(JITTERS), min_size=4 * len(plan), max_size=4 * len(plan)
        )
    )
    blocks = []
    for k, block in enumerate(plan):
        r = block.rect
        dx1, dy1, dx2, dy2 = (m * GEOM_TOL for m in moves[4 * k : 4 * k + 4])
        moved = Rect.from_corners(r.x + dx1, r.y + dy1, r.x2 + dx2, r.y2 + dy2)
        blocks.append(Block(block.name, moved))
    return blocks
