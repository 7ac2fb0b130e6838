"""Built-in floorplans used by the paper's experiments.

Three layouts are bundled:

* :func:`alpha15` — a 15-block Alpha-21364-class floorplan.  The paper's
  experiments run on "the Compaq Alpha 21368 floorplan from [12]" (the
  HotSpot paper; the part is the 21364, whose core is an EV68).  The
  original ``.flp`` is not redistributable, so this is a reconstruction
  with the same unit mix and the property the experiments rely on: a
  wide spread of block areas, hence of power densities (our spread is
  22:1 between the L2 and the smallest logic blocks).  See DESIGN.md,
  substitution 2.
* :func:`hypothetical7` — the 7-core system of the paper's Figure 1
  motivational example: three small cores (C2-C4) and three large cores
  (C5-C7) all dissipating the same test power, with C2's power density
  exactly 4x C5's (the ratio the paper quotes), plus a large C1.
  The small cores are mutually adjacent (they lose their lateral escape
  paths when tested together); the large cores are mutually isolated.
* :func:`worked_example6` — the 6-block layout of the paper's Figure 2,
  used to illustrate the session thermal model with session {2, 4, 5}:
  block 2 touches the north die edge, block 4 the west and south edges,
  block 5 the south edge, and blocks 4 and 5 are adjacent to each other
  (their mutual resistance is the one modification M2 removes).

All dimensions in metres; layouts are validated (and, where stated,
fully tiled) on first use.  Each function builds its floorplan once per
process and returns that shared immutable object afterwards, so every
SoC built on a layout shares its adjacency map and fingerprint.
"""

from __future__ import annotations

from functools import cache

from ..units import mm
from .floorplan import Block, Floorplan
from .geometry import Rect


@cache
def alpha15() -> Floorplan:
    """15-block Alpha-21364-class floorplan on a 16 mm x 16 mm die.

    Fully tiled.  Unit mix: three L2 cache regions (the large, cool
    blocks), the L1 instruction and data caches, and ten small core
    logic units (branch predictor, TLBs, load/store queue, FP and
    integer clusters) — the hot, power-dense blocks.
    """
    blocks = [
        # The big L2 array spans the southern band of the die.
        Block("L2", Rect(mm(0.0), mm(0.0), mm(16.0), mm(7.0))),
        # L2 side banks flank the CPU core region.
        Block("L2_left", Rect(mm(0.0), mm(7.0), mm(3.0), mm(9.0))),
        Block("L2_right", Rect(mm(13.0), mm(7.0), mm(3.0), mm(9.0))),
        # L1 caches, directly north of the L2 array.
        Block("Icache", Rect(mm(3.0), mm(7.0), mm(5.0), mm(3.0))),
        Block("Dcache", Rect(mm(8.0), mm(7.0), mm(5.0), mm(3.0))),
        # Front-end / memory-pipe row.
        Block("Bpred", Rect(mm(3.0), mm(10.0), mm(2.5), mm(2.0))),
        Block("ITB", Rect(mm(5.5), mm(10.0), mm(2.5), mm(2.0))),
        Block("DTB", Rect(mm(8.0), mm(10.0), mm(2.5), mm(2.0))),
        Block("LdStQ", Rect(mm(10.5), mm(10.0), mm(2.5), mm(2.0))),
        # Floating-point cluster row.
        Block("FPMul", Rect(mm(3.0), mm(12.0), mm(4.0), mm(2.0))),
        Block("FPAdd", Rect(mm(7.0), mm(12.0), mm(3.0), mm(2.0))),
        Block("FPReg", Rect(mm(10.0), mm(12.0), mm(3.0), mm(2.0))),
        # Integer cluster row along the north edge.
        Block("IntMap", Rect(mm(3.0), mm(14.0), mm(3.0), mm(2.0))),
        Block("IntExec", Rect(mm(6.0), mm(14.0), mm(4.0), mm(2.0))),
        Block("IntReg", Rect(mm(10.0), mm(14.0), mm(3.0), mm(2.0))),
    ]
    return Floorplan(
        blocks,
        name="alpha15",
        outline=Rect(0.0, 0.0, mm(16.0), mm(16.0)),
        require_full_coverage=True,
    )


#: Unit classes of the alpha15 blocks, used by the power generator.
ALPHA15_CLASSES = {
    "L2": "cache",
    "L2_left": "cache",
    "L2_right": "cache",
    "Icache": "memory",
    "Dcache": "memory",
    "Bpred": "control",
    "ITB": "control",
    "DTB": "control",
    "LdStQ": "execution",
    "FPMul": "execution",
    "FPAdd": "execution",
    "FPReg": "register",
    "IntMap": "control",
    "IntExec": "execution",
    "IntReg": "register",
}


@cache
def hypothetical7() -> Floorplan:
    """The 7-core hypothetical system of the paper's Figure 1.

    24 mm x 24 mm die, not fully tiled (the figure's cartoon has white
    space; uncovered die is treated as adiabatic by the RC builder).

    Design constraints taken from the paper's text:

    * all cores dissipate the same test power (15 W in the example);
    * C2's power density is exactly 4x C5's, i.e. ``area(C5) = 4 *
      area(C2)`` (4 mm^2 vs 16 mm^2);
    * TS1 = {C2, C3, C4} are small *and* mutually adjacent, so testing
      them together removes their lateral escape paths toward each
      other — the hot session;
    * TS2 = {C5, C6, C7} are large and mutually non-adjacent — the cool
      session at the same total power.
    """
    blocks = [
        # The big left core; C2 and C3 lean against it.
        Block("C1", Rect(mm(0.0), mm(0.0), mm(9.0), mm(24.0))),
        # The small, dense cluster (tested together in TS1).
        Block("C2", Rect(mm(9.0), mm(18.0), mm(2.0), mm(2.0))),
        Block("C3", Rect(mm(9.0), mm(16.0), mm(2.0), mm(2.0))),
        Block("C4", Rect(mm(11.0), mm(16.0), mm(2.0), mm(2.0))),
        # The large, spread-out cores (tested together in TS2).
        Block("C5", Rect(mm(11.0), mm(2.0), mm(4.0), mm(4.0))),
        Block("C6", Rect(mm(17.0), mm(2.0), mm(4.0), mm(4.0))),
        Block("C7", Rect(mm(17.0), mm(8.0), mm(4.0), mm(4.0))),
    ]
    return Floorplan(
        blocks,
        name="hypothetical7",
        outline=Rect(0.0, 0.0, mm(24.0), mm(24.0)),
    )


#: Figure 1's test sessions and power constraint.
FIG1_SESSION_HOT = ("C2", "C3", "C4")
FIG1_SESSION_COOL = ("C5", "C6", "C7")
FIG1_CORE_POWER_W = 15.0
FIG1_POWER_LIMIT_W = 45.0


@cache
def worked_example6() -> Floorplan:
    """The 6-block layout of the paper's Figures 2-4 (session {2,4,5}).

    12 mm x 12 mm die, fully tiled.  Adjacency realises the resistance
    lists of Figure 3: block B2 touches B1, B3 and the north die edge;
    block B4 touches B1, B5 and the west and south edges; block B5
    touches B3, B4, B6 and the south edge.  The B4-B5 resistance is the
    active-active one modification M2 removes for session {B2, B4, B5}.
    """
    blocks = [
        Block("B1", Rect(mm(0.0), mm(8.0), mm(6.0), mm(4.0))),
        Block("B2", Rect(mm(6.0), mm(8.0), mm(6.0), mm(4.0))),
        Block("B3", Rect(mm(8.0), mm(0.0), mm(4.0), mm(8.0))),
        Block("B4", Rect(mm(0.0), mm(0.0), mm(4.0), mm(8.0))),
        Block("B5", Rect(mm(4.0), mm(0.0), mm(4.0), mm(4.0))),
        Block("B6", Rect(mm(4.0), mm(4.0), mm(4.0), mm(4.0))),
    ]
    return Floorplan(
        blocks,
        name="worked_example6",
        outline=Rect(0.0, 0.0, mm(12.0), mm(12.0)),
        require_full_coverage=True,
    )


#: The active set of the paper's worked example (Figures 2-4).
WORKED_EXAMPLE_SESSION = ("B2", "B4", "B5")
