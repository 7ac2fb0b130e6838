"""The paper's low-complexity test-session thermal model (Section 2).

For a test session ``TS`` the model assigns every **active** core an
equivalent thermal resistance built from the *same* resistance formulas
as the full RC simulation (:mod:`repro.thermal.resistances`), rewired
by the paper's three modifications:

* **M1 (steady state only)** — capacitances are dropped; the model is
  purely resistive.
* **M2 (no active-active exchange)** — the lateral resistance between
  two cores tested in the same session is removed: both run hot, so
  their temperature difference (and the heat they exchange) is small.
* **M3 (passive cores are thermal ground)** — a lateral resistance from
  an active core to a passive neighbour now connects straight to
  ambient, because the passive core is assumed to stay at ambient
  temperature for the whole session.

With the actives decoupled from each other (M2) and every remaining
path terminating at ground (M3), the network falls apart into one
independent star per active core, and the equivalent resistance is a
plain parallel combination — the paper's Figure 4.  That is what makes
the model "low-complexity": evaluating a candidate session is O(degree)
arithmetic instead of a linear solve.  It also means a core's ``Rth``
depends only on which of its own neighbours are active, so each
(core, active-neighbour bitmask) pair's ``Rth`` is computed once per
floorplan, package and model variant and looked up afterwards:
Algorithm 1 retries a growth pass after every discarded session, and
the retries, like later requests on the same network, meet the same
neighbourhoods again.

On top of ``Rth`` the model defines (paper, end of Section 2):

* the **core thermal characteristic** ``TC_TS(i) = P(i) * Rth_TS(i)`` —
  a temperature-rise estimate for core *i* in session *TS*;
* the **session thermal characteristic**
  ``STC(TS) = max_i TC_TS(i) * P(i) * W(i)`` over the active cores,
  with ``W`` the adaptive weights Algorithm 1 escalates on violations
  (:mod:`repro.core.scheduler`).

The paper's Figures 3-4 draw only *lateral* paths (the vertical path
through the spreader is the one the model is trying to keep from
becoming the only escape route), so the default configuration is
lateral-only; ``include_vertical=True`` adds the per-core vertical
stack in parallel as an ablation.  A fully landlocked core whose
neighbours are all active then has ``Rth = inf`` and an infinite STC —
the scheduler reads that as "never admit this core into this session",
which is exactly the conservative behaviour wanted.

``stc_scale`` normalises STC values so that the STCL axis of the
paper's Figure 5 / Table 1 (20..100) is meaningful for a given SoC; the
paper's own STCL values are tied to their unpublished RC constants, so
the scale is part of the experiment calibration (DESIGN.md,
substitution 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import FloorplanError, SchedulingError
from ..soc.system import SocUnderTest
from ..spec_utils import is_positive_number
from ..thermal.resistances import resistance_table


@dataclass(frozen=True)
class SessionModelConfig:
    """Configuration (and ablation switches) for the session model.

    Attributes
    ----------
    drop_active_active:
        Paper modification M2.  ``False`` keeps the resistance between
        concurrently tested cores, treating the active neighbour as if
        it were grounded — a deliberately *optimistic* ablation that
        under-predicts hot spots (benchmarked in the ablation suite).
    ground_passive:
        Paper modification M3.  ``False`` removes passive-neighbour
        paths entirely instead of grounding them — a *pessimistic*
        ablation (only die-edge and vertical paths remain).
    include_vertical:
        Add the per-core vertical stack (die + TIM + spreading +
        shared spreader/sink path) in parallel with the lateral paths.
        The paper's Figure 4 shows lateral paths only, so the default
        is ``False``.
    stc_scale:
        STC values are divided by this constant; calibrated per SoC so
        the STCL sweep range matches the paper's 20..100 axis.
    """

    drop_active_active: bool = True
    ground_passive: bool = True
    include_vertical: bool = False
    stc_scale: float = 1.0

    def __post_init__(self) -> None:
        if not is_positive_number(self.stc_scale):
            raise SchedulingError(
                f"stc_scale must be a finite positive number, got {self.stc_scale!r}"
            )


#: The configuration matching the paper exactly (all defaults).
PAPER_SESSION_MODEL = SessionModelConfig()


class GrowthPass(NamedTuple):
    """One growth pass (:meth:`SessionThermalModel.grow`) and the masks it read.

    Attributes
    ----------
    cores:
        The admitted cores' floorplan indices, in admission order.
    admitted_at:
        Each admitted core's active-neighbour mask when it was
        admitted, aligned with *cores*.
    masks:
        Every core's active-neighbour mask at the end of the pass, by
        floorplan index.
    """

    cores: list[int]
    admitted_at: list[int]
    masks: list[int]


class SessionThermalModel:
    """Evaluates Rth / TC / STC for candidate test sessions of one SoC.

    All lateral and vertical resistances, and the conductances the
    pricing reads, come from the floorplan's
    :func:`~repro.thermal.resistances.resistance_table`, computed once
    per (floorplan, package) pair and shared through a bounded
    per-process memo with the full network builder; a model pairs them
    with its SoC's test powers, and evaluating a session is then pure
    parallel-resistance arithmetic.

    A core's ``Rth`` depends only on which of its neighbours are
    active, so the model prices every core by its floorplan index
    through one memo: per core, the bitmask of its active neighbours
    (bit *k* for the k-th entry of the table's
    ``neighbour_conductances``) maps to its ``Rth``, computed on first
    use.  ``Rth`` reads neither powers, weights nor ``stc_scale``, so
    the memo belongs to the resistance table
    (:meth:`~repro.thermal.resistances.ResistanceTable.rth_memo`): every
    model of the same M2/M3/vertical variant on the same floorplan and
    package shares it, and it lives as long as its table, which the
    table cache bounds.  :meth:`grow` and :meth:`singleton_stcs` work
    in index space directly (the scheduler's phase B); the name-keyed
    evaluators convert names and active sets to indices and masks at
    the boundary.

    Parameters
    ----------
    soc:
        The system under test (supplies floorplan, adjacency, package
        and per-core test powers).
    config:
        Model variant switches (defaults reproduce the paper).
    """

    def __init__(
        self, soc: SocUnderTest, config: SessionModelConfig = PAPER_SESSION_MODEL
    ) -> None:
        self._soc = soc
        self._config = config
        self._table = resistance_table(soc.adjacency, soc.package)
        # Per core index: (neighbour index, conductance) pairs, and the
        # conductances no session rewires (die edge, then vertical when
        # included), in the order parallel() would sum them.
        self._neighbours = self._table.neighbour_conductances
        self._fixed = self._table.escape_conductances(config.include_vertical)
        # Per core index j: (i, bit) for each core i that has j as a
        # neighbour; activating j sets bit in i's mask.
        self._neighbour_bits = self._table.neighbour_bits
        #: Test power per core, by floorplan index.
        self._power = [core.test_power_w for core in soc]
        # Whether a neighbour's path survives, indexed by "is it active":
        # M3 grounds passive neighbours, M2 drops active ones.
        self._keeps_path = (config.ground_passive, not config.drop_active_active)
        # Per core index: active-neighbour mask -> Rth (see _resistance),
        # shared with every model of this variant on the same table.
        self._rth = self._table.rth_memo(
            config.include_vertical, config.ground_passive, config.drop_active_active
        )

    # -- introspection ----------------------------------------------------------

    @property
    def soc(self) -> SocUnderTest:
        """The SoC this model was built for."""
        return self._soc

    @property
    def config(self) -> SessionModelConfig:
        """The model configuration."""
        return self._config

    def neighbour_resistances(self, core: str) -> Mapping[str, float]:
        """Lateral resistance to each neighbour of *core* (K/W)."""
        (i,) = self._indices([core])
        pairs = self._table.adjacency.interface_blocks
        names = self._soc.core_names
        return {
            names[int(pairs[t].sum()) - i]: float(self._table.lateral[t])
            for t in np.flatnonzero((pairs == i).any(axis=1))
        }

    def edge_resistance(self, core: str) -> float:
        """Combined die-edge escape resistance of *core* (K/W; inf if landlocked)."""
        (i,) = self._indices([core])
        return float(self._table.edge[i])

    def vertical_resistance(self, core: str) -> float:
        """Vertical stack resistance of *core* incl. the shared tail (K/W)."""
        (i,) = self._indices([core])
        return float(self._table.vertical[i] + self._table.shared_tail)

    # -- the kernel -------------------------------------------------------------------

    def _resistance(self, i: int, mask: int) -> float:
        """Core *i*'s ``Rth`` under active-neighbour *mask*, memoised.

        On first use, sums the surviving paths' conductances (neighbours
        in table order, then the fixed paths) in the order and with the
        operations :func:`~repro.units.parallel` would, so ``Rth`` is
        the same float as the parallel combination of those
        resistances; ``inf`` when no path is left.  It reads only the
        table and the variant the memo is keyed by, so whichever model
        fills an entry first, every model reads the same float.
        """
        memo = self._rth[i]
        rth = memo.get(mask)
        if rth is not None:
            return rth
        keeps_path = self._keeps_path
        conductance = 0.0
        for k, (_, g) in enumerate(self._neighbours[i]):
            if keeps_path[mask >> k & 1]:
                conductance += g
        for g in self._fixed[i]:
            conductance += g
        rth = math.inf if conductance == 0.0 else 1.0 / conductance
        memo[mask] = rth
        return rth

    def _term(self, i: int, mask: int, weight: float) -> float:
        """Core *i*'s unscaled STC term ``P * Rth * P * W`` (``inf`` if landlocked)."""
        rth = self._resistance(i, mask)
        if rth == math.inf:
            return math.inf
        p = self._power[i]
        return p * rth * p * weight

    def _indices(self, cores: Sequence[str]) -> list[int]:
        """Floorplan indices of the named cores."""
        floorplan = self._soc.floorplan
        try:
            return [floorplan.index_of(core) for core in cores]
        except FloorplanError:
            unknown = next(core for core in cores if core not in floorplan)
            raise SchedulingError(f"unknown core {unknown!r}") from None

    def _masks(self, indices: Iterable[int]) -> dict[int, int]:
        """Each core's active-neighbour mask when *indices* are active.

        Cores with no active neighbour are left out (their mask is 0).
        """
        masks: dict[int, int] = {}
        for j in indices:
            for i, bit in self._neighbour_bits[j]:
                masks[i] = masks.get(i, 0) | bit
        return masks

    # -- phase B in index space --------------------------------------------------------

    def grow_session(
        self, candidates: Iterable[int], stcl: float, weights: Sequence[float]
    ) -> list[int]:
        """One greedy growth pass: the cores admitted while ``STC <= stcl``.

        Scans *candidates* (floorplan indices) once, in order, and
        admits each core whose addition keeps the session's STC within
        *stcl* under *weights* (one per core, by index); returns the
        admitted cores in admission order.  :meth:`grow` runs the pass.
        """
        return self.grow(candidates, stcl, weights).cores

    def grow(
        self, candidates: Iterable[int], stcl: float, weights: Sequence[float]
    ) -> GrowthPass:
        """:meth:`grow_session`, with the masks its cores were priced at.

        Admitting a core rewires nothing but its direct neighbours'
        escape paths, so a candidate is priced by looking up only its
        own term and those of its already-admitted neighbours: O(degree)
        whatever the session's size.  That decision is exactly
        ``STC(session + [candidate]) <= stcl``: every untouched term
        passed the same check when its core was admitted, and dividing
        by the positive ``stc_scale`` preserves order, so the maximum
        fits if and only if each term does.  The pass keeps each core's
        active-neighbour mask, updates only the admitted core's
        neighbours, and records each admitted core's own mask, which
        :meth:`repeats` reads.
        """
        # The lookups below are _term inlined, calling out on a memo miss
        # only: a call per lookup costs about a fifth of the pass.
        rth = self._rth
        resistance = self._resistance
        power = self._power
        neighbour_bits = self._neighbour_bits
        scale = self._config.stc_scale
        inf = math.inf
        masks = [0] * len(power)
        active = bytearray(len(power))
        session: list[int] = []
        admitted_at: list[int] = []
        for core in candidates:
            if active[core]:
                raise SchedulingError(
                    f"core {self._soc.core_names[core]!r} is already part of "
                    f"the session"
                )
            # The candidate's own Rth does not depend on whether it is active.
            own = mask = masks[core]
            r = rth[core].get(mask)
            if r is None:
                r = resistance(core, mask)
            if r == inf:
                term = inf
            else:
                p = power[core]
                term = p * r * p * weights[core]
            if not term / scale <= stcl:
                continue
            for neighbour, bit in neighbour_bits[core]:
                if not active[neighbour]:
                    continue
                mask = masks[neighbour] | bit
                r = rth[neighbour].get(mask)
                if r is None:
                    r = resistance(neighbour, mask)
                if r == inf:
                    term = inf
                else:
                    p = power[neighbour]
                    term = p * r * p * weights[neighbour]
                if not term / scale <= stcl:
                    break
            else:
                active[core] = 1
                session.append(core)
                admitted_at.append(own)
                for neighbour, bit in neighbour_bits[core]:
                    masks[neighbour] |= bit
        return GrowthPass(session, admitted_at, masks)

    def repeats(
        self,
        grown: GrowthPass,
        raised: Iterable[int],
        stcl: float,
        weights: Sequence[float],
    ) -> bool:
        """Whether the pass that made *grown* admits the same cores under *weights*.

        *weights* may differ from the pass's weights only at the
        admitted cores whose positions in ``grown.cores`` are *raised*,
        and only upwards; the candidates and *stcl* are the pass's.
        O(len(raised)) lookups.

        The pass reads a core's weight only to price that core's term:
        as a candidate, at its own mask, and as an admitted neighbour of
        each later candidate, at its mask plus that candidate's bit.  A
        raised weight only raises terms, so every rejection stands, and
        the pass admits the same cores exactly when each raised core's
        term still fits at every mask it was priced at in a check that
        admitted a core.  Those masks grow from the core's admission
        mask to its final mask one admitted neighbour at a time, and
        its ``Rth`` is monotone along that chain in every M2/M3 setting
        (rising when M2 drops active neighbours' paths and M3 keeps
        passive ones, falling when only active neighbours keep theirs,
        flat otherwise), so the two ends bound the rest.
        """
        # _term inlined, as in grow: the pass has filled both entries.
        rth = self._rth
        power = self._power
        scale = self._config.stc_scale
        inf = math.inf
        cores, admitted_at, masks = grown
        for k in raised:
            core = cores[k]
            p = power[core]
            weight = weights[core]
            for mask in (admitted_at[k], masks[core]):
                r = rth[core].get(mask)
                if r is None:
                    r = self._resistance(core, mask)
                term = inf if r == inf else p * r * p * weight
                if not term / scale <= stcl:
                    return False
        return True

    def singleton_stcs(
        self, cores: Iterable[int], weights: Sequence[float] | None = None
    ) -> list[float]:
        """``STC([i])`` of each core index in *cores* (``inf`` when landlocked).

        *weights*, one per core by index, default to 1.0.
        """
        scale = self._config.stc_scale
        return [
            self._term(i, 0, 1.0 if weights is None else weights[i]) / scale
            for i in cores
        ]

    # -- the paper's quantities -----------------------------------------------------

    def equivalent_resistance(self, core: str, active: Iterable[str]) -> float:
        """``Rth_TS(core)``: the paper's equivalent thermal resistance (K/W).

        Parallel combination of the core's escape paths given the
        session's active set (Figure 4 of the paper).  Returns
        ``math.inf`` when no escape path remains (landlocked core with
        every neighbour active, lateral-only model).

        Parameters
        ----------
        core:
            The active core being evaluated (must be in *active*).
        active:
            All cores of the candidate session, including *core*.
        """
        active_list = list(active)
        if core not in active_list:
            raise SchedulingError(
                f"core {core!r} must be part of the active set it is "
                f"evaluated against"
            )
        (i,) = self._indices([core])
        return self._resistance(i, self._masks(self._indices(active_list)).get(i, 0))

    def thermal_characteristic(self, core: str, active: Iterable[str]) -> float:
        """``TC_TS(core) = P(core) * Rth_TS(core)`` (kelvin-rise estimate)."""
        rth = self.equivalent_resistance(core, active)
        if math.isinf(rth):
            return math.inf
        return self._power[self._indices([core])[0]] * rth

    def _terms(
        self, active: Iterable[str], weights: Mapping[str, float] | None
    ) -> Iterator[tuple[str, float]]:
        """Each active core with its unscaled STC term, in *active* order."""
        names = list(active)
        indices = self._indices(names)
        masks = self._masks(indices)
        return (
            (
                name,
                self._term(
                    i,
                    masks.get(i, 0),
                    1.0 if weights is None else weights.get(name, 1.0),
                ),
            )
            for name, i in zip(names, indices)
        )

    def session_thermal_characteristic(
        self,
        active: Iterable[str],
        weights: Mapping[str, float] | None = None,
    ) -> float:
        """``STC(TS) = max_i TC_TS(i) * P(i) * W(i) / stc_scale``.

        Parameters
        ----------
        active:
            The candidate session's cores.  An empty session has
            ``STC = 0`` (nothing dissipates), so any first core whose
            singleton STC fits the limit can seed a session.
        weights:
            Optional per-core weights ``W(i)`` (default all 1.0).

        Returns
        -------
        float
            The STC value; ``math.inf`` when any active core has no
            escape path.
        """
        active_list = list(active)
        if len(set(active_list)) != len(active_list):
            raise SchedulingError(f"duplicate cores in session: {active_list}")
        worst = 0.0
        for _, contribution in self._terms(active_list, weights):
            if math.isinf(contribution):
                return math.inf
            worst = max(worst, contribution)
        return worst / self._config.stc_scale

    def core_contributions(
        self,
        active: Iterable[str],
        weights: Mapping[str, float] | None = None,
    ) -> dict[str, float]:
        """Per-core ``TC * P * W / scale`` terms of the STC max (diagnostics)."""
        scale = self._config.stc_scale
        return {
            core: contribution / scale
            for core, contribution in self._terms(active, weights)
        }
