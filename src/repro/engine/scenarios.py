"""Declarative scheduling scenarios and seeded fleet generation.

A :class:`ScenarioSpec` is a *description* of a system under test — not
the built objects.  It is a frozen dataclass of primitives, so it is
hashable, picklable (it crosses process boundaries in the
multiprocessing backend) and trivially JSON-serialisable; the SoC is
built on demand in whatever process executes the job, and at most once
per process while the spec stays warm: :meth:`ScenarioSpec.build_soc`
serves one shared, immutable SoC per spec from a bounded LRU.  What a
cold build makes is shared more widely still: the floorplan comes from
a bounded LRU keyed by the spec's generator arguments (built-in layouts
are shared by the floorplan library), and each shared floorplan
computes its adjacency map and fingerprint once; packages are shared
per cooling regime the same way.  So a cold build makes only the power
profile and the :class:`~repro.soc.system.SocUnderTest`, and the
thermal-model cache deduplicates the compiled network behind it.

:func:`generate_fleet` turns "as many scenarios as you can imagine"
into one seeded call: it emits a diverse mix of grid and random
slicing-tree floorplans, heterogeneous packages (different cooling
regimes), and varied power profiles, while deliberately drawing
floorplan/package parameters from small pools so that many jobs share a
thermal network — the sharing the cache exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Literal, Sequence

import numpy as np

from ..errors import ReproError, SchedulingError
from ..floorplan.floorplan import Floorplan
from ..floorplan.generator import grid_floorplan, slicing_floorplan
from ..power.generator import PowerGeneratorConfig, generate_power_profile
from ..soc.library import (
    ALPHA15_STC_SCALE,
    alpha15_soc,
    hypothetical7_soc,
    worked_example6_soc,
)
from ..soc.system import SocUnderTest
from ..spec_utils import is_finite_number, is_integer, is_positive_number
from ..thermal.package import DEFAULT_PACKAGE, PackageConfig

if TYPE_CHECKING:
    from ..api.request import ScheduleRequest

#: Floorplan families a scenario can describe.
ScenarioKind = Literal["grid", "slicing", "alpha15", "hypothetical7", "worked_example6"]

#: Kinds backed by built-in library SoCs (no generator parameters).
BUILTIN_KINDS = ("alpha15", "hypothetical7", "worked_example6")

#: Built SoCs, and separately generated floorplan shapes and package
#: cooling regimes, that each process keeps for reuse.  An SoC entry
#: holds its cores (about 45 KB for a 16x16 grid, 4 KB for alpha15) and
#: keeps its floorplan and package alive.  A floorplan entry holds the
#: blocks plus the adjacency map and fingerprint they compute on first
#: use: about 0.2 MB for a 16x16 grid, far less for the tens-of-blocks
#: shapes most requests name.  A package entry is a few hundred bytes.
SCENARIO_MEMO_SIZE = 64

#: Most blocks a generated scenario may have.  The thermal model is
#: dense: a network of n blocks holds (n+7)^2 conductances plus their
#: factor and influence matrix, about 25 MB at this limit, which is 4x
#: the largest grid (16x16) the ledger's workloads and examples use.
MAX_SCENARIO_BLOCKS = 1024


@lru_cache(maxsize=SCENARIO_MEMO_SIZE, typed=True)
def _package(convection_resistance: float, ambient_c: float) -> PackageConfig:
    """The shared package of one cooling regime."""
    return replace(
        DEFAULT_PACKAGE,
        convection_resistance=convection_resistance,
        ambient_c=ambient_c,
    )


@lru_cache(maxsize=SCENARIO_MEMO_SIZE, typed=True)
def _generated_floorplan(kind: str, *shape: Any) -> Floorplan:
    """The shared floorplan of one generated shape (see ``ScenarioSpec._shape``).

    ``typed=True`` keeps ``1`` and ``1.0`` apart: they build the same
    blocks but an outline whose ``repr`` (hence fingerprint) differs.
    """
    if kind == "grid":
        return grid_floorplan(*shape)
    n_blocks, die_width, die_height, seed, split_bias = shape
    return slicing_floorplan(
        n_blocks, die_width, die_height, seed=seed, split_bias=split_bias
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """A self-contained, picklable description of one system under test.

    Attributes
    ----------
    kind:
        Floorplan family: ``"grid"``/``"slicing"`` are generated,
        the rest are the built-in library platforms.
    rows, cols:
        Grid dimensions (``kind="grid"`` only).
    n_blocks:
        Block count (``kind="slicing"`` only).
    floorplan_seed:
        Seed of the slicing-tree generator.
    split_bias:
        Cut-position bias of the slicing generator.
    die_width, die_height:
        Die size in metres.
    power_seed:
        Seed of the synthetic power profile (generated kinds) or the
        alpha15 multiplier draw.
    power_scale:
        Uniform scaling applied to the power profile.
    test_time_s:
        Per-core test time in seconds.
    convection_resistance:
        Package sink-to-ambient convection resistance (K/W) — the knob
        that varies the cooling regime across a heterogeneous fleet.
    ambient_c:
        Ambient temperature (Celsius).
    """

    kind: ScenarioKind = "grid"
    rows: int = 3
    cols: int = 3
    n_blocks: int = 9
    floorplan_seed: int = 0
    split_bias: float = 0.5
    die_width: float = 16e-3
    die_height: float = 16e-3
    power_seed: int = 0
    power_scale: float = 1.0
    test_time_s: float = 1.0
    convection_resistance: float = DEFAULT_PACKAGE.convection_resistance
    ambient_c: float = DEFAULT_PACKAGE.ambient_c

    def __post_init__(self) -> None:
        if self.kind not in ("grid", "slicing") + BUILTIN_KINDS:
            raise SchedulingError(f"unknown scenario kind {self.kind!r}")
        for name in ("rows", "cols", "n_blocks"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise SchedulingError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        blocks = {"grid": self.rows * self.cols, "slicing": self.n_blocks}.get(
            self.kind
        )
        if blocks is not None and blocks > MAX_SCENARIO_BLOCKS:
            raise SchedulingError(
                f"a {self.kind} scenario of {blocks} blocks exceeds the limit of "
                f"{MAX_SCENARIO_BLOCKS} blocks (the thermal model is dense)"
            )
        for name in ("floorplan_seed", "power_seed"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 0):
                raise SchedulingError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )
        for name in (
            "die_width",
            "die_height",
            "power_scale",
            "test_time_s",
            "convection_resistance",
        ):
            value = getattr(self, name)
            if not is_positive_number(value):
                raise SchedulingError(
                    f"{name} must be a finite positive number, got {value!r}"
                )
        if not (is_finite_number(self.split_bias) and 0.0 < self.split_bias < 1.0):
            raise SchedulingError(
                f"split_bias must lie in (0, 1), got {self.split_bias!r}"
            )
        if not is_finite_number(self.ambient_c):
            raise SchedulingError(
                f"ambient_c must be a finite number, got {self.ambient_c!r}"
            )

    # -- derived identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        """Stable human-readable scenario name."""
        if self.kind == "grid":
            core = f"grid{self.rows}x{self.cols}"
        elif self.kind == "slicing":
            core = f"slicing{self.n_blocks}-f{self.floorplan_seed}"
        else:
            core = self.kind
        return f"{core}-p{self.power_seed}-r{self.convection_resistance:g}"

    def default_stc_scale(self) -> float:
        """The STC normalisation calibrated for this platform."""
        return ALPHA15_STC_SCALE if self.kind == "alpha15" else 1.0

    def needs_vertical_path(self) -> bool:
        """Whether the session model must include the vertical heat path.

        The lateral-only paper model assigns an isolated core (no
        touching neighbours) an infinite thermal characteristic, which
        makes every limit unsatisfiable.  That can only happen on
        floorplans that do not tile the die — of the supported kinds,
        only ``hypothetical7`` (48% die coverage; its outer cores are
        islands).  Generated grids and slicing trees always tile fully.
        """
        return self.kind == "hypothetical7"

    def thermal_key(self) -> tuple:
        """Hashable identity of the thermal *network* this spec builds.

        Two specs with equal keys produce the same floorplan, package
        and adjacency — hence the same compiled network, factorisation
        and reduced operator — even when their power profiles or test
        times differ.  The service's request coalescer groups pending
        jobs by this key (a coarser key than the full request content
        hash), so one shared model build serves the whole group.  Only
        the fields that feed :meth:`build_floorplan` /
        :meth:`build_package` participate; ``power_seed`` /
        ``power_scale`` / ``test_time_s`` deliberately do not.
        """
        return (self.kind, self.convection_resistance, self.ambient_c) + self._shape()

    def _shape(self) -> tuple:
        """The floorplan generator's arguments (empty for built-in kinds).

        Specs with equal kind and shape build the same floorplan, so
        :meth:`build_floorplan` shares one object between them.
        """
        if self.kind == "grid":
            return (self.rows, self.cols, self.die_width, self.die_height)
        if self.kind == "slicing":
            return (
                self.n_blocks,
                self.die_width,
                self.die_height,
                self.floorplan_seed,
                self.split_bias,
            )
        return ()

    # -- builders -----------------------------------------------------------------

    def build_package(self) -> PackageConfig:
        """The package stack this scenario describes, shared per cooling regime."""
        return _package(self.convection_resistance, self.ambient_c)

    def build_floorplan(self) -> Floorplan:
        """The floorplan this scenario describes, shared per shape.

        Built on the first request for its shape and then served from a
        per-process LRU of :data:`SCENARIO_MEMO_SIZE` shapes; the
        floorplan is immutable, so every SoC built on it shares its
        adjacency map and fingerprint too.
        """
        if self.kind in BUILTIN_KINDS:
            return self.build_soc().floorplan
        return _generated_floorplan(self.kind, *self._shape())

    def build_soc(self) -> SocUnderTest:
        """The full system under test this scenario describes, shared per spec.

        Built on the first request for this spec and then served from a
        per-process LRU of :data:`SCENARIO_MEMO_SIZE` specs, keyed by
        every field's value and type.  The SoC is immutable, so every
        caller shares it: a solve, a same-network group, a decoded
        report and an archive record of one spec all read one object,
        equal to a fresh build.
        """
        return _scenario_soc(*_field_values(self))

    def _build_soc(self) -> SocUnderTest:
        """Construct the full system under test this scenario describes."""
        package = self.build_package()
        if self.kind == "alpha15":
            return alpha15_soc(
                package=package,
                power_scale=self.power_scale,
                seed=self.power_seed,
                test_time_s=self.test_time_s,
            )
        if self.kind == "hypothetical7":
            return hypothetical7_soc(package=package, test_time_s=self.test_time_s)
        if self.kind == "worked_example6":
            return worked_example6_soc(package=package, test_time_s=self.test_time_s)
        floorplan = self.build_floorplan()
        profile = generate_power_profile(
            floorplan, config=PowerGeneratorConfig(seed=self.power_seed)
        )
        if self.power_scale != 1.0:
            profile = profile.scaled(self.power_scale)
        return SocUnderTest.from_profile(
            floorplan,
            profile,
            package=package,
            test_time_s=self.test_time_s,
            name=self.name,
        )


#: A spec's field values, in field order (the constructor's arguments).
_field_values = attrgetter(*(f.name for f in fields(ScenarioSpec)))


@lru_cache(maxsize=SCENARIO_MEMO_SIZE, typed=True)
def _scenario_soc(*values: Any) -> SocUnderTest:
    """The shared SoC of the spec with these field values.

    ``typed=True`` keeps specs that compare equal apart when a value's
    type differs: ``die_width=1`` and ``1.0`` build the same blocks but
    floorplans whose fingerprints differ.
    """
    return ScenarioSpec(*values)._build_soc()


@dataclass(frozen=True)
class FleetConfig:
    """Shape of a generated scenario fleet.

    Attributes
    ----------
    grid_dims:
        Pool of (rows, cols) grid shapes to draw from.
    slicing_blocks:
        Pool of slicing-tree block counts.
    n_floorplan_seeds:
        Size of the slicing-seed pool.  Keeping it small guarantees
        that distinct jobs share floorplans (and hence thermal
        networks), which is what the model cache exploits; set it to
        the fleet size for maximally diverse geometry.
    convection_pool:
        Cooling regimes (convection resistance, K/W) drawn per job.
    power_scale_range:
        Log-uniform range of power-profile scaling.
    slicing_fraction:
        Fraction of generated scenarios using slicing floorplans (the
        rest are grids).
    include_builtins:
        Start the fleet with the built-in platforms (alpha15 etc.).
    tl_headroom_range:
        Per-job temperature-limit headroom over the hottest singleton
        (must stay > 1 so phase A always passes).
    stcl_headroom_range:
        Per-job STCL headroom over the worst singleton STC (> 1 keeps
        every core schedulable).
    """

    grid_dims: Sequence[tuple[int, int]] = ((2, 2), (3, 3), (3, 4), (4, 4))
    slicing_blocks: Sequence[int] = (6, 9, 12, 15)
    n_floorplan_seeds: int = 3
    convection_pool: Sequence[float] = (0.35, 0.45, 0.6)
    power_scale_range: tuple[float, float] = (0.8, 1.6)
    slicing_fraction: float = 0.5
    include_builtins: bool = True
    tl_headroom_range: tuple[float, float] = (1.08, 1.35)
    stcl_headroom_range: tuple[float, float] = (1.15, 2.5)

    def __post_init__(self) -> None:
        if not 0.0 <= self.slicing_fraction <= 1.0:
            raise SchedulingError(
                f"slicing_fraction must lie in [0, 1], got {self.slicing_fraction!r}"
            )
        if self.n_floorplan_seeds < 1:
            raise SchedulingError(
                f"n_floorplan_seeds must be >= 1, got {self.n_floorplan_seeds!r}"
            )
        for label, (low, high) in (
            ("tl_headroom_range", self.tl_headroom_range),
            ("stcl_headroom_range", self.stcl_headroom_range),
        ):
            if not 1.0 < low <= high:
                raise SchedulingError(
                    f"{label} must satisfy 1 < low <= high, got {(low, high)!r}"
                )


def generate_scenarios(
    count: int, seed: int = 0, config: FleetConfig = FleetConfig()
) -> list[ScenarioSpec]:
    """Emit a diverse, deterministic fleet of *count* scenarios.

    The same ``(count, seed, config)`` always yields the same fleet.
    """
    if count < 1:
        raise SchedulingError(f"fleet size must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    scenarios: list[ScenarioSpec] = []

    if config.include_builtins:
        builtins = [
            ScenarioSpec(kind="alpha15", power_seed=2005),
            ScenarioSpec(kind="hypothetical7"),
            ScenarioSpec(kind="worked_example6"),
        ]
        scenarios.extend(builtins[:count])

    while len(scenarios) < count:
        convection = float(rng.choice(np.asarray(config.convection_pool)))
        scale_low, scale_high = config.power_scale_range
        power_scale = float(
            np.exp(rng.uniform(np.log(scale_low), np.log(scale_high)))
        )
        common: dict[str, Any] = dict(
            power_seed=int(rng.integers(0, 2**31 - 1)),
            power_scale=power_scale,
            convection_resistance=convection,
        )
        if rng.random() < config.slicing_fraction:
            n_blocks = int(rng.choice(np.asarray(config.slicing_blocks)))
            spec = ScenarioSpec(
                kind="slicing",
                n_blocks=n_blocks,
                floorplan_seed=int(rng.integers(0, config.n_floorplan_seeds)),
                **common,
            )
        else:
            rows, cols = config.grid_dims[int(rng.integers(len(config.grid_dims)))]
            spec = ScenarioSpec(kind="grid", rows=rows, cols=cols, **common)
        scenarios.append(spec)
    return scenarios


def _fleet_wants_stcl(solver: str) -> bool:
    """Whether fleet jobs for this solver should carry an STCL headroom.

    Solvers that skip the STC heuristic get none, sparing every job the
    per-core singleton-STC resolution.  Unknown names keep it: they may
    be registered only in the worker process and might need it there.
    """
    from ..api.solvers import get_solver  # deferred: api imports engine

    try:
        return get_solver(solver).needs_stcl
    except ReproError:
        return True


def generate_fleet(
    count: int,
    seed: int = 0,
    config: FleetConfig = FleetConfig(),
    solver: str = "thermal_aware",
    solver_params: dict | None = None,
) -> dict[str, "ScheduleRequest"]:
    """Generate *count* ready-to-run jobs: job id -> scheduling request.

    Limits are expressed as *headrooms* relative to each scenario's own
    thermal regime (resolved in the worker by the unified solver API,
    see :class:`repro.api.Workbench`), so every job in the fleet is
    feasible by construction regardless of its geometry, cooling or
    power scale.

    Parameters
    ----------
    count, seed, config:
        Fleet shape; the same triple always yields the same fleet.
    solver:
        Registered solver every job dispatches to — the one-switch
        head-to-head: the same fleet can be scheduled thermal-aware,
        power-constrained or sequentially and the archives compared.
    solver_params:
        Per-solver parameters applied to every job.

    Raises
    ------
    SchedulingError
        When ``count`` is not a positive integer.
    """
    from ..api.request import ScheduleRequest  # deferred: api imports engine

    if count < 1:
        raise SchedulingError(
            f"fleet size must be >= 1, got {count}; an empty fleet would "
            f"silently schedule nothing"
        )
    needs_stcl = _fleet_wants_stcl(solver)
    rng = np.random.default_rng(seed ^ 0x5EED)
    tl_low, tl_high = config.tl_headroom_range
    stcl_low, stcl_high = config.stcl_headroom_range
    jobs: dict[str, ScheduleRequest] = {}
    for i, scenario in enumerate(generate_scenarios(count, seed, config)):
        tl_draw = float(rng.uniform(tl_low, tl_high))
        # Always drawn so the RNG stream (hence tl per job) is identical
        # across solver choices — fleets stay comparable head-to-head.
        stcl_draw = float(rng.uniform(stcl_low, stcl_high))
        jobs[f"job-{i:05d}-{scenario.name}"] = ScheduleRequest(
            scenario=scenario,
            tl_headroom=tl_draw,
            stcl_headroom=stcl_draw if needs_stcl else None,
            solver=solver,
            params=dict(solver_params or {}),
            include_vertical=scenario.needs_vertical_path(),
        )
    return jobs
