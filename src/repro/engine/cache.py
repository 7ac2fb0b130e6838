"""Shared thermal-model cache for the batch engine.

Building a thermal model is the expensive, power-independent part of a
scheduling job: compiling the RC network from floorplan + package and
Cholesky-factorising its conductance matrix.  Scenarios in a fleet
frequently share that pair (same grid shape, same cooling regime) while
differing in powers, limits or scheduler knobs — so the batch engine
caches ``(compiled network, factorisation, reduced operator)`` under a
**content hash**
of the floorplan geometry and package parameters, and hands every job a
lightweight :class:`~repro.thermal.simulator.ThermalSimulator` facade
(with its own effort counters) around the shared immutable artefacts.

The cache is a thread-safe LRU (the thread backend shares one instance
across workers), bounded by default, and keeps hit/miss/eviction
statistics for batch summaries and the service's metrics.  Floorplans,
adjacency maps and packages each hash their content once, and the
scenario layer shares all three across warm requests, so a warm key is
a string concatenation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..floorplan.adjacency import AdjacencyMap
from ..floorplan.floorplan import Floorplan
from ..thermal.builder import BuiltModel, build_thermal_network
from ..thermal.package import PackageConfig
from ..thermal.reduced import ReducedSteadyOperator
from ..thermal.simulator import ThermalSimulator
from ..thermal.steady_state import SteadyStateSolver


def floorplan_fingerprint(floorplan: Floorplan) -> str:
    """Content hash of a floorplan's thermally relevant geometry.

    Computed once per floorplan object; see
    :attr:`Floorplan.fingerprint <repro.floorplan.floorplan.Floorplan.fingerprint>`.
    """
    return floorplan.fingerprint


def package_fingerprint(package: PackageConfig) -> str:
    """Content hash of every package parameter (materials included).

    Computed once per package object; see
    :attr:`PackageConfig.fingerprint <repro.thermal.package.PackageConfig.fingerprint>`.
    """
    return package.fingerprint


def adjacency_fingerprint(adjacency: AdjacencyMap) -> str:
    """Content hash of an adjacency map's thermally relevant structure.

    Computed once per map object; see
    :attr:`AdjacencyMap.fingerprint <repro.floorplan.adjacency.AdjacencyMap.fingerprint>`.
    """
    return adjacency.fingerprint


def model_key(
    floorplan: Floorplan,
    package: PackageConfig,
    adjacency: AdjacencyMap | None = None,
) -> str:
    """Cache key of the (floorplan, package, adjacency) triple.

    ``adjacency=None`` (build the default map from the floorplan) and
    an explicitly passed default map hash differently — a false miss,
    which is acceptable; every caller that reuses a SoC's precomputed
    map passes it consistently, so they share keys.
    """
    key = floorplan_fingerprint(floorplan) + ":" + package_fingerprint(package)
    if adjacency is not None:
        key += ":" + adjacency_fingerprint(adjacency)
    return key


#: Default LRU bound of :class:`ThermalModelCache`.  An entry holds a
#: compiled network, its Cholesky factor and (once extracted) the reduced
#: operator: O((n+7)^2) floats for an *n*-block die, about 0.55 MB at
#: 12x12 blocks and 1.7 MB at 16x16, so 128 entries of 12x12 networks
#: bound the cache near 70 MB.
MODEL_CACHE_ENTRIES = 128


#: Per-process model cache shared by every process-pool worker function
#: (batch runner and scheduling service alike).  Lazily created in each
#: worker; with the default fork start method children inherit a
#: reference to the parent's (possibly empty) cache object, so each
#: process re-binds its own instance on first use, keyed by pid.
_PROCESS_LOCAL_CACHE: "ThermalModelCache | None" = None
_PROCESS_LOCAL_OWNER: int | None = None


def process_local_cache() -> "ThermalModelCache":
    """The calling process's own lazily created model cache.

    Workers of a long-lived service and of one-shot batches both route
    through this accessor, so a worker process that served a batch job
    enters its next service job with the model already warm.
    """
    import os

    global _PROCESS_LOCAL_CACHE, _PROCESS_LOCAL_OWNER
    if _PROCESS_LOCAL_CACHE is None or _PROCESS_LOCAL_OWNER != os.getpid():
        _PROCESS_LOCAL_CACHE = ThermalModelCache()
        _PROCESS_LOCAL_OWNER = os.getpid()
    return _PROCESS_LOCAL_CACHE


def resolve_cache(
    cache: "ThermalModelCache | None", use_cache: bool
) -> "ThermalModelCache | None":
    """The cache an engine component should use.

    ``cache or ThermalModelCache()`` would be wrong here: the cache
    defines ``__len__``, so a passed-in *empty* cache is falsy and
    would be silently replaced, losing the sharing the caller set up.
    """
    if not use_cache:
        return None
    return cache if cache is not None else ThermalModelCache()


class SharedReducedSlot:
    """Lazily-extracted, shared reduced operator for one cache entry.

    The influence-matrix extraction is only worth paying when some job
    actually takes the reduced steady path (a dense- or transient-mode
    fleet never does), so the cache stores this one-slot thunk instead
    of an eager operator: the first facade that needs the operator
    builds it, every later facade for the same model shares it.
    Callable so it plugs straight into
    :meth:`~repro.thermal.simulator.ThermalSimulator.from_handles`.
    """

    def __init__(self, model: BuiltModel, solver: SteadyStateSolver) -> None:
        self._model = model
        self._solver = solver
        self._operator: ReducedSteadyOperator | None = None  # guarded-by: _lock
        self._lock = threading.Lock()

    def __call__(self) -> ReducedSteadyOperator:
        with self._lock:
            if self._operator is None:
                self._operator = ReducedSteadyOperator.from_model(
                    self._model, self._solver
                )
            return self._operator


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`ThermalModelCache`.

    Attributes
    ----------
    hits:
        Lookups served from the cache.
    misses:
        Lookups that had to build (and factorise) a model.
    entries:
        Models currently cached.
    evictions:
        Entries dropped by the LRU bound.
    """

    hits: int
    misses: int
    entries: int
    evictions: int

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"thermal-model cache: {self.hits} hits / {self.lookups} lookups "
            f"({self.hit_rate * 100:.0f}%), {self.entries} entries, "
            f"{self.evictions} evictions"
        )


class ThermalModelCache:
    """Content-hash-keyed cache of compiled networks and factorisations.

    Parameters
    ----------
    max_entries:
        LRU bound on cached models; ``None`` means unbounded.  Defaults
        to :data:`MODEL_CACHE_ENTRIES`, so a long-running service or a
        fleet streaming never-seen networks keeps a bounded footprint.
    """

    def __init__(self, max_entries: int | None = MODEL_CACHE_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self._max_entries = max_entries
        self._entries: OrderedDict[
            str, tuple[BuiltModel, SteadyStateSolver, SharedReducedSlot]
        ] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss statistics (snapshot)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                evictions=self._evictions,
            )

    def reset_stats(self) -> None:
        """Zero the counters (entries are kept)."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def clear(self) -> None:
        """Drop every cached model and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def simulator_for(
        self,
        floorplan: Floorplan,
        package: PackageConfig,
        adjacency: AdjacencyMap | None = None,
    ) -> tuple[ThermalSimulator, bool]:
        """A fresh simulator facade over the cached model for this pair.

        Returns
        -------
        (simulator, hit)
            *simulator* has its own effort counters but shares the
            compiled network and factorisation with every other
            simulator handed out for the same content hash; *hit* says
            whether the model came from the cache.
        """
        key = model_key(floorplan, package, adjacency)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._hits += 1
        if cached is not None:
            model, solver, reduced = cached
            return ThermalSimulator.from_handles(model, solver, reduced), True

        # Build outside the lock: factorisation is the expensive part and
        # the thread backend must not serialise on it.  Two threads may
        # race to build the same key; the loser's build is discarded.
        # The reduced operator's slot rides along so cold fleet workers
        # skip the influence-matrix extraction too (it is filled by the
        # first facade that takes the reduced path, then shared).
        model = build_thermal_network(floorplan, package, adjacency)
        solver = SteadyStateSolver(model.network)
        reduced = SharedReducedSlot(model, solver)
        with self._lock:
            self._misses += 1
            existing = self._entries.get(key)
            if existing is not None:
                model, solver, reduced = existing
                self._entries.move_to_end(key)
            else:
                self._entries[key] = (model, solver, reduced)
                if (
                    self._max_entries is not None
                    and len(self._entries) > self._max_entries
                ):
                    self._entries.popitem(last=False)
                    self._evictions += 1
        return ThermalSimulator.from_handles(model, solver, reduced), False
