"""Bounded TTL answer cache for the scheduling service.

In-flight deduplication (PR 4) collapses *concurrent* identical
requests; the moment a job resolves, its answer was dropped and the
next identical request paid a full solve.  :class:`AnswerCache` keeps
those answers: a bounded, TTL-expiring LRU map from
:meth:`~repro.api.ScheduleRequest.content_hash` to the resolved
:class:`~repro.service.execution.SolveOutcome`, so dashboard-style
repeat traffic is absorbed without touching the queue or a worker.

Design points:

* **Same key as dedup and the archive** — the content hash already
  names an answer everywhere in the system (in-flight map, wire frames,
  archive records), so the cache composes with all of them: a service
  can :func:`warm_cache_from_archive` at boot and serve yesterday's
  fleet traffic from memory.
* **Injectable clock** — expiry is computed against a caller-supplied
  monotonic clock, so TTL behaviour is unit-testable without sleeping.
* **Failures are not cached** — only ``ok`` outcomes are stored; an
  infeasible request re-solving is cheap insurance against caching a
  transient failure (a broken pool, a timeout) forever.
* **Stale means miss** — an expired entry is removed and counted, and
  the caller proceeds to a fresh solve; expired data is never served.

The cache itself is transport-agnostic and thread-safe (the warm-start
loader runs on an executor thread while the event loop may already be
serving).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import SchedulingError, ServiceError
from ..reactive import ReactiveRunReport
from .archive import SERVICE_RECORD_KIND, outcome_from_record
from .execution import SolveOutcome


@dataclass(frozen=True)
class AnswerCacheStats:
    """Point-in-time counters of an :class:`AnswerCache`.

    Attributes
    ----------
    hits:
        Lookups answered from the cache.
    misses:
        Lookups that found nothing (expired entries included).
    entries:
        Answers currently stored.
    evictions:
        Entries dropped by the LRU bound.
    expirations:
        Entries dropped because their TTL elapsed (a subset of what
        would otherwise have been hits — the staleness price).
    warmed:
        Distinct answers replayed from an archive at boot (the LRU
        bound may retain fewer when the archive outsizes the cache).
    """

    hits: int
    misses: int
    entries: int
    evictions: int
    expirations: int
    warmed: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (nested in the stats wire frame)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "warmed": self.warmed,
        }

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"answer cache: {self.hits} hits / {self.lookups} lookups "
            f"({self.hit_rate * 100:.0f}%), {self.entries} entries, "
            f"{self.evictions} evictions, {self.expirations} expired, "
            f"{self.warmed} warmed"
        )


class AnswerCache:
    """Bounded LRU + TTL map from request content hash to solve outcome.

    Parameters
    ----------
    max_entries:
        LRU bound; the oldest entry is dropped when a put exceeds it.
    ttl_s:
        Time-to-live per entry (``None`` = never expires).  An entry's
        clock starts at :meth:`put` (a refresh restarts it); a
        :meth:`get` past the deadline removes the entry and reports a
        miss, so stale answers trigger a fresh solve instead of being
        served.
    clock:
        Monotonic time source; injectable so TTL tests need no sleeps.
    """

    def __init__(
        self,
        max_entries: int = 256,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ServiceError(
                f"answer cache max_entries must be >= 1, got {max_entries!r}"
            )
        if ttl_s is not None and ttl_s <= 0.0:
            raise ServiceError(
                f"answer cache ttl_s must be positive, got {ttl_s!r}"
            )
        self._max_entries = max_entries
        self._ttl_s = ttl_s
        self._clock = clock
        #: key -> (outcome, stored_at); ordered oldest-use first.
        self._entries: "OrderedDict[str, tuple[SolveOutcome, float]]" = (
            OrderedDict()  # guarded-by: _lock
        )
        #: Streamed-run timelines, keyed like (and subordinate to)
        #: ``_entries``: a timeline never outlives its answer, so a hit
        #: with a stored timeline can replay it instead of
        #: re-simulating the whole closed-loop transient run.
        self._reactive: "dict[str, ReactiveRunReport]" = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._expirations = 0  # guarded-by: _lock
        self._warmed = 0  # guarded-by: _lock

    @property
    def max_entries(self) -> int:
        """The LRU bound."""
        return self._max_entries

    @property
    def ttl_s(self) -> float | None:
        """Per-entry time-to-live (``None`` = never expires)."""
        return self._ttl_s

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Non-mutating membership probe (expiry *not* applied)."""
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> AnswerCacheStats:
        """Current counters (snapshot)."""
        with self._lock:
            return AnswerCacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                evictions=self._evictions,
                expirations=self._expirations,
                warmed=self._warmed,
            )

    def get(self, key: str) -> SolveOutcome | None:
        """The cached outcome for *key*, or ``None`` (miss or expired).

        A hit refreshes the entry's LRU position but not its TTL clock:
        an answer's staleness is measured from when it was computed,
        not from when it was last popular.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            outcome, stored_at = entry
            if self._ttl_s is not None and now - stored_at >= self._ttl_s:
                del self._entries[key]
                self._reactive.pop(key, None)
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return outcome

    def put(self, key: str, outcome: SolveOutcome) -> None:
        """Store (or refresh) the answer for *key*.

        Only ``ok`` outcomes are stored: caching a failure would pin a
        possibly transient error (timeout, broken pool) until expiry.
        """
        if not outcome.ok:
            return
        with self._lock:
            self._entries[key] = (outcome, self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._reactive.pop(evicted, None)
                self._evictions += 1

    def put_reactive(self, key: str, report: ReactiveRunReport) -> None:
        """Attach a streamed run's timeline to an already-stored answer.

        A no-op when *key* has no live entry (evicted or expired since
        the solve resolved) — a timeline must never outlive the answer
        it explains.  The entry's TTL clock and LRU position are left
        untouched: the timeline is derived data, not a refresh.
        """
        with self._lock:
            if key in self._entries:
                self._reactive[key] = report

    def reactive_report(self, key: str) -> ReactiveRunReport | None:
        """The stored streamed-run timeline for *key*, or ``None``.

        Non-mutating (no counters, no LRU refresh): callers probe this
        right after a :meth:`get` hit, which already validated the
        entry's liveness — replaying the timeline then spares the whole
        closed-loop transient re-simulation.
        """
        with self._lock:
            return self._reactive.get(key)

    def note_warmed(self, count: int) -> None:
        """Record *count* entries as archive-warmed (stats provenance)."""
        with self._lock:
            self._warmed += count

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._reactive.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._expirations = 0
            self._warmed = 0


def _iter_lines_reversed(path: Path, block_size: int = 1 << 20):
    """Yield a file's lines last-to-first, reading fixed-size blocks.

    A service archive only grows; warming a bounded cache must not
    cost archive-sized memory, so the newest-first scan reads from the
    end in *block_size* chunks and holds at most one block plus the
    line being assembled.
    """
    with path.open("rb") as handle:
        handle.seek(0, 2)  # os.SEEK_END
        position = handle.tell()
        tail = b""
        while position > 0:
            read_size = min(block_size, position)
            position -= read_size
            handle.seek(position)
            block = handle.read(read_size) + tail
            lines = block.split(b"\n")
            tail = lines[0]  # may be a partial line; merged next block
            for line in reversed(lines[1:]):
                yield line
        if tail:
            yield tail


def warm_cache_from_archive(
    cache: AnswerCache, path: str | Path
) -> int:
    """Populate *cache* from an archive's ``ok`` records.

    Each successful record's embedded report is decoded (schedule
    revalidated against its request's SoC, exactly like a client decoding
    the wire) and stored under its recorded ``request_hash``, so a
    rebooted service answers yesterday's repeat traffic from memory
    before its first solve.  Later records for the same hash win
    (append order is completion order).  Service and batch archives
    share one record format, so either warms the cache.  Error
    records, legacy batch job records and undecodable records are
    skipped — a warm-start is an optimisation and must never stop a
    service from booting.

    Decoding is the expensive part (every report's schedule is
    revalidated), so candidates are selected by streaming the file's
    raw lines newest-first in bounded blocks and JSON-parsing lazily:
    the scan stops as soon as the cache's LRU bound is filled,
    superseded re-solves of the same hash are dropped before decoding,
    and older lines are never read at all — a months-old append-only
    archive warms a 256-entry cache with memory bounded by the block
    size and (essentially) at most 256 report decodes.  Unparsable
    lines (e.g. a torn trailing append from a crashed previous life)
    and undecodable records are skipped without consuming the budget,
    so schema-drifted newest records do not hide decodable older ones.

    Returns the number of *distinct* answers loaded (re-solves of the
    same question in the archive refresh one entry, they do not
    inflate the count).

    TTL caveat: warmed entries get their staleness clock stamped at
    boot, not at the original solve — archive records carry no
    timestamp to restore it from.  Warm-starting is opt-in precisely
    because it asserts "this archive's answers are still good";
    solves are deterministic, so the only staleness a TTL guards
    against here is the platform definitions themselves changing
    between lives.

    Raises
    ------
    SchedulingError
        Only when the archive file itself cannot be read (a missing
        ``--warm-from`` path is a configuration error worth failing
        loudly on).
    """
    # Scan newest-first, decoding as we go: one answer per hash, at
    # most as many as the cache can hold.  A record that fails to
    # decode does not consume the budget — the scan keeps going, so an
    # archive whose newest records are schema-drifted still warms from
    # the older decodable ones behind them.
    selected: "OrderedDict[str, SolveOutcome]" = OrderedDict()
    try:
        for raw in _iter_lines_reversed(Path(path)):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn/hand-mangled line: skip, don't die
            if not isinstance(record, dict):
                continue
            if record.get("kind") != SERVICE_RECORD_KIND:
                continue
            if record.get("status") != "ok":
                continue
            key = record.get("request_hash")
            if not isinstance(record.get("report"), dict) or not isinstance(
                key, str
            ):
                continue
            if key in selected:
                continue  # a newer record for this hash already won
            try:
                outcome = outcome_from_record(record)
            except Exception:
                continue  # schema drift / hand-edited record: skip, don't die
            selected[key] = outcome
            if len(selected) >= cache.max_entries:
                break
    except OSError as exc:
        raise SchedulingError(f"cannot load JSONL file {path}: {exc}") from exc
    # Store oldest-of-the-chosen first, so the cache's LRU recency
    # order matches the archive's completion order.
    for key, outcome in reversed(selected.items()):
        cache.put(key, outcome)
    cache.note_warmed(len(selected))
    return len(selected)
