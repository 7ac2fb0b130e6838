"""Shared pieces of the benchmark: request records, statistics, spans.

Everything here is plain Python over the standard library so that the
workload modules stay about *what* they measure.  Times are kept in
seconds internally and converted to milliseconds only when a metric is
emitted.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

#: Latency limit of the serve-poisson rate ladder and of every workload's
#: ``slo_rps`` goodput (seconds).
SLO_S = 1.0

#: Requests whose quality (schedule length, effort, steady solves) is
#: averaged in fleet-churn: a fixed prefix of the seeded sequence, so the
#: quality metrics are exact for a seed whatever the run's pace.
QUALITY_PREFIX = 450

#: Most distinct requests a traced run replays layer by layer (an even
#: sample of the window's requests beyond that).
REPLAY_LIMIT = 200

#: Width of the slices a TCP window is cut into (seconds).  The speed of
#: a shared 2-vCPU host drifts between regimes that last seconds, so
#: load figures are taken per slice and the run reports their median.
SLICE_S = 2.5


class GateError(Exception):
    """The correctness gate rejected a run: its numbers must not be used."""


@dataclass
class Record:
    """One request of a timed window and everything learnt about it.

    ``due`` is when an open-loop request was scheduled to go out (equal
    to ``sent`` in a closed loop); latency is measured from it.  ``spans``
    holds the benchmark's own timers (seconds) around calls into the
    program, keyed by layer name.  ``scale`` converts the latency to the
    reference host speed where a workload measures it (see
    ``hostspeed.py``); it stays 1 elsewhere.
    """

    index: int
    request: Any
    due: float
    sent: float = math.nan
    done: float = math.nan
    report: Any = None
    frame: dict | None = None
    error: str | None = None
    answers: int = 0
    scale: float = 1.0
    spans: dict[str, float] = field(default_factory=dict)
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def scaled_latency(self) -> float:
        return self.latency * self.scale


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of *values*."""
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else math.nan


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.fmean(data) if data else 0.0


def latencies(records: Sequence[Record]) -> list[float]:
    """Scaled latencies of a window; a failed request counts as missing every limit."""
    return [r.scaled_latency if r.ok else math.inf for r in records]


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process (MB)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed(fn, *args, **kwargs) -> tuple[Any, float]:
    """Call *fn* and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def sessions_of(report: Any) -> tuple[tuple[str, ...], ...] | None:
    """A report's schedule as core tuples, session by session."""
    if report is None:
        return None
    return tuple(tuple(session.cores) for session in report.schedule.sessions)


def quality(reports: Iterable[Any]) -> dict[str, float]:
    """The paper's per-solve yardsticks over thermal-aware reports.

    Each distinct request counts once (an answer-cache hit repeats its
    original solve's numbers).
    """
    seen: dict[str, Any] = {}
    for report in reports:
        if report is not None and report.solver == "thermal_aware":
            seen.setdefault(report.request.content_hash(), report)
    chosen = list(seen.values())
    return {
        "schedule_length_s": mean(r.length_s for r in chosen),
        "sim_effort_s": mean(r.result.effort_s for r in chosen),
        "steady_solves": mean(r.steady_solves for r in chosen),
        "quality_solves": float(len(chosen)),
    }


def load_summary(
    records: Sequence[Record], elapsed_s: float
) -> dict[str, float]:
    """Throughput, latency percentiles, goodput and success of a window.

    Percentiles are over answered requests' scaled latencies; a failed
    one never counts towards the goodput (it misses the SLO) and lowers
    ``success_rate``.
    """
    answered = [r.scaled_latency for r in records if r.ok]
    within = sum(1 for value in latencies(records) if value <= SLO_S)
    return {
        "throughput_rps": len(answered) / elapsed_s,
        "latency_p50_ms": percentile(answered, 50) * 1e3,
        "latency_p95_ms": percentile(answered, 95) * 1e3,
        "goodput_rps": within / elapsed_s,
        "success_rate": len(answered) / len(records),
    }


def time_slices(
    records: Sequence[Record], width_s: float = SLICE_S
) -> list[tuple[list[Record], float]]:
    """Cut a window into equal slices of about *width_s* by completion time."""
    start = min(r.due for r in records)
    end = max(r.done for r in records)
    count = max(1, round((end - start) / width_s))
    width = (end - start) / count
    groups: list[list[Record]] = [[] for _ in range(count)]
    for record in records:
        groups[min(count - 1, int((record.done - start) / width))].append(record)
    return [(group, width) for group in groups]


def sliced_summary(
    records: Sequence[Record], slices: Sequence[tuple[Sequence[Record], float]]
) -> dict[str, float]:
    """Median over *slices* of each :func:`load_summary` figure.

    A slice's width is scaled like its requests' latencies.
    ``success_rate`` is pooled over the whole window: one failure must
    count wherever it falls.  The pooled latency percentiles and the
    sample count are printed for reference.
    """
    per_slice = [
        load_summary(group, width * median(r.scale for r in group))
        for group, width in slices
        if group
    ]
    summary = {key: median(s[key] for s in per_slice) for key in per_slice[0]}
    pooled = load_summary(records, 1.0)
    summary["success_rate"] = pooled["success_rate"]
    print(
        f"{len(records)} requests in {len(per_slice)} slices; pooled p50 "
        f"{pooled['latency_p50_ms']:.1f} ms, p95 {pooled['latency_p95_ms']:.1f} ms"
    )
    return summary
