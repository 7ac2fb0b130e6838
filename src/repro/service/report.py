"""Fleet analytics over JSONL archives: the per-solver summary table.

Aggregates outcome records (:func:`~repro.service.archive.outcome_record`,
which both ``repro serve --archive`` and ``repro batch --out`` write)
into one per-solver summary: job count, error rate, hot-spot rate, mean
headroom and mean schedule length.  Batch archives written before the
batch engine adopted that record format (``spec``/``status``/``result``
job records) are still read, one way, so old fleets stay comparable.
Everything is computed from the raw record dicts (no SoC rebuilds, no
schedule revalidation), so summarising a hundred-thousand-record
archive is an I/O-bound streaming pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..core.serialize import iter_jsonl
from ..errors import SchedulingError
from .archive import SERVICE_RECORD_KIND


@dataclass(frozen=True)
class RecordStats:
    """The aggregation-relevant fields of one archive record."""

    solver: str
    ok: bool
    hot_spot_rate: float
    headroom_c: float
    length_s: float
    elapsed_s: float


@dataclass(frozen=True)
class SolverSummary:
    """Aggregate of every archive record that ran one solver.

    Attributes
    ----------
    solver:
        Registered solver name.
    jobs:
        Records aggregated.
    errors:
        Records with ``status="error"``.
    hot_spot_rate:
        Mean per-job fraction of sessions whose peak reaches the job's
        TL (successful jobs only; NaN when none succeeded).
    mean_headroom_c:
        Mean ``TL - peak`` margin (successful jobs only).
    mean_length_s:
        Mean schedule length (successful jobs only).
    mean_elapsed_s:
        Mean wall-clock solve time (all jobs — errors cost time too).
    """

    solver: str
    jobs: int
    errors: int
    hot_spot_rate: float
    mean_headroom_c: float
    mean_length_s: float
    mean_elapsed_s: float

    @property
    def error_rate(self) -> float:
        """Fraction of records that failed."""
        return self.errors / self.jobs if self.jobs else 0.0


def _schedule_stats(
    result: dict[str, Any], tl_c: float
) -> tuple[float, float]:
    """(hot-spot rate, headroom) of one embedded result dict."""
    sessions = result["schedule"]["sessions"]
    temps = [
        s["max_temperature_c"]
        for s in sessions
        if s.get("max_temperature_c") is not None
    ]
    if not sessions or not temps:
        return math.nan, math.nan
    hot = sum(1 for t in temps if t >= tl_c)
    return hot / len(sessions), tl_c - max(temps)


def record_stats(record: dict[str, Any], where: str = "record") -> RecordStats:
    """Normalise one archive record (either format) for aggregation.

    Raises
    ------
    SchedulingError
        On a record that is neither an outcome record nor a legacy
        batch job record, or whose fields lack the shapes those formats
        write; the message starts with *where* (an archive's path and
        line, when summarising files).
    """
    try:
        stats = _record_stats(record)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchedulingError(
            f"{where}: malformed archive record: {type(exc).__name__}: {exc}"
        ) from exc
    if stats is None:
        raise SchedulingError(
            f"{where}: unrecognised archive record: neither an outcome "
            f"record (kind/request/report) nor a legacy batch job record "
            f"(spec/status/result)"
        )
    return stats


def _record_stats(record: dict[str, Any]) -> RecordStats | None:
    if record.get("kind") == SERVICE_RECORD_KIND or "request" in record:
        solver = record.get("solver") or record["request"].get("solver", "?")
        ok = record.get("status") == "ok"
        report = record.get("report")
        hot = headroom = length = math.nan
        if ok and report is not None:
            hot, headroom = _schedule_stats(report["result"], float(report["tl_c"]))
            length = float(report["result"]["length_s"])
        return RecordStats(
            solver=solver,
            ok=ok,
            hot_spot_rate=hot,
            headroom_c=headroom,
            length_s=length,
            elapsed_s=float(record.get("elapsed_s", math.nan)),
        )
    if "spec" in record:
        solver = record["spec"].get("solver", "thermal_aware")
        ok = record.get("status") == "ok"
        result = record.get("result")
        hot = headroom = length = math.nan
        if ok and result is not None and record.get("tl_c") is not None:
            hot, headroom = _schedule_stats(result, float(record["tl_c"]))
            length = float(result["length_s"])
        return RecordStats(
            solver=solver,
            ok=ok,
            hot_spot_rate=hot,
            headroom_c=headroom,
            length_s=length,
            elapsed_s=float(record.get("elapsed_s", math.nan)),
        )
    return None


def _finite_mean(values: list[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return math.fsum(finite) / len(finite) if finite else math.nan


def summarize_records(
    records: Iterable[dict[str, Any]],
) -> list[SolverSummary]:
    """Per-solver summaries of an archive's records, sorted by name."""
    return _summarize(
        record_stats(record, f"record {index}")
        for index, record in enumerate(records, start=1)
    )


def _summarize(records: Iterable[RecordStats]) -> list[SolverSummary]:
    by_solver: dict[str, list[RecordStats]] = {}
    for stats in records:
        by_solver.setdefault(stats.solver, []).append(stats)
    summaries = []
    for solver in sorted(by_solver):
        stats = by_solver[solver]
        ok = [s for s in stats if s.ok]
        summaries.append(
            SolverSummary(
                solver=solver,
                jobs=len(stats),
                errors=len(stats) - len(ok),
                hot_spot_rate=_finite_mean([s.hot_spot_rate for s in ok]),
                mean_headroom_c=_finite_mean([s.headroom_c for s in ok]),
                mean_length_s=_finite_mean([s.length_s for s in ok]),
                mean_elapsed_s=_finite_mean([s.elapsed_s for s in stats]),
            )
        )
    return summaries


def summarize_archives(
    paths: Sequence[str | Path],
    empty_ok: bool = False,
    tolerate_torn_tail: bool = False,
) -> list[SolverSummary]:
    """Summaries over the concatenation of one or more JSONL archives.

    With ``empty_ok`` an archive set holding no records yields ``[]``
    (a freshly booted ``repro serve --archive`` creates the file before
    anything resolves — empty is a state, not a mistake); the default
    raises :class:`~repro.errors.SchedulingError` so library callers
    cannot mistake an empty summary for a summarised fleet.

    ``tolerate_torn_tail`` forgives a half-written *final* record per
    archive (with a warning): summarising the live archive of a running
    ``repro serve`` races its appender, and losing the in-flight record
    is correct — failing the whole report is not.
    """
    stats = [
        record_stats(record, f"{path}:{lineno}")
        for path in paths
        for lineno, record in iter_jsonl(path, tolerate_torn_tail=tolerate_torn_tail)
    ]
    if not stats:
        if empty_ok:
            return []
        raise SchedulingError(
            f"no records found in {', '.join(str(p) for p in paths)}"
        )
    return _summarize(stats)


def render_summary_table(summaries: Sequence[SolverSummary]) -> str:
    """The per-solver summary as an aligned text table."""

    def fmt(value: float, spec: str) -> str:
        return "-" if math.isnan(value) else format(value, spec)

    headers = (
        "solver",
        "jobs",
        "errors",
        "err%",
        "hot-spot%",
        "headroom degC",
        "length s",
        "solve ms",
    )
    rows = [headers]
    for s in summaries:
        rows.append(
            (
                s.solver,
                str(s.jobs),
                str(s.errors),
                f"{s.error_rate * 100:.0f}",
                fmt(s.hot_spot_rate * 100, ".0f"),
                fmt(s.mean_headroom_c, ".2f"),
                fmt(s.mean_length_s, "g"),
                fmt(s.mean_elapsed_s * 1e3, ".1f"),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
