"""JSON serialisation of schedules and scheduling results.

Schedules are the hand-off artefact between the scheduling flow and the
test floor; this module freezes them (and the full
:class:`~repro.core.scheduler.ScheduleResult` diagnostics) to plain
JSON and loads them back, so runs can be archived, diffed and replayed
without re-simulating.

The schema is versioned; loaders reject unknown versions rather than
guessing.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..errors import SchedulingError
from ..soc.system import SocUnderTest
from .scheduler import DiscardedSession, ScheduleResult
from .session import TestSchedule, TestSession

#: Current schema version.  Version 2 added the solver fields to job
#: specs and nullable ``stcl`` on results (solvers that skip the STC
#: heuristic); everything a version-1 record contains is still read the
#: same way, so loaders accept both.
SCHEMA_VERSION = 2

#: Versions loaders accept.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)


def _session_to_dict(session: TestSession) -> dict[str, Any]:
    return {
        "cores": list(session.cores),
        "duration_s": session.duration_s,
        "max_temperature_c": (
            None
            if math.isnan(session.max_temperature_c)
            else session.max_temperature_c
        ),
        "core_temperatures_c": dict(session.core_temperatures_c),
    }


def _session_from_dict(data: dict[str, Any]) -> TestSession:
    session = TestSession(
        cores=tuple(data["cores"]), duration_s=float(data["duration_s"])
    )
    temps = data.get("core_temperatures_c") or {}
    if temps:
        session = session.with_temperatures(
            {str(k): float(v) for k, v in temps.items()}
        )
    return session


def schedule_to_dict(schedule: TestSchedule) -> dict[str, Any]:
    """Serialise a schedule to a JSON-ready dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "soc": schedule.soc.name,
        "sessions": [_session_to_dict(s) for s in schedule],
    }


def schedule_from_dict(data: dict[str, Any], soc: SocUnderTest) -> TestSchedule:
    """Load a schedule back; validates it against *soc* (partition etc.).

    Raises
    ------
    SchedulingError
        On schema mismatch or if the stored schedule does not fit the
        SoC (wrong cores, double-tested cores, ...).
    """
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchedulingError(
            f"unsupported schedule schema version {version!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    sessions = [_session_from_dict(s) for s in data["sessions"]]
    return TestSchedule(sessions, soc)


def result_to_dict(result: ScheduleResult) -> dict[str, Any]:
    """Serialise a full scheduling result (schedule + diagnostics).

    ``stcl`` is ``nan`` for solvers that do not use the STC heuristic
    (the unified API's baselines); it is written as ``null`` so the
    output stays strict JSON.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "tl_c": result.tl_c,
        "stcl": None if math.isnan(result.stcl) else result.stcl,
        "length_s": result.length_s,
        "effort_s": result.effort_s,
        "max_temperature_c": result.max_temperature_c,
        "forced_singletons": result.forced_singletons,
        "steady_solves": result.steady_solves,
        "bcmt_c": dict(result.bcmt_c),
        "weights": dict(result.weights),
        "discarded": [
            {
                "cores": list(d.cores),
                "duration_s": d.duration_s,
                "violators": list(d.violators),
                "max_temperature_c": d.max_temperature_c,
                "iteration": d.iteration,
            }
            for d in result.discarded
        ],
        "schedule": schedule_to_dict(result.schedule),
    }


def result_from_dict(data: dict[str, Any], soc: SocUnderTest) -> ScheduleResult:
    """Load a scheduling result back (schedule revalidated against *soc*)."""
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchedulingError(
            f"unsupported result schema version {version!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    schedule = schedule_from_dict(data["schedule"], soc)
    discarded = tuple(
        DiscardedSession(
            cores=tuple(d["cores"]),
            duration_s=float(d["duration_s"]),
            violators=tuple(d["violators"]),
            max_temperature_c=float(d["max_temperature_c"]),
            iteration=int(d["iteration"]),
        )
        for d in data.get("discarded", [])
    )
    return ScheduleResult(
        schedule=schedule,
        tl_c=float(data["tl_c"]),
        stcl=math.nan if data["stcl"] is None else float(data["stcl"]),
        length_s=float(data["length_s"]),
        effort_s=float(data["effort_s"]),
        max_temperature_c=float(data["max_temperature_c"]),
        bcmt_c={str(k): float(v) for k, v in data["bcmt_c"].items()},
        weights={str(k): float(v) for k, v in data["weights"].items()},
        discarded=discarded,
        forced_singletons=int(data.get("forced_singletons", 0)),
        steady_solves=int(data.get("steady_solves", 0)),
    )


def dump_jsonl(records: Iterable[dict[str, Any]], path: str | Path) -> int:
    """Write dict records to a JSON-Lines file; returns the record count.

    JSONL is the batch engine's persistence format: one self-contained
    record per line, so fleets of thousands of job outcomes stream to
    disk without holding the whole batch in memory and can be grepped,
    tailed and concatenated like logs.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def iter_jsonl(
    path: str | Path, *, tolerate_torn_tail: bool = False
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line number, record)`` for every record of a JSON-Lines file.

    Blank lines are skipped.  With ``tolerate_torn_tail=True`` a
    corrupt *final* line — the half-written record a killed or
    still-running appender leaves behind — is skipped with a
    :class:`UserWarning` instead of raising.  Only the tail gets this
    grace: a bad record with valid records after it is real corruption,
    not an append in flight, and still raises
    :class:`~repro.errors.SchedulingError`.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchedulingError(f"cannot load JSONL file {path}: {exc}") from exc
    lines = text.splitlines()
    last_lineno = len(lines)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerate_torn_tail and lineno == last_lineno:
                warnings.warn(
                    f"skipping torn final JSONL record at {path}:{lineno} "
                    f"(half-written append?): {exc}",
                    stacklevel=3,
                )
                continue
            raise SchedulingError(
                f"corrupt JSONL record at {path}:{lineno}: {exc}"
            ) from exc
        yield lineno, record


def load_jsonl(
    path: str | Path, *, tolerate_torn_tail: bool = False
) -> list[dict[str, Any]]:
    """Read every record of a JSON-Lines file (see :func:`iter_jsonl`)."""
    return [
        record
        for _, record in iter_jsonl(path, tolerate_torn_tail=tolerate_torn_tail)
    ]


def save_result(result: ScheduleResult, path: str | Path) -> None:
    """Write a scheduling result to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2))


def load_result(path: str | Path, soc: SocUnderTest) -> ScheduleResult:
    """Read a scheduling result from a JSON file (validated against *soc*)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchedulingError(f"cannot load schedule result {path}: {exc}") from exc
    return result_from_dict(data, soc)
