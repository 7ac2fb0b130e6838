"""Append-only JSONL archive of resolved requests and their outcomes.

One record format serves every archive the system writes: one
self-contained record per resolved job, embedding the request (and its
content hash) plus either the full report dict or the error.  A service
never ends, so its archive is an *append* stream written as jobs
resolve; the batch engine writes the same records in one shot at the
end of a run, each tagged with its ``job_id``.  ``repro report``
therefore aggregates service and batch archives side by side, and a
rebooted service can replay the ``ok`` records of either into its
answer cache (:func:`~repro.service.answer_cache.warm_cache_from_archive`,
``repro serve --warm-from``): the archive is simultaneously the audit
log and the cache's persistence layer.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, TYPE_CHECKING

from ..api.request import report_from_dict, report_to_dict, request_to_dict
from ..core.serialize import SCHEMA_VERSION, load_jsonl
from ..errors import SchedulingError
from .execution import SolveOutcome

if TYPE_CHECKING:
    from ..api.request import ScheduleRequest

#: Marker distinguishing outcome records from legacy batch job records.
SERVICE_RECORD_KIND = "service"


def outcome_record(
    request: "ScheduleRequest",
    outcome: SolveOutcome,
    request_hash: str | None = None,
) -> dict[str, Any]:
    """The JSON-ready archive record of one resolved job.

    Pass *request_hash* when the caller already holds it (the service's
    dedup key) to skip recomputing the digest.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": SERVICE_RECORD_KIND,
        "status": outcome.status,
        "solver": request.solver,
        "request": request_to_dict(request),
        "request_hash": request_hash or request.content_hash(),
        "error": outcome.error,
        "error_type": outcome.error_type,
        "elapsed_s": outcome.elapsed_s,
        "steady_solves": outcome.steady_solves,
        "cache_hit": outcome.cache_hit,
        "report": None if outcome.report is None else report_to_dict(outcome.report),
    }


def outcome_from_record(record: dict[str, Any]) -> SolveOutcome:
    """Load the outcome of an :func:`outcome_record` back.

    An ``ok`` record's report goes through
    :func:`~repro.api.request.report_from_dict`, so its schedule is
    revalidated against the SoC its request describes.  The request
    itself is under ``record["request"]``.

    Raises
    ------
    SchedulingError
        On a status other than ``ok``/``error``, or a report on an
        ``error`` record or missing from an ``ok`` one.  A record
        missing a required key, or whose report does not decode, raises
        what the decoding raised.
    """
    status = record["status"]
    report = record.get("report")
    if status not in ("ok", "error") or (status == "ok") == (report is None):
        raise SchedulingError(
            f"malformed outcome record: status {status!r} "
            f"{'without' if report is None else 'with'} a report"
        )
    return SolveOutcome(
        status=status,
        report=None if report is None else report_from_dict(report),
        error=record.get("error"),
        error_type=record.get("error_type"),
        elapsed_s=float(record.get("elapsed_s") or 0.0),
        steady_solves=int(record.get("steady_solves") or 0),
        cache_hit=bool(record.get("cache_hit", False)),
    )


class ReportArchive:
    """Append-mode JSONL writer for a running service.

    Parameters
    ----------
    path:
        Archive file; missing parent directories are created (a fresh
        results dir must not kill the first request that tries to log
        to it), and the file itself is created empty up front so
        tail-followers and ``repro report`` see "no records yet"
        rather than "no such file" while the service is still idle.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._path.touch(exist_ok=True)
        self._count = 0  # guarded-by: _lock
        # The service appends from worker threads (it keeps file I/O
        # off its event loop); serialise writers so lines never shear.
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        """The archive file."""
        return self._path

    @property
    def count(self) -> int:
        """Records appended by this writer (pre-existing lines excluded)."""
        with self._lock:
            return self._count

    def append_outcome(
        self,
        request: "ScheduleRequest",
        outcome: SolveOutcome,
        request_hash: str | None = None,
    ) -> None:
        """Append one resolved job's record."""
        self.append_record(outcome_record(request, outcome, request_hash))

    def append_record(self, record: dict[str, Any]) -> None:
        """Append one raw record (one line; opened per append, so a
        tail-following consumer always sees complete lines)."""
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            with self._path.open("a") as handle:
                handle.write(line)
            self._count += 1


def load_service_archive(path: str | Path) -> list[dict[str, Any]]:
    """Read every record of a service archive (blank lines skipped)."""
    return load_jsonl(path)
