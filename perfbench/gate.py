"""The correctness gate, run after each timed window.

A run's numbers only count when every answer is right:

* every request got exactly one answer (a lost or duplicated answer
  fails the run);
* every report answers the request it was sent for: its embedded
  request, and the wire frame's ``request_hash`` where there is one,
  match the request's content hash;
* every thermal-aware schedule passes ``audit_schedule`` against the
  dense steady-state simulator: no committed session at or above TL.

Failed or refused requests are not gate failures; they feed
``success_rate``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.safety import audit_schedule
from repro.engine.cache import ThermalModelCache

from common import GateError, Record, sessions_of


def check(records: Sequence[Record]) -> dict[str, int]:
    """Raise :class:`GateError` on any wrong answer; return what was checked."""
    if not records:
        raise GateError("the timed window answered no request")
    lost = [r.index for r in records if r.answers == 0]
    doubled = [r.index for r in records if r.answers > 1]
    if lost or doubled:
        raise GateError(f"answers lost for {lost[:5]}, duplicated for {doubled[:5]}")
    cache = ThermalModelCache()
    audited: set[tuple] = set()
    sessions = 0
    for record in records:
        if not record.ok:
            continue
        expected = record.request.content_hash()
        report = record.report
        if report.request is None or report.request.content_hash() != expected:
            raise GateError(f"request {record.index}: report answers another request")
        if record.frame is not None and record.frame.get("request_hash") != expected:
            raise GateError(f"request {record.index}: frame request_hash mismatch")
        # Identical answers to one request are audited once.
        key = (expected, sessions_of(report))
        if report.solver != "thermal_aware" or key in audited:
            continue
        audited.add(key)
        soc = report.schedule.soc
        simulator, _ = cache.simulator_for(soc.floorplan, soc.package, soc.adjacency)
        audit = audit_schedule(report.schedule, report.tl_c, simulator=simulator)
        if not audit.is_safe:
            raise GateError(
                f"request {record.index} ({report.request.describe()}): "
                f"{len(audit.violating_sessions)} session(s) at or above TL"
            )
        sessions += len(audit.sessions)
    return {"audited_schedules": len(audited), "audited_sessions": sessions}
