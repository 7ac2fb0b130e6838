"""The paper's contribution (DESIGN.md systems S5-S7).

* :mod:`session_model` — the low-complexity test-session thermal model
  (Section 2 of the paper): equivalent resistances, TC and STC;
* :mod:`scheduler` — thermal-aware test schedule generation
  (Algorithm 1);
* :mod:`baselines` — power-constrained and reference schedulers;
* :mod:`safety` — independent thermal auditing of any schedule.
"""

from .baselines import (
    OptimalMinSessionsScheduler,
    PowerConstrainedConfig,
    PowerConstrainedScheduler,
    RandomScheduler,
    maximally_concurrent_schedule,
    sequential_schedule,
)
from .gantt import render_gantt, render_utilisation
from .refine import RefinementResult, RefinementStep, ScheduleRefiner
from .safety import ScheduleAudit, SessionAudit, annotate_schedule, audit_schedule
from .serialize import (
    dump_jsonl,
    load_jsonl,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
    schedule_from_dict,
    schedule_to_dict,
)
from .scheduler import (
    PAPER_SCHEDULER,
    PAPER_WEIGHT_FACTOR,
    DiscardedSession,
    ScheduleResult,
    SchedulerConfig,
    ThermalAwareScheduler,
)
from .session import TestSchedule, TestSession
from .session_model import (
    PAPER_SESSION_MODEL,
    SessionModelConfig,
    SessionThermalModel,
)

__all__ = [
    "DiscardedSession",
    "OptimalMinSessionsScheduler",
    "PAPER_SCHEDULER",
    "PAPER_SESSION_MODEL",
    "PAPER_WEIGHT_FACTOR",
    "PowerConstrainedConfig",
    "PowerConstrainedScheduler",
    "RandomScheduler",
    "RefinementResult",
    "RefinementStep",
    "ScheduleRefiner",
    "ScheduleAudit",
    "ScheduleResult",
    "SchedulerConfig",
    "SessionAudit",
    "SessionModelConfig",
    "SessionThermalModel",
    "TestSchedule",
    "TestSession",
    "ThermalAwareScheduler",
    "annotate_schedule",
    "audit_schedule",
    "dump_jsonl",
    "load_jsonl",
    "load_result",
    "render_gantt",
    "render_utilisation",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "schedule_from_dict",
    "schedule_to_dict",
    "maximally_concurrent_schedule",
    "sequential_schedule",
]
