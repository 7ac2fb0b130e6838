"""Per-layer replays, run after the traced window.

Some layers can only be split from the request path by calling their
public functions again for the same request: phase A on its own, and
the SoC build, model-cache lookups, reduced-operator extraction and
session-model build that a server performs before its trace starts.
:func:`replay` re-runs that path step by step in this process, timing
each call, and checks that the re-run reproduces the reported solve —
same sessions, same length, same ``steady_solves`` — so the split is a
split of the real work.  The codec functions are replayed on the same
report.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.request import report_from_dict, report_to_dict
from repro.core.scheduler import SchedulerConfig, ThermalAwareScheduler
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.engine.cache import ThermalModelCache, model_key
from repro.engine.scenarios import ScenarioSpec
from repro.service.protocol import decode_frame, encode_frame, report_frame
from repro.soc.library import ALPHA15_POWER_SEED

from common import REPLAY_LIMIT, GateError, Record, sessions_of, timed


def scenario_of(request) -> ScenarioSpec:
    """The scenario a request's system is built from (builtins by name)."""
    if request.scenario is not None:
        return request.scenario
    seed = ALPHA15_POWER_SEED if request.soc == "alpha15" else 0
    return ScenarioSpec(kind=request.soc, power_seed=seed)


def replay(report) -> dict[str, float]:
    """Time every replayable layer for one answered request (seconds).

    Raises :class:`GateError` when the re-run disagrees with *report*.
    """
    request = report.request
    scenario = scenario_of(request)
    spans: dict[str, float] = {}
    soc, spans["build_soc"] = timed(scenario.build_soc)
    _, spans["cache_key"] = timed(model_key, soc.floorplan, soc.package, soc.adjacency)
    cache = ThermalModelCache()
    (cold, _), spans["cache_miss"] = timed(
        cache.simulator_for, soc.floorplan, soc.package, soc.adjacency
    )
    _, spans["reduced_extract"] = timed(lambda: cold.reduced_operator)
    (simulator, _), spans["cache_hit"] = timed(
        cache.simulator_for, soc.floorplan, soc.package, soc.adjacency
    )
    config = SessionModelConfig(
        include_vertical=request.include_vertical or scenario.needs_vertical_path(),
        stc_scale=(
            request.stc_scale
            if request.stc_scale is not None
            else scenario.default_stc_scale()
        ),
    )
    model, spans["session_model"] = timed(SessionThermalModel, soc, config)
    if report.solver == "thermal_aware":
        scheduler = ThermalAwareScheduler(
            soc,
            simulator=simulator,
            session_model=model,
            config=SchedulerConfig(**dict(request.params)),
        )
        _, spans["phase_a"] = timed(scheduler.best_case_max_temperatures)
        rerun = ThermalAwareScheduler(
            soc,
            simulator=cache.simulator_for(soc.floorplan, soc.package, soc.adjacency)[0],
            session_model=model,
            config=SchedulerConfig(**dict(request.params)),
        ).schedule(report.tl_c, report.stcl)
        _check_same(report, rerun)
    _, spans["report_to_dict"] = timed(report_to_dict, report)
    line, spans["frame_encode"] = timed(encode_frame, report_frame("r1", report))
    decoded, spans["frame_decode"] = timed(decode_frame, line)
    _, spans["report_from_dict"] = timed(report_from_dict, decoded["report"])
    _, spans["content_hash"] = timed(request.content_hash)
    spans["report_kb"] = len(line) / 1024.0
    return spans


def replay_window(records: Sequence[Record], limit: int = REPLAY_LIMIT) -> None:
    """Replay an even sample of a window's distinct answered requests.

    The replayed spans are attached to every record of a sampled
    request; per-layer means and shares are taken over those records.
    """
    reports = {}
    for record in records:
        if record.ok:
            reports.setdefault(record.request.content_hash(), record.report)
    keys = list(reports)
    if len(keys) > limit:
        keys = [keys[i * len(keys) // limit] for i in range(limit)]
    spans = {key: replay(reports[key]) for key in keys}
    for record in records:
        if record.ok and record.request.content_hash() in spans:
            record.spans.update(spans[record.request.content_hash()])


def _check_same(report, rerun) -> None:
    original = report.result
    if (
        sessions_of(original) != sessions_of(rerun)
        or original.length_s != rerun.length_s
        or original.steady_solves != rerun.steady_solves
    ):
        raise GateError(
            f"replay of {report.request.describe()} does not reproduce the "
            f"solve: {original.n_sessions} vs {rerun.n_sessions} sessions, "
            f"{original.steady_solves} vs {rerun.steady_solves} steady solves"
        )
