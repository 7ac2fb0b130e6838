"""Metric names, units, and the per-layer breakdown of a traced window.

``END_TO_END`` and ``PER_LAYER`` are the metric tables ``BENCHMARK.json``
lists; the self-test checks that the two agree and that every run
prints each metric with its unit.

Per-layer times are means per distinct fresh solve (server-side layers)
or per request (client-side layers), in milliseconds.  Layers a
workload's requests never pass through report 0.  Shares are summed
layer time over summed request latency.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence

from common import Record, mean, median, percentile

END_TO_END = (
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("slo_rps", "req/s"),
    ("success_rate", "ratio"),
    ("schedule_length_s", "s"),
    ("sim_effort_s", "s"),
    ("steady_solves", "count"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("scenarios.build_soc_ms", "ms"),
    ("scenarios.share", "ratio"),
    ("scenarios.grid16_soc_decode_share", "ratio"),
    ("cache.key_ms", "ms"),
    ("cache.hit_ms", "ms"),
    ("cache.miss_ms", "ms"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.misses_per_new_network", "ratio"),
    ("cache.build_share", "ratio"),
    ("reduced.extract_ms", "ms"),
    ("session_model.build_ms", "ms"),
    ("workbench.model_build_ms", "ms"),
    ("workbench.limit_resolve_ms", "ms"),
    ("workbench.solver_ms", "ms"),
    ("workbench.untraced_ms", "ms"),
    ("scheduler.phase_a_ms", "ms"),
    ("scheduler.phase_b_ms", "ms"),
    ("scheduler.sessions", "count"),
    ("scheduler.discards", "count"),
    ("scheduler.forced_singletons", "count"),
    ("scheduler.share", "ratio"),
    ("request.report_to_dict_ms", "ms"),
    ("request.report_from_dict_ms", "ms"),
    ("request.content_hash_ms", "ms"),
    ("request.decode_share", "ratio"),
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.report_kb", "KB"),
    ("service.queue_wait_ms", "ms"),
    ("service.worker_ms", "ms"),
    ("service.total_ms", "ms"),
    ("service.queue_share", "ratio"),
    ("service.answer_hit_rate", "ratio"),
    ("service.dedup_rate", "ratio"),
    ("service.batch_size", "count"),
    ("server.wire_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.failovers", "count"),
    ("loadgen.late_p95_ms", "ms"),
    ("loadgen.repeat_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Phases the program itself records on ``SolveReport.timings`` that do
#: not nest inside one another (``total``/``worker``/``service_total``
#: enclose them).
LEAF_PHASES = ("queue_wait", "model_build", "limit_resolve", "solver")


def _is_grid16(request) -> bool:
    scenario = request.scenario
    return scenario is not None and scenario.kind == "grid" and scenario.rows == 16


def fresh_solves(records: Sequence[Record]) -> list[Record]:
    """One record per distinct request the program actually solved."""
    chosen: dict[str, Record] = {}
    for record in records:
        if record.ok and not record.report.cached:
            chosen.setdefault(record.request.content_hash(), record)
    return list(chosen.values())


def breakdown(
    records: Sequence[Record],
    *,
    tcp: bool,
    cache_counts: dict[str, int],
    service: dict[str, float] | None = None,
    router: dict[str, float] | None = None,
    new_networks: int = 0,
    untraced_p50_s: float,
) -> dict[str, float]:
    """Per-layer metrics of a traced, replayed window."""
    answered = [r for r in records if r.ok]
    # In process every call solves; over TCP a repeat is an answer-cache
    # hit or waits on an identical in-flight solve.
    solves = fresh_solves(answered) if tcp else answered
    first = {id(r) for r in solves}
    thermal = [r for r in solves if r.report.solver == "thermal_aware"]
    # Replayed layers exist for the sampled requests only.
    replayed = [r for r in answered if "build_soc" in r.spans]
    replayed_solves = [r for r in replayed if id(r) in first]
    replayed_thermal = [r for r in replayed_solves if r.report.solver == "thermal_aware"]
    timing = lambda r, key: float((r.report.timings or {}).get(key, 0.0))  # noqa: E731
    span = lambda r, key: float(r.spans.get(key, 0.0))  # noqa: E731
    ms = lambda values: mean(values) * 1e3  # noqa: E731
    share = lambda part, whole: part / whole if whole else 0.0  # noqa: E731
    total_latency = sum(r.latency for r in answered)
    replayed_latency = sum(r.latency for r in replayed)

    def server_soc(r: Record) -> float:
        """SoC build on the request path: once per solve, none for a hit."""
        return span(r, "build_soc") if id(r) in first else 0.0

    def program_spans(r: Record) -> float:
        return sum(timing(r, key) for key in LEAF_PHASES) if id(r) in first else 0.0

    coverage = [
        (program_spans(r) + span(r, "late") + span(r, "client_decode")) / r.latency
        for r in answered
    ]
    big = [r for r in replayed if _is_grid16(r.request)]
    hits, misses = cache_counts.get("hits", 0), cache_counts.get("misses", 0)
    untraced = [
        timing(r, "worker") - timing(r, "total") if tcp else span(r, "wall") - timing(r, "total")
        for r in solves
    ]
    phase_a = [span(r, "phase_a") for r in replayed_thermal]
    phase_b = [timing(r, "solver") - span(r, "phase_a") for r in replayed_thermal]
    client_decode = (
        [span(r, "client_decode") for r in answered]
        if tcp
        else [span(r, "report_from_dict") for r in replayed]
    )
    service = service or {}
    router = router or {}
    traced_p50 = median(r.scaled_latency for r in answered)
    return {
        "scenarios.build_soc_ms": ms(span(r, "build_soc") for r in replayed_solves),
        "scenarios.share": share(sum(server_soc(r) for r in replayed), replayed_latency),
        "scenarios.grid16_soc_decode_share": share(
            sum(server_soc(r) + span(r, "client_decode") for r in big),
            sum(r.latency for r in big),
        ),
        "cache.key_ms": ms(span(r, "cache_key") for r in replayed_solves),
        "cache.hit_ms": ms(span(r, "cache_hit") for r in replayed_solves),
        "cache.miss_ms": ms(span(r, "cache_miss") for r in replayed_solves),
        "cache.misses": float(misses),
        "cache.hit_rate": share(hits, hits + misses),
        "cache.misses_per_new_network": share(misses, new_networks),
        "cache.build_share": share(
            misses
            * mean(span(r, "cache_miss") + span(r, "reduced_extract") for r in replayed_solves),
            total_latency,
        ),
        "reduced.extract_ms": ms(span(r, "reduced_extract") for r in replayed_solves),
        "session_model.build_ms": ms(span(r, "session_model") for r in replayed_solves),
        "workbench.model_build_ms": ms(timing(r, "model_build") for r in solves),
        "workbench.limit_resolve_ms": ms(timing(r, "limit_resolve") for r in solves),
        "workbench.solver_ms": ms(timing(r, "solver") for r in solves),
        "workbench.untraced_ms": ms(untraced),
        "scheduler.phase_a_ms": ms(phase_a),
        "scheduler.phase_b_ms": ms(phase_b),
        "scheduler.sessions": mean(r.report.n_sessions for r in thermal),
        "scheduler.discards": mean(r.report.result.n_discarded for r in thermal),
        "scheduler.forced_singletons": mean(
            r.report.result.forced_singletons for r in thermal
        ),
        "scheduler.share": share(sum(phase_a) + sum(phase_b), replayed_latency),
        "request.report_to_dict_ms": ms(span(r, "report_to_dict") for r in replayed),
        "request.report_from_dict_ms": ms(client_decode),
        "request.content_hash_ms": ms(span(r, "content_hash") for r in replayed),
        "request.decode_share": share(sum(client_decode), total_latency) if tcp else 0.0,
        "protocol.encode_ms": ms(span(r, "frame_encode") for r in replayed),
        "protocol.decode_ms": ms(span(r, "frame_decode") for r in replayed),
        "protocol.report_kb": mean(span(r, "report_kb") for r in replayed),
        "service.queue_wait_ms": ms(timing(r, "queue_wait") for r in solves),
        "service.worker_ms": ms(timing(r, "worker") for r in solves),
        "service.total_ms": ms(timing(r, "service_total") for r in solves),
        "service.queue_share": share(sum(timing(r, "queue_wait") for r in solves), total_latency),
        "service.answer_hit_rate": service.get("answer_hit_rate", 0.0),
        "service.dedup_rate": service.get("dedup_rate", 0.0),
        "service.batch_size": service.get("batch_size", 0.0),
        "server.wire_ms": (
            median(span(r, "rtt") - timing(r, "service_total") for r in solves) * 1e3
            if tcp
            else 0.0
        ),
        "router.hop_ms": router.get("hop_ms", 0.0),
        "router.failovers": router.get("failovers", 0.0),
        # Open loop: how late each send was; closed loop: the generator's
        # own gap between an answer and the next send.
        "loadgen.late_p95_ms": percentile(
            [span(r, "late") + span(r, "gap") for r in answered], 95
        )
        * 1e3,
        "loadgen.repeat_share": sum(1 for r in records if r.tags.get("repeat"))
        / len(records),
        "trace.coverage": median(coverage),
        "trace.overhead": traced_p50 / untraced_p50_s,
    }


def service_rates(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """Answer-cache, dedup and batching figures of a window from two stats frames."""
    delta = Counter()
    for key in ("submitted", "answer_hits", "deduped", "solves_started"):
        delta[key] = after.get(key, 0) - before.get(key, 0)
    batches = (after.get("latency") or {}).get("batch_size") or {}
    submitted = delta["submitted"] or 1
    return {
        "answer_hit_rate": delta["answer_hits"] / submitted,
        "dedup_rate": delta["deduped"] / submitted,
        # Coalescing off (the default) dispatches one job at a time and
        # records no batch histogram.
        "batch_size": (
            batches["sum"] / batches["count"]
            if batches.get("count")
            else (1.0 if delta["solves_started"] else 0.0)
        ),
    }


def model_cache_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, int]:
    """Model-cache hits and misses between two stats frames."""
    b, a = before.get("cache") or {}, after.get("cache") or {}
    return {
        "hits": a.get("hits", 0) - b.get("hits", 0),
        "misses": a.get("misses", 0) - b.get("misses", 0),
    }
