"""Reactive-loop benchmarks: guard-decision latency and event throughput.

Two questions about ``repro.reactive``:

* how long does one **guard decision** take — a `ThermalGuard.update`
  call (state classification + hysteresis + sliding-window trend fit)?
  This is the closed-loop control overhead per sensor sample, so it
  must stay microseconds: the virtual sensor emits one sample per
  integration step and a real-sensor adapter would run it per reading.
* how many **events per second** does a full closed-loop run sustain —
  schedule in, bit-reproducible timeline out — with the transient
  solver doing the actual physics underneath?

Run with the rest of the opt-in suite::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_reactive.py -q

The CI ``reactive-smoke`` job emits these as ``BENCH_reactive.json``.
"""

from __future__ import annotations

import pytest

from repro.api import ScheduleRequest, Workbench
from repro.reactive import (
    GuardConfig,
    ReactiveConfig,
    TemperatureSample,
    ThermalGuard,
    run_schedule_result,
)

#: Thresholds the worked example's ~53.3 C open-loop peak must cross,
#: so the benchmarked run exercises the throttle/reorder machinery.
GUARD = GuardConfig(elevated_c=49.0, critical_c=53.0, hysteresis_c=1.5)

#: Samples per guard-latency benchmark round.
SAMPLES = 2_000


@pytest.fixture(scope="module")
def result():
    report = Workbench(use_cache=False).solve(
        ScheduleRequest(soc="worked_example6", tl_c=80.0, stcl=60.0)
    )
    return report.result


@pytest.fixture(scope="module")
def sample_stream():
    """A deterministic saw-tooth crossing both thresholds repeatedly."""
    samples = []
    for i in range(SAMPLES):
        phase = i % 100
        temp = 45.0 + 0.2 * phase if phase < 50 else 55.0 - 0.2 * (phase - 50)
        samples.append(
            TemperatureSample(
                time_s=i * 0.005,
                temperatures_c={"B1": temp, "B2": temp - 2.0, "B3": 40.0},
            )
        )
    return samples


def test_bench_guard_decision_latency(benchmark, sample_stream):
    """Per-sample guard decision: classify + hysteresis + trend fit."""

    def decide():
        guard = ThermalGuard(GUARD)
        for sample in sample_stream:
            guard.update(sample)
        return guard

    guard = benchmark(decide)
    # The stream crosses both thresholds every cycle; the guard must
    # have actually worked, not short-circuited.
    assert sum(guard.transitions.values()) >= SAMPLES // 100
    # Record the per-decision latency alongside the batch timing.
    benchmark.extra_info["samples_per_round"] = SAMPLES
    benchmark.extra_info["guard_decisions_per_s"] = (
        SAMPLES / benchmark.stats.stats.mean
    )


def test_bench_closed_loop_events_per_second(benchmark, result):
    """Full closed-loop run: schedule -> bit-reproducible timeline."""

    def run():
        return run_schedule_result(
            result,
            guard_config=GUARD,
            config=ReactiveConfig(chunk_s=0.1),
        )

    report = benchmark(run)
    assert report.events[-1].kind == "done"
    assert report.throttles > 0
    benchmark.extra_info["events_per_run"] = len(report.events)
    benchmark.extra_info["events_per_s"] = (
        len(report.events) / benchmark.stats.stats.mean
    )
    benchmark.extra_info["samples_per_run"] = report.samples
    benchmark.extra_info["simulated_seconds_per_wall_second"] = (
        report.total_time_s / benchmark.stats.stats.mean
    )
