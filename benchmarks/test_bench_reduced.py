"""Reduced-order superposition benchmarks: the candidate-solve hot path.

Four questions, on the largest builtin SoC (alpha15) and a fleet:

* how much faster is one block-level solve than the dense path?
* how much faster is *batched* candidate evaluation (the phase-A /
  what-if pattern) than per-session dense solves?  (acceptance: >= 5x)
* does end-to-end schedule generation get measurably faster with the
  reduced path, while deciding exactly the same schedule?
* what does fleet throughput look like with the operator shared
  through the thermal-model cache?

Run with ``--benchmark-json BENCH_reduced.json`` (the CI benchmarks job
does) to track the perf trajectory across PRs.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.core.scheduler import SchedulerConfig, ThermalAwareScheduler
from repro.engine import BatchRunner, generate_fleet

#: Candidate power maps per batched evaluation (a generous phase-B
#: what-if sweep; phase A alone is one map per core).
N_CANDIDATES = 256

#: Acceptance floor for batched candidate evaluation vs dense solves.
MIN_BATCH_SPEEDUP = 5.0


def _candidate_maps(soc, n=N_CANDIDATES, seed=0):
    """Random candidate-session power maps over the SoC's cores."""
    rng = random.Random(seed)
    names = list(soc.core_names)
    return [
        soc.session_power_map(rng.sample(names, rng.randint(1, len(names))))
        for _ in range(n)
    ]


def _median_time(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_bench_single_dense_solve(benchmark, alpha_soc, alpha_simulator):
    """Baseline: one full-network steady-state solve."""
    power = alpha_soc.test_power_map()
    field = benchmark(lambda: alpha_simulator.steady_state(power))
    benchmark.extra_info["max_temperature_c"] = round(field.max_temperature_c(), 2)


def test_bench_single_reduced_solve(benchmark, alpha_soc, alpha_simulator):
    """One block-level matvec against the influence operator."""
    alpha_simulator.reduced_operator  # extraction is setup, not hot path
    power = alpha_soc.test_power_map()
    field = benchmark(lambda: alpha_simulator.block_steady_state(power))
    benchmark.extra_info["max_temperature_c"] = round(field.max_temperature_c(), 2)


def test_bench_batched_candidate_evaluation(benchmark, alpha_soc, alpha_simulator):
    """All candidate maps in one GEMM (the reactive executor's reorder pattern)."""
    alpha_simulator.reduced_operator
    maps = _candidate_maps(alpha_soc)
    batch = benchmark(lambda: alpha_simulator.block_steady_state_batch(maps))
    benchmark.extra_info["n_candidates"] = len(maps)
    benchmark.extra_info["hottest_c"] = round(
        float(batch.max_temperatures_c().max()), 2
    )


def test_bench_batched_vs_dense_speedup(alpha_soc, alpha_simulator):
    """Acceptance: batched reduced evaluation >= 5x over dense solves."""
    alpha_simulator.reduced_operator
    maps = _candidate_maps(alpha_soc)

    def dense():
        for power_map in maps:
            alpha_simulator.steady_state(power_map)

    dense_s = _median_time(dense)
    reduced_s = _median_time(
        lambda: alpha_simulator.block_steady_state_batch(maps)
    )
    speedup = dense_s / reduced_s
    print(
        f"\n{len(maps)} candidate sessions: dense {dense_s * 1e3:.2f} ms, "
        f"batched reduced {reduced_s * 1e3:.2f} ms -> {speedup:.1f}x"
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched candidate evaluation speedup {speedup:.1f}x below the "
        f"{MIN_BATCH_SPEEDUP:.0f}x acceptance floor"
    )


def test_bench_schedule_reduced(benchmark, alpha_soc, alpha_simulator, alpha_session_model):
    """End-to-end schedule generation on the reduced path."""
    scheduler = ThermalAwareScheduler(
        alpha_soc,
        simulator=alpha_simulator,
        session_model=alpha_session_model,
        config=SchedulerConfig(steady_path="reduced"),
    )
    result = benchmark(lambda: scheduler.schedule(tl_c=165.0, stcl=60.0))
    benchmark.extra_info["n_sessions"] = result.n_sessions
    benchmark.extra_info["steady_solves"] = result.steady_solves


def test_bench_schedule_dense(benchmark, alpha_soc, alpha_simulator, alpha_session_model):
    """End-to-end schedule generation on the dense path (baseline)."""
    scheduler = ThermalAwareScheduler(
        alpha_soc,
        simulator=alpha_simulator,
        session_model=alpha_session_model,
        config=SchedulerConfig(steady_path="dense"),
    )
    result = benchmark(lambda: scheduler.schedule(tl_c=165.0, stcl=60.0))
    benchmark.extra_info["n_sessions"] = result.n_sessions
    benchmark.extra_info["steady_solves"] = result.steady_solves


def test_bench_schedule_paths_agree_and_reduced_wins(
    alpha_soc, alpha_simulator, alpha_session_model
):
    """Same schedule out of both paths; reduced must not be slower."""

    def run(path):
        scheduler = ThermalAwareScheduler(
            alpha_soc,
            simulator=alpha_simulator,
            session_model=alpha_session_model,
            config=SchedulerConfig(steady_path=path),
        )
        return scheduler.schedule(tl_c=165.0, stcl=60.0)

    reduced = run("reduced")
    dense = run("dense")
    assert [s.cores for s in reduced.schedule] == [
        s.cores for s in dense.schedule
    ]
    assert reduced.length_s == dense.length_s
    assert reduced.effort_s == dense.effort_s
    assert reduced.steady_solves == dense.steady_solves

    reduced_s = _median_time(lambda: run("reduced"))
    dense_s = _median_time(lambda: run("dense"))
    print(
        f"\nschedule wall time: reduced {reduced_s * 1e3:.2f} ms vs "
        f"dense {dense_s * 1e3:.2f} ms ({dense_s / reduced_s:.2f}x)"
    )
    # The measured win is ~1.3x — real but small enough that a noisy
    # shared CI runner could flip a strict comparison, so allow 10%
    # timing noise; the printed ratio is the tracked number.
    assert reduced_s < dense_s * 1.1, (
        f"reduced path ({reduced_s * 1e3:.2f} ms) fell behind dense "
        f"({dense_s * 1e3:.2f} ms) by more than timing noise"
    )


def test_bench_fleet_throughput_reduced(benchmark):
    """Fleet throughput with the operator shared through the cache."""
    fleet = generate_fleet(60, seed=0)
    batch = benchmark(lambda: BatchRunner(backend="serial").run(fleet))
    assert not batch.failed, [o.error for _, o in batch.failed.values()]
    benchmark.extra_info["jobs"] = batch.n_jobs
    benchmark.extra_info["jobs_per_second"] = round(batch.jobs_per_second, 1)
    benchmark.extra_info["steady_solves"] = batch.total_steady_solves
