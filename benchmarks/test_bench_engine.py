"""Batch-engine benchmarks: fleet throughput, backend speedup, cache value.

Three questions about the ``repro.engine`` subsystem, answered over a
120-scenario generated fleet:

* how fast does one worker chew through a fleet (jobs/s)?
* does the multiprocessing backend beat serial wall-clock? (skipped on
  single-CPU machines, where a process pool cannot win by definition);
* does the shared thermal-model cache actually hit, and what does it
  save against the build-everything-per-job ablation?
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import BatchRunner, generate_fleet

#: Acceptance floor: the engine must handle >= 100-scenario fleets.
FLEET_SIZE = 120


@pytest.fixture(scope="module")
def fleet():
    """The shared 120-job fleet (deterministic: seed 0)."""
    return generate_fleet(FLEET_SIZE, seed=0)


def _timed_run(fleet, **runner_kwargs):
    runner = BatchRunner(**runner_kwargs)
    start = time.perf_counter()
    batch = runner.run(fleet)
    return batch, time.perf_counter() - start


def test_bench_serial_fleet_throughput(benchmark, fleet):
    """End-to-end serial scheduling of the whole fleet."""
    batch = benchmark(lambda: BatchRunner(backend="serial").run(fleet))
    assert batch.n_jobs == FLEET_SIZE
    assert not batch.failed, [o.error for _, o in batch.failed.values()]
    benchmark.extra_info["jobs"] = batch.n_jobs
    benchmark.extra_info["jobs_per_second"] = round(batch.jobs_per_second, 1)
    benchmark.extra_info["cache_hit_rate"] = round(batch.cache_hit_rate, 3)
    benchmark.extra_info["steady_solves"] = batch.total_steady_solves


def test_bench_multiworker_speedup(fleet):
    """The multiprocessing backend must beat serial wall-clock.

    A process pool cannot outrun one worker on a single-CPU machine, so
    the comparison only runs where parallelism is physically available.
    """
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(f"needs >= 2 CPUs for a meaningful speedup (have {cpus})")

    serial_batch, serial_s = _timed_run(fleet, backend="serial")
    process_batch, process_s = _timed_run(
        fleet, backend="process", max_workers=cpus
    )
    assert not serial_batch.failed and not process_batch.failed
    # Identical work was done (same schedules), only faster.
    for job_id in fleet:
        assert (
            serial_batch[job_id][1].report.length_s
            == process_batch[job_id][1].report.length_s
        )
    speedup = serial_s / process_s
    print(
        f"\nserial {serial_s:.2f} s vs process[{cpus}] {process_s:.2f} s "
        f"-> speedup {speedup:.2f}x"
    )
    assert process_s < serial_s, (
        f"process backend ({process_s:.2f} s, {cpus} workers) did not beat "
        f"serial ({serial_s:.2f} s)"
    )


def test_bench_cache_effectiveness(fleet):
    """Fleets sharing floorplans must hit the model cache."""
    cached_batch, cached_s = _timed_run(fleet, backend="serial")
    uncached_batch, uncached_s = _timed_run(
        fleet, backend="serial", use_cache=False
    )
    assert not cached_batch.failed and not uncached_batch.failed

    # The generated fleet draws floorplans/packages from small pools, so
    # a 120-job fleet shares many (floorplan, package) pairs.
    assert cached_batch.cache_hits > 0
    assert cached_batch.cache_hit_rate > 0.25
    assert uncached_batch.cache_hits == 0

    stats = cached_batch.cache_stats
    assert stats is not None and stats.hits == cached_batch.cache_hits
    print(
        f"\ncache hit rate {cached_batch.cache_hit_rate * 100:.0f}% "
        f"({stats.entries} distinct models for {FLEET_SIZE} jobs); "
        f"cached {cached_s:.2f} s vs uncached {uncached_s:.2f} s"
    )


def test_bench_thread_backend_correctness_under_sharing(fleet):
    """Thread workers share one cache; results must match serial exactly."""
    serial_batch, _ = _timed_run(fleet, backend="serial")
    thread_batch, _ = _timed_run(fleet, backend="thread", max_workers=4)
    assert not thread_batch.failed
    for job_id in fleet:
        a, b = serial_batch[job_id][1].report, thread_batch[job_id][1].report
        assert a.length_s == b.length_s
        assert a.max_temperature_c == pytest.approx(b.max_temperature_c)
    # Concurrent workers may race to build the same key (each records a
    # miss, the loser's build is discarded), so hits can dip below the
    # serial count — but the distinct-model count must match exactly.
    assert thread_batch.cache_hits > 0
    assert thread_batch.cache_stats.entries == serial_batch.cache_stats.entries
