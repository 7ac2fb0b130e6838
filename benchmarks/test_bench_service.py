"""Scheduling-service benchmarks: throughput, dedup and cache value.

Three questions about ``repro.service``:

* what request rate does a service sustain for a fleet-like burst over
  the real TCP protocol, and how does it compare against handing the
  equivalent work to a :class:`~repro.engine.runner.BatchRunner` in one
  shot (the protocol + queueing overhead must stay a modest tax)?
* how much do in-flight deduplication and the answer cache save on a
  bursty, repetitive workload (many clients asking the same questions)?
* how much faster is an answer-cache **hit** than the miss (full solve)
  path — the repeat-traffic latency the cache exists to eliminate?
  The acceptance floor is a 10x reduction; in practice it is far more.

Run with the rest of the opt-in suite::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_service.py -q
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time
from contextlib import AsyncExitStack, contextmanager

import pytest

from repro.api import ScheduleRequest
from repro.engine import BatchRunner, generate_fleet
from repro.obs import HistogramRegistry
from repro.service import (
    AsyncServiceClient,
    ChaosProxy,
    FleetRouter,
    ScheduleServer,
    ScheduleService,
    ServiceClient,
)

#: Burst size: fleet-like traffic, not a toy ping.
BURST = 96

#: Distinct questions inside the burst; the rest is repetition — the
#: shape of dashboard/CI traffic, where many clients ask alike.
DISTINCT = 12

WORKERS = 4


@pytest.fixture(scope="module")
def fleet_jobs():
    """A deterministic fleet whose questions the burst mirrors."""
    return generate_fleet(DISTINCT, seed=7)


@pytest.fixture(scope="module")
def burst_requests(fleet_jobs):
    """BURST requests cycling over the fleet's DISTINCT questions."""
    distinct = list(fleet_jobs.values())
    return [distinct[i % len(distinct)] for i in range(BURST)]


def _run_burst(requests, **service_kwargs):
    """One full service lifecycle: boot, TCP burst, drain; returns stats."""

    async def main():
        service_kwargs.setdefault("backend", "thread")
        service_kwargs.setdefault("max_workers", WORKERS)
        async with ScheduleService(**service_kwargs) as svc:
            server = ScheduleServer(svc, port=0)
            await server.start()
            try:
                async with await AsyncServiceClient.connect(
                    port=server.port
                ) as client:
                    frames = await client.submit_many(requests, decode=False)
                    stats = await client.stats()
            finally:
                await server.stop()
        return frames, stats

    return asyncio.run(main())


def test_bench_service_sustained_throughput(benchmark, burst_requests):
    """Requests/s for a mixed burst over the real TCP protocol."""
    frames, stats = benchmark(lambda: _run_burst(burst_requests))
    assert len(frames) == BURST
    assert all(f["type"] == "report" for f in frames)
    assert stats["errors"] == 0
    benchmark.extra_info["requests"] = BURST
    benchmark.extra_info["distinct"] = DISTINCT
    benchmark.extra_info["requests_per_second"] = round(
        BURST / benchmark.stats["mean"], 1
    )
    benchmark.extra_info["dedup_hits"] = stats["deduped"]
    benchmark.extra_info["answer_hits"] = stats["answer_hits"]
    benchmark.extra_info["solves_started"] = stats["solves_started"]
    # Latency percentiles from the service's own streaming histograms
    # (the last benchmark round's stats frame) — tracked in
    # BENCH_service.json alongside the throughput number.
    for family in ("e2e", "solve", "queue_wait"):
        snap = stats["latency"].get(family)
        if not snap or not snap["count"]:
            continue
        for quantile in ("p50", "p95"):
            benchmark.extra_info[f"{family}_{quantile}_ms"] = round(
                snap[quantile] * 1e3, 3
            )


def test_bench_service_vs_batch_runner(burst_requests):
    """The service answers a repetitive burst competitively vs BatchRunner.

    The batch runner executes the burst as BURST independent jobs (its
    dedup is only the model cache); the service collapses identical
    requests to DISTINCT solves — concurrent repeats via in-flight
    dedup, later repeats via the answer cache.  On this workload the
    service's protocol overhead must be more than paid for: it must not
    be slower than the batch path by more than 2x, and dedup + cache
    together must eliminate >= half the solves.
    """
    # The same 96 questions as a batch fleet (unique ids, repeated work).
    jobs = {f"burst-{i}": request for i, request in enumerate(burst_requests)}

    start = time.perf_counter()
    batch = BatchRunner(backend="thread", max_workers=WORKERS).run(jobs)
    batch_s = time.perf_counter() - start
    assert not batch.failed

    start = time.perf_counter()
    frames, stats = _run_burst(burst_requests)
    service_s = time.perf_counter() - start
    assert len(frames) == BURST

    absorbed = stats["deduped"] + stats["answer_hits"]
    absorbed_rate = absorbed / stats["submitted"]
    print(
        f"\nbatch[thread x{WORKERS}] {batch_s:.2f} s "
        f"({BURST / batch_s:.1f} jobs/s) vs service {service_s:.2f} s "
        f"({BURST / service_s:.1f} req/s), absorbed rate "
        f"{absorbed_rate:.2f} ({stats['deduped']} deduped + "
        f"{stats['answer_hits']} cache hits; {stats['solves_started']} "
        f"solves for {BURST} requests)"
    )
    assert service_s < 2.0 * batch_s, (
        f"service burst took {service_s:.2f} s vs batch {batch_s:.2f} s"
    )
    assert absorbed_rate >= 0.5, f"absorbed rate only {absorbed_rate:.2f}"


#: Coalescing workload: one thermal network, distinct content hashes —
#: a TL-headroom sweep over a 16-core grid, the shape of the paper's
#: parameter studies served as a burst.  Distinct hashes defeat dedup
#: and the answer cache, so what the curve isolates is genuinely the
#: coalescer: fewer executor dispatches, and one SoC and session-model
#: build shared by the group.
COALESCE_BURST = 16
COALESCE_POINTS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def coalesce_requests():
    from repro.engine.scenarios import ScenarioSpec

    spec = ScenarioSpec(kind="grid", rows=4, cols=4, power_seed=5)
    return [
        ScheduleRequest(
            scenario=spec, tl_headroom=10.0 + 0.5 * i, stcl_headroom=5.0
        )
        for i in range(COALESCE_BURST)
    ]


def _run_coalesced_burst(requests, max_batch: int):
    """One lifecycle at a given batch bound; one worker keeps the queue
    deep (>= 8 behind the head-of-line solve), which is the regime the
    coalescer exists for."""
    return _run_burst(
        requests,
        max_workers=1,
        max_batch=max_batch,
        coalesce_window_ms=25.0 if max_batch > 1 else 0.0,
    )


def test_bench_service_coalescing_throughput(benchmark, coalesce_requests):
    """Throughput vs ``max_batch``: the coalescing acceptance curve.

    The ISSUE's gate: with the queue deep, coalesced dispatch must at
    least double the ``--max-batch 1`` baseline's throughput while the
    equivalence suite (tests/api/test_batch_equivalence.py) proves the
    answers bit-identical.  The whole curve lands in BENCH_service.json
    so a regression at any batch size is visible, not just at the
    benchmarked point.
    """
    curve = {}
    for max_batch in COALESCE_POINTS:
        best_s = min(  # best-of-3: boots and GC make single runs noisy
            _timed_coalesced_burst(coalesce_requests, max_batch)
            for _ in range(3)
        )
        curve[max_batch] = best_s

    frames, stats = benchmark(
        lambda: _run_coalesced_burst(coalesce_requests, COALESCE_POINTS[-1])
    )
    assert len(frames) == COALESCE_BURST
    assert all(f["type"] == "report" for f in frames)
    assert stats["errors"] == 0
    # Every request solved (nothing was absorbed by dedup or the
    # answer cache) and the coalescer genuinely engaged.
    assert stats["solves_started"] == COALESCE_BURST
    assert stats["coalesced_batches"] >= 1
    assert stats["coalesced_solves"] == COALESCE_BURST

    baseline_s = curve[1]
    coalesced_s = curve[COALESCE_POINTS[-1]]
    speedup = baseline_s / coalesced_s
    points = ", ".join(
        f"x{mb}: {s * 1e3:.1f} ms ({COALESCE_BURST / s:.0f} req/s)"
        for mb, s in curve.items()
    )
    print(f"\ncoalescing curve [{points}] — {speedup:.1f}x vs max_batch=1")
    benchmark.extra_info["requests"] = COALESCE_BURST
    benchmark.extra_info["coalescing_speedup"] = round(speedup, 2)
    for mb, s in curve.items():
        benchmark.extra_info[f"batch{mb}_requests_per_second"] = round(
            COALESCE_BURST / s, 1
        )
    snap = stats["latency"].get("batch_size") or {}
    if snap.get("count"):
        benchmark.extra_info["batch_size_p50"] = snap["p50"]
        benchmark.extra_info["batch_size_max"] = snap["max"]
    assert speedup >= 2.0, (
        f"coalescing only {speedup:.2f}x over the max_batch=1 baseline "
        f"({coalesced_s * 1e3:.1f} ms vs {baseline_s * 1e3:.1f} ms)"
    )


def _timed_coalesced_burst(requests, max_batch: int) -> float:
    start = time.perf_counter()
    frames, stats = _run_coalesced_burst(requests, max_batch)
    elapsed = time.perf_counter() - start
    assert len(frames) == len(requests) and stats["errors"] == 0
    return elapsed


@contextmanager
def _live_server(**service_kwargs):
    """A real TCP server on a background thread; yields its port."""
    started = threading.Event()
    state: dict = {}

    def run() -> None:
        async def main() -> None:
            async with ScheduleService(**service_kwargs) as service:
                server = ScheduleServer(service, port=0)
                await server.start()
                state["port"] = server.port
                state["loop"] = asyncio.get_running_loop()
                state["stop"] = asyncio.Event()
                started.set()
                try:
                    await state["stop"].wait()
                finally:
                    await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="bench-serve", daemon=True)
    thread.start()
    assert started.wait(30.0), "service did not boot"
    try:
        yield state["port"]
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=60.0)


def test_bench_service_cache_hit_latency(benchmark):
    """Answer-cache hit latency vs the miss (full solve) path.

    The ISSUE's acceptance floor: a repeated request must be answered
    >= 10x faster from the cache than by solving.  Measured end to end
    over the real TCP protocol (connect, frame, queue, respond) with
    ``decode=False`` on both sides so the comparison is pure serving
    latency, not client-side schedule revalidation.
    """
    request = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0)
    with _live_server(backend="thread", max_workers=2) as port:
        with ServiceClient(port=port) as client:
            start = time.perf_counter()
            miss_frame = client.submit(request, decode=False)
            miss_s = time.perf_counter() - start
            assert not miss_frame["report"]["cached"]

            hit_frame = benchmark(lambda: client.submit(request, decode=False))
            assert hit_frame["report"]["cached"]
            stats = client.stats()

    hit_s = benchmark.stats["median"]
    speedup = miss_s / hit_s
    print(
        f"\nmiss (full solve) {miss_s * 1e3:.2f} ms vs cache hit "
        f"{hit_s * 1e3:.3f} ms over TCP: {speedup:.0f}x"
    )
    benchmark.extra_info["miss_latency_ms"] = round(miss_s * 1e3, 3)
    benchmark.extra_info["hit_latency_ms"] = round(hit_s * 1e3, 4)
    benchmark.extra_info["hit_vs_miss_speedup"] = round(speedup, 1)
    benchmark.extra_info["answer_hits"] = stats["answer_hits"]
    hit_snap = stats["latency"]["answer_hit"]
    benchmark.extra_info["hit_p50_ms"] = round(hit_snap["p50"] * 1e3, 4)
    benchmark.extra_info["hit_p95_ms"] = round(hit_snap["p95"] * 1e3, 4)
    assert stats["solves_started"] == 1  # every benchmark round was a hit
    assert speedup >= 10.0, (
        f"cache hit only {speedup:.1f}x faster than the miss path "
        f"({hit_s * 1e3:.3f} ms vs {miss_s * 1e3:.2f} ms)"
    )


def _run_fleet_burst(requests, n_shards: int = 2):
    """One fleet lifecycle: shards + router boot, routed burst, drain."""

    async def main():
        async with AsyncExitStack() as stack:
            servers = []
            for _ in range(n_shards):
                service = await stack.enter_async_context(
                    ScheduleService(backend="thread", max_workers=WORKERS)
                )
                server = ScheduleServer(service, port=0)
                await server.start()
                stack.push_async_callback(server.stop)
                servers.append(server)
            router = FleetRouter(
                [f"127.0.0.1:{s.port}" for s in servers],
                probe_interval_s=None,
            )
            await router.start()
            stack.push_async_callback(router.stop)
            async with await AsyncServiceClient.connect(
                port=router.port
            ) as client:
                frames = await client.submit_many(requests, decode=False)
                stats = await client.stats()
            return frames, stats

    return asyncio.run(main())


def test_bench_fleet_throughput(benchmark, burst_requests):
    """Requests/s for the same burst routed across a two-shard fleet.

    The router hop must stay a modest tax over the single-server burst
    (tracked side by side in BENCH_service.json), and fleet-wide dedup
    must hold: identical requests land on one shard, so the whole fleet
    still solves each distinct question once.
    """
    frames, stats = benchmark(lambda: _run_fleet_burst(burst_requests))
    assert len(frames) == BURST
    assert all(f["type"] == "report" for f in frames)
    assert stats["backend"] == "fleet"
    assert stats["healthy_shards"] == 2
    assert stats["solves_started"] == DISTINCT  # fleet-wide dedup held
    benchmark.extra_info["requests"] = BURST
    benchmark.extra_info["shards"] = 2
    benchmark.extra_info["fleet_requests_per_second"] = round(
        BURST / benchmark.stats["mean"], 1
    )
    benchmark.extra_info["solves_started"] = stats["solves_started"]
    benchmark.extra_info["dedup_hits"] = stats["deduped"]
    benchmark.extra_info["answer_hits"] = stats["answer_hits"]


def _failover_recovery_once() -> float:
    """Seconds from killing a request's owning shard to the failover answer."""
    request = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0)

    async def main() -> float:
        async with AsyncExitStack() as stack:
            servers = []
            proxies = []
            for _ in range(3):
                service = await stack.enter_async_context(
                    ScheduleService(backend="thread", max_workers=2)
                )
                server = ScheduleServer(service, port=0)
                await server.start()
                stack.push_async_callback(server.stop)
                servers.append(server)
                # Every shard sits behind a severable proxy so the kill
                # is a genuine connection reset, whichever shard owns
                # the benchmark request.
                proxy = await stack.enter_async_context(
                    ChaosProxy("127.0.0.1", server.port)
                )
                proxies.append(proxy)
            shards = [f"127.0.0.1:{p.port}" for p in proxies]
            router = FleetRouter(shards, probe_interval_s=None)
            await router.start()
            stack.push_async_callback(router.stop)
            async with await AsyncServiceClient.connect(
                port=router.port
            ) as client:
                await client.submit(request)  # warm onto the owner
                owner = router.ring.owner(request.content_hash())
                index = shards.index(owner)
                start = time.perf_counter()
                proxies[index].sever()
                await servers[index].stop()
                report = await client.submit(request)  # fails over
                elapsed = time.perf_counter() - start
                assert report.n_sessions >= 1
                assert router.router_counters()["failovers"] >= 1
            return elapsed

    return asyncio.run(main())


def test_bench_fleet_failover_recovery(benchmark):
    """Time from a shard kill to the first successful failover answer.

    The interval a client actually experiences: the owning shard dies
    mid-conversation and the next identical request must come back from
    a neighbour — re-dial discovery, ring walk, and the (cold-cache)
    re-solve included.
    """
    recoveries: list[float] = []
    benchmark.pedantic(
        lambda: recoveries.append(_failover_recovery_once()),
        rounds=3,
        iterations=1,
    )
    recoveries.sort()
    median = recoveries[len(recoveries) // 2]
    print(
        f"\nfailover recovery: median {median * 1e3:.1f} ms over "
        f"{len(recoveries)} kills (worst {recoveries[-1] * 1e3:.1f} ms)"
    )
    benchmark.extra_info["failover_recovery_ms"] = round(median * 1e3, 2)
    benchmark.extra_info["failover_recovery_worst_ms"] = round(
        recoveries[-1] * 1e3, 2
    )
    benchmark.extra_info["kills"] = len(recoveries)
    assert median < 30.0, f"failover took {median:.1f} s"


#: Hit samples in one block of the tracing-overhead comparison; blocks
#: alternate between the two services.
OVERHEAD_BLOCK = 20


def _hit_round_trip(client: ServiceClient, request: ScheduleRequest) -> float:
    """One TCP round trip of an answer-cache hit."""
    start = time.perf_counter()
    frame = client.submit(request, decode=False)
    elapsed = time.perf_counter() - start
    assert frame["report"]["cached"]
    return elapsed


class _NullHistograms(HistogramRegistry):
    """A registry that records nothing: the recording-free baseline."""

    def observe(self, name: str, value: float) -> None:
        pass


def test_bench_service_tracing_overhead():
    """Tracing + histograms must not tax the hit path beyond 10%.

    The cached-hit round-trip is the service's fastest path, so it is
    where per-request observability overhead (trace stamping, two
    histogram observations, the e2e clock reads) would show first.
    The baseline is a service whose histogram registry records nothing
    — the traced hit median must stay within 10% of it (plus a 200 us
    absolute floor: at ~100 us round-trips, scheduler jitter on a
    loaded CI box dwarfs any multiplicative bound).
    """
    request = ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0)
    rounds = 300

    # Both services run at once and take alternating blocks of samples
    # (ABBA order), so drift of the host lands on both sides alike.
    with (
        _live_server(
            backend="thread", max_workers=2, histograms=_NullHistograms()
        ) as untraced_port,
        _live_server(backend="thread", max_workers=2) as traced_port,
        ServiceClient(port=untraced_port) as untraced,
        ServiceClient(port=traced_port) as traced,
    ):
        clients = (untraced, traced)
        for client in clients:  # populate each answer cache
            assert not client.submit(request, decode=False)["report"]["cached"]
        samples: tuple[list[float], list[float]] = ([], [])
        for block in range(rounds // OVERHEAD_BLOCK):
            for side in (0, 1) if block % 2 == 0 else (1, 0):
                samples[side].extend(
                    _hit_round_trip(clients[side], request)
                    for _ in range(OVERHEAD_BLOCK)
                )
    untraced_s, traced_s = (statistics.median(side) for side in samples)

    overhead = traced_s / untraced_s - 1.0
    print(
        f"\ncache hit untraced {untraced_s * 1e6:.0f} us vs traced "
        f"{traced_s * 1e6:.0f} us ({overhead * +100.0:.1f}% overhead)"
    )
    assert traced_s <= untraced_s * 1.10 + 200e-6, (
        f"tracing overhead {overhead * 100.0:.1f}%: traced hit "
        f"{traced_s * 1e6:.0f} us vs untraced {untraced_s * 1e6:.0f} us"
    )
