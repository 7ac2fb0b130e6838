"""serve-poisson: one ``repro serve --workers 1`` behind TCP, open-loop load.

Poisson arrivals at each rate of a short fixed ladder, every request
distinct, every report decoded by the client.  Latency metrics are read
at the ladder's nominal step; ``slo_rps`` is the goodput of the highest
step whose p95 meets the SLO and that drains within the SLO once its
arrivals stop (no growing backlog).
"""

from __future__ import annotations

import asyncio
import time

import gate
import layers
import tcp
from common import SLO_S, latencies, load_summary, median, percentile, quality
from ledger import breakdown, model_cache_delta, service_rates
from mix import serve_poisson_ladder, warm_requests
from procs import ProcessGroup


async def _ready(group: ProcessGroup):
    """Spawn the server and warm one request per network; time to ready."""
    start = time.perf_counter()
    server = group.serve("server")
    server.wait_listening()
    client = await tcp.connect(server.port)
    for request in warm_requests():
        await client.submit(request)
    return server, client, time.perf_counter() - start


def _step_passes(records, elapsed: float, duration: float) -> bool:
    lat = latencies(records)
    return percentile(lat, 95) <= SLO_S and elapsed - duration <= SLO_S


async def _run(seed: int, seconds: float, trace: bool, toy: bool):
    setups = []
    for _ in range(0 if trace or toy else 2):
        with ProcessGroup() as group:
            _, client, took = await _ready(group)
            setups.append(took)
            await client.close()
    with ProcessGroup() as group:
        server, first, took = await _ready(group)
        setups.append(took)
        clients = [first, await tcp.connect(server.port)]
        try:
            if trace:
                return await _traced(seed, seconds, toy, clients)
            steps = serve_poisson_ladder(seed, seconds, toy)
            windows, index = [], 0
            for step in steps:
                records, elapsed = await tcp.open_loop(
                    clients, step.arrivals, traced=False, first_index=index
                )
                index += len(records)
                windows.append((step, records, elapsed))
            rss = group.peak_rss_mb()
        finally:
            for client in clients:
                await client.close()
    every = [r for _, records, _ in windows for r in records]
    gate.check(every)
    for step, records, elapsed in windows:
        print(
            f"ladder step {step.rate_rps:g} req/s: {len(records)} requests, "
            f"p95 {percentile(latencies(records), 95) * 1e3:.1f} ms, "
            f"drained {elapsed - step.duration_s:+.3f} s after the last arrival"
        )
    step, records, elapsed = next(w for w in windows if w[0].nominal)
    passing = [w for w in windows if _step_passes(w[1], w[2], w[0].duration_s)]
    slo_step = max(passing or windows[:1], key=lambda w: w[0].rate_rps)
    # Pooled over the step: an open loop's arrival count is fixed, and
    # its tail needs every sample (p95 has ~20 samples beyond it).
    summary = load_summary(records, elapsed)
    metrics = {
        **summary,
        "slo_rps": load_summary(slo_step[1], slo_step[2])["goodput_rps"],
        **quality(r.report for r in records),
        "rss_peak_mb": rss,
        "setup_s": median(setups),
    }
    return metrics, every


async def _traced(seed, seconds, toy, clients):
    (untraced_step,) = serve_poisson_ladder(seed, seconds / 2, toy, nominal_only=True, part=1)
    (traced_step,) = serve_poisson_ladder(seed, seconds, toy, nominal_only=True, part=2)
    untraced, _ = await tcp.open_loop(clients, untraced_step.arrivals, traced=False)
    before = await clients[0].stats()
    records, _ = await tcp.open_loop(clients, traced_step.arrivals, traced=True)
    after = await clients[0].stats()
    gate.check(records)
    layers.replay_window(records)
    metrics = breakdown(
        records,
        tcp=True,
        cache_counts=model_cache_delta(before, after),
        service=service_rates(before, after),
        untraced_p50_s=median(r.latency for r in untraced),
    )
    return metrics, records


def run(seed: int, seconds: float, trace: bool, toy: bool):
    return asyncio.run(_run(seed, seconds, trace, toy))
