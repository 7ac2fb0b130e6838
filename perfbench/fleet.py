"""fleet-churn: ``repro route`` over two ``repro serve --workers 1`` shards.

A closed loop keeps four requests in flight over two router
connections.  Three requests in five describe thermal networks no shard
has seen; the other two re-draw earlier requests, so the answer cache,
in-flight dedup and the model cache's write path all work.  A run sends
more distinct requests than the shards' answer caches hold, so some
repeats miss.  There is no warm-up: cold builds are the point.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from typing import Any

from repro.service.fleet.ring import HashRing

import gate
import layers
import tcp
from common import QUALITY_PREFIX, median, quality, sliced_summary, time_slices
from ledger import breakdown, model_cache_delta, service_rates
from mix import fleet_churn_sequence
from procs import ProcessGroup

#: Requests kept in flight by the closed loop.
DEPTH = 4
#: Upper bound on requests one window can issue.
SEQUENCE = 20_000
#: Answer-cache hits timed direct and through the router for the hop.
HOP_SAMPLES = 24


async def _ready(group: ProcessGroup):
    """Spawn both shards and the router; time until both shards are healthy."""
    start = time.perf_counter()
    shards = [group.serve("shard-a"), group.serve("shard-b")]
    for shard in shards:
        shard.wait_listening()
    router = group.route(shards)
    router.wait_listening()
    client = await tcp.connect(router.port)
    while (await client.fleet_stats())["healthy_shards"] < len(shards):
        await asyncio.sleep(0.01)
    return shards, router, client, time.perf_counter() - start


def shard_totals(fleet: dict[str, Any]) -> dict[str, Any]:
    """Counters summed over shards, in the shape of one server's stats frame."""
    totals: Counter = Counter()
    cache: Counter = Counter()
    batches: Counter = Counter()
    for entry in fleet["shards"].values():
        stats = entry.get("stats") or {}
        for key in ("submitted", "answer_hits", "deduped", "solves_started"):
            totals[key] += stats.get(key, 0)
        cache.update(stats.get("cache") or {})
        histogram = (stats.get("latency") or {}).get("batch_size") or {}
        batches.update({key: histogram.get(key, 0) for key in ("sum", "count")})
    return {**totals, "cache": dict(cache), "latency": {"batch_size": dict(batches)}}


async def _hop_ms(shards, router_client, records) -> float:
    """Median extra round trip of the router for answer-cache hits.

    The window's latest hits are re-sent to their owning shard and
    through the router, in alternating order; a pair in which either
    answer was not served from the answer cache (evicted since) is
    dropped.
    """
    ring = HashRing([shard.address for shard in shards])
    direct = {shard.address: await tcp.connect(shard.port) for shard in shards}
    samples = []
    try:
        hits = [r for r in records if r.ok and r.report.cached][-HOP_SAMPLES:]
        for i, record in enumerate(hits):
            owner = direct[ring.owner(record.request.content_hash())]
            pair, cached = {}, True
            order = [("direct", owner), ("router", router_client)]
            for name, client in order[::-1] if i % 2 else order:
                start = time.perf_counter()
                frame = await client.submit(record.request, decode=False)
                pair[name] = time.perf_counter() - start
                cached = cached and bool(frame["report"].get("cached"))
            if cached:
                samples.append(pair["router"] - pair["direct"])
    finally:
        for client in direct.values():
            await client.close()
    return median(samples) * 1e3 if samples else 0.0


async def _run(seed: int, seconds: float, trace: bool, toy: bool):
    setups = []
    for _ in range(0 if trace or toy else 2):
        with ProcessGroup() as group:
            *_, client, took = await _ready(group)
            setups.append(took)
            await client.close()
    with ProcessGroup() as group:
        shards, router, first, took = await _ready(group)
        setups.append(took)
        clients = [first, await tcp.connect(router.port)]
        try:
            if trace:
                return await _traced(seed, seconds, shards, clients)
            items = fleet_churn_sequence(seed, SEQUENCE)
            records = await tcp.closed_loop(clients, items, DEPTH, seconds, False)
            rss = group.peak_rss_mb()
        finally:
            for client in clients:
                await client.close()
    gate.check(records)
    summary = sliced_summary(records, time_slices(records))
    metrics = {
        **summary,
        "slo_rps": summary["goodput_rps"],
        **quality(r.report for r in records[:QUALITY_PREFIX]),
        "rss_peak_mb": rss,
        "setup_s": median(setups),
    }
    return metrics, records


async def _traced(seed, seconds, shards, clients):
    untraced = await tcp.closed_loop(
        clients, fleet_churn_sequence(seed, SEQUENCE, part=1), DEPTH, seconds / 2, False
    )
    before = await clients[0].fleet_stats()
    records = await tcp.closed_loop(
        clients, fleet_churn_sequence(seed, SEQUENCE, part=2), DEPTH, seconds, True
    )
    after = await clients[0].fleet_stats()
    gate.check(records)
    hop = await _hop_ms(shards, clients[0], records)
    layers.replay_window(records)
    totals_before, totals_after = shard_totals(before), shard_totals(after)
    metrics = breakdown(
        records,
        tcp=True,
        cache_counts=model_cache_delta(totals_before, totals_after),
        service=service_rates(totals_before, totals_after),
        router={"hop_ms": hop, "failovers": float(after["router"]["failovers"])},
        new_networks=sum(1 for r in records if not r.tags["repeat"]),
        untraced_p50_s=median(r.latency for r in untraced),
    )
    return metrics, records


def run(seed: int, seconds: float, trace: bool, toy: bool):
    return asyncio.run(_run(seed, seconds, trace, toy))
