"""The fleet router: one JSONL endpoint in front of N shards.

:class:`FleetRouter` is a :class:`~repro.service.endpoint.FrameEndpoint`
like :class:`~repro.service.server.ScheduleServer` — one connection
loop, one frame decoder, one ``send`` — and makes a fleet of
``repro serve`` shards look like one big service:

* **submit** routes by the request's
  :meth:`~repro.api.ScheduleRequest.content_hash` over the
  :class:`~repro.service.fleet.ring.HashRing` — every identical request
  lands on the same shard, so N private answer caches behave as one
  fleet-wide dedup cache.  When the owner is down (connection refused,
  reset, or its circuit breaker open) the request **fails over** along
  the key's ring preference; only when every shard is dark does the
  client get an honest ``error`` frame with ``retryable: true``.
* **stats** fans out to every reachable shard and answers one summed
  fleet-level payload; **fleet_stats** adds the per-shard breakdown
  and health records; **metrics** renders the router's own telemetry
  (per-shard health/breaker gauges, routing counters) as Prometheus
  text.

Each shard gets one pipelined
:class:`~repro.service.client.AsyncServiceClient` as its connection
pool, carrying the router's shared
:class:`~repro.service.fleet.retry.RetryPolicy` — a transient blip is
retried on the owner before failover steals its cache affinity.  A
background probe loop pings every shard on an injectable schedule and
feeds the per-shard :class:`~repro.service.fleet.health.ShardHealth`,
so a SIGKILLed shard is discovered even while no traffic flows, and a
relaunched one is readmitted through the breaker's half-open probation.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Sequence

from ...errors import ProtocolError, ServiceConnectionError, ServiceError
from ...obs.prometheus import (
    MetricFamily,
    counter_family,
    gauge_family,
    info_family,
    render_families,
)
from ..client import AsyncServiceClient
from ..endpoint import FrameConnection, FrameEndpoint
from ..protocol import DEFAULT_ROUTER_PORT, error_frame, parse_submit_frame
from .health import ShardHealth
from .retry import RetryPolicy
from .ring import HashRing
from .stats import aggregate_fleet_stats

__all__ = ["DEFAULT_ROUTER_PORT", "FleetRouter", "parse_shard"]

#: Error-frame types from a shard that mean "this shard cannot take the
#: request, another one can" — the router fails over instead of
#: relaying them.  Busy is deliberately absent: a busy shard is *alive*
#: and sheds load by design; bouncing its keys to a neighbour would
#: both dodge the backpressure and scatter its cache affinity.
FAILOVER_ERROR_TYPES = frozenset({"ServiceClosedError"})


def parse_shard(spec: str) -> tuple[str, int]:
    """Split a ``host:port`` shard spec (bare port means localhost)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", spec
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(
            f"bad shard spec {spec!r}; expected host:port"
        ) from None
    if not 0 < port < 65536:
        raise ServiceError(f"bad shard port in {spec!r}")
    return host or "127.0.0.1", port


class FleetRouter(FrameEndpoint):
    """Consistent-hash routing front end over a fleet of shards.

    Parameters
    ----------
    shards:
        ``host:port`` specs of the ``repro serve`` processes.
    host, port:
        Front bind address; ``port=0`` picks a free port.
    replicas:
        Virtual-node points per shard on the hash ring.
    retry_policy:
        Shared policy for shard dials and transient-error retries; the
        default retries once, fast — the ring's failover is the real
        redundancy, backoff is for blips.
    probe_interval_s:
        Period of the background ping probe (``None`` disables it;
        tests drive :meth:`probe_once` by hand instead).
    probe_timeout_s:
        Per-probe deadline — a blackholed shard must fail the probe,
        not hang it.
    failure_threshold, cooldown_s, recovery_threshold:
        Per-shard circuit-breaker knobs
        (:class:`~repro.service.fleet.health.CircuitBreaker`).
    clock, sleep:
        Injectable time sources for the breakers and the probe loop.
    """

    def __init__(
        self,
        shards: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 128,
        retry_policy: RetryPolicy | None = None,
        probe_interval_s: float | None = 1.0,
        probe_timeout_s: float = 2.0,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        recovery_threshold: int = 2,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], Awaitable[Any]] | None = None,
    ) -> None:
        super().__init__(host, port)
        if not shards:
            raise ServiceError("a fleet needs at least one shard")
        names = [f"{h}:{p}" for h, p in (parse_shard(s) for s in shards)]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate shard specs in {list(shards)!r}")
        self._ring = HashRing(names, replicas=replicas)
        self._health = {
            name: ShardHealth(
                name,
                failure_threshold=failure_threshold,
                cooldown_s=cooldown_s,
                recovery_threshold=recovery_threshold,
                clock=clock,
            )
            for name in names
        }
        self._clients: dict[str, AsyncServiceClient] = {}
        self._client_locks = {name: asyncio.Lock() for name in names}
        self._retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=2, base_delay_s=0.05, max_delay_s=0.5)
        )
        if probe_interval_s is not None and probe_interval_s <= 0.0:
            raise ServiceError(
                f"probe_interval_s must be positive, got {probe_interval_s!r}"
            )
        self._probe_interval_s = probe_interval_s
        self._probe_timeout_s = probe_timeout_s
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._probe_task: asyncio.Task | None = None
        self._started_at = 0.0

        self._submits = 0  # guarded-by: event-loop
        self._routed = 0  # guarded-by: event-loop
        self._failovers = 0  # guarded-by: event-loop
        self._relayed_errors = 0  # guarded-by: event-loop
        self._unrouted = 0  # guarded-by: event-loop

    # -- properties --------------------------------------------------------------------

    @property
    def ring(self) -> HashRing:
        """The routing ring (shard names are ``host:port``)."""
        return self._ring

    @property
    def shards(self) -> tuple[str, ...]:
        """Shard names in deterministic order."""
        return tuple(sorted(self._health))

    def health(self, shard: str) -> ShardHealth:
        """The health record of *shard* (``host:port``)."""
        return self._health[shard]

    def describe_config(self) -> str:
        """One-line static configuration (the route banner's body)."""
        return (
            f"{len(self._health)} shards ({', '.join(self.shards)}), "
            f"{self._ring.replicas} ring replicas, "
            f"retry x{self._retry_policy.max_attempts}"
        )

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the front port and start the probe loop."""
        await super().start()
        self._started_at = time.perf_counter()
        if self._probe_interval_s is not None:
            self._probe_task = asyncio.create_task(self._probe_loop())

    async def stop(self) -> None:
        """Close the front port, the probe loop and every shard client."""
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        await super().stop()
        for client in self._clients.values():
            await client.close()
        self._clients.clear()

    # -- shard connections and probes --------------------------------------------------

    async def _client(self, shard: str) -> AsyncServiceClient:
        """The shard's pooled client, dialled on first use.

        Serialised per shard so concurrent requests share one pipelined
        connection instead of racing to create several.
        """
        async with self._client_locks[shard]:
            client = self._clients.get(shard)
            if client is None:
                host, port = parse_shard(shard)
                client = await AsyncServiceClient.connect(
                    host, port, retry_policy=self._retry_policy
                )
                self._clients[shard] = client
            return client

    async def probe_once(self) -> None:
        """Ping every shard once and record the outcomes.

        Public so tests (and operators) can force a health sweep
        deterministically instead of waiting for the probe period.
        """
        await asyncio.gather(
            *(self._probe_shard(shard) for shard in self._health)
        )

    async def _probe_shard(self, shard: str) -> None:
        health = self._health[shard]
        try:
            client = await self._client(shard)
            await asyncio.wait_for(client.ping(), self._probe_timeout_s)
        except (ServiceError, OSError, asyncio.TimeoutError) as exc:
            health.record_probe(False, f"{type(exc).__name__}: {exc}")
        else:
            health.record_probe(True)

    async def _probe_loop(self) -> None:
        assert self._probe_interval_s is not None
        while True:
            await self._sleep(self._probe_interval_s)
            await self.probe_once()

    # -- frame dispatch ----------------------------------------------------------------

    async def _handle_frame(
        self, frame: dict[str, Any], connection: FrameConnection
    ) -> None:
        frame_id = frame.get("id")
        frame_type = frame["type"]
        if frame_type == "ping":
            # The router's own liveness, not a fan-out: a load balancer
            # probing the fleet endpoint asks about *this* process.
            await connection.send({"type": "pong", "id": frame_id})
        elif frame_type == "stats":
            connection.spawn(self._answer_stats(frame_id, connection))
        elif frame_type == "fleet_stats":
            connection.spawn(self._answer_fleet_stats(frame_id, connection))
        elif frame_type == "metrics":
            await connection.send(
                {"type": "metrics", "id": frame_id, "text": self.metrics_text()}
            )
        elif frame_type == "submit":
            await self._handle_submit(frame, frame_id, connection)

    # -- submit routing ----------------------------------------------------------------

    async def _handle_submit(
        self, frame: dict[str, Any], frame_id: Any, connection: FrameConnection
    ) -> None:
        try:
            request, timeout_s, stream = parse_submit_frame(frame)
        except ProtocolError as exc:
            await connection.send(
                error_frame(frame_id, str(exc), "ProtocolError")
            )
            return
        # One task per submit: the shard roundtrip must not stall this
        # connection's read loop, or pipelining dies at the router.
        connection.spawn(
            self._route_submit(request, timeout_s, stream, frame_id, connection)
        )

    async def _route_submit(
        self,
        request,
        timeout_s: float | None,
        stream: bool,
        frame_id: Any,
        connection: FrameConnection,
    ) -> None:
        self._submits += 1
        key = request.content_hash()
        attempts: list[str] = []
        for position, shard in enumerate(self._ring.preference(key)):
            health = self._health[shard]
            if not health.breaker.allows():
                attempts.append(f"{shard}: circuit breaker open")
                continue
            if position:
                # Any attempt past ring position 0 moved off the owner —
                # whether the owner failed when tried or was skipped
                # outright by its open breaker.
                self._failovers += 1
            try:
                client = await self._client(shard)
            except (ServiceConnectionError, OSError) as exc:
                health.record_failure(str(exc))
                attempts.append(f"{shard}: {exc}")
                continue
            if stream:
                status, detail = await self._relay_watch(
                    client, request, timeout_s, frame_id, connection
                )
                if status == "failover":
                    health.record_failure(detail)
                    attempts.append(f"{shard}: {detail}")
                    continue
                if status == "lost":
                    # Push frames already reached the client; failing
                    # over would replay the timeline from scratch, so
                    # the watch ended with an error frame instead.
                    health.record_failure(detail)
                    self._routed += 1
                    self._relayed_errors += 1
                    return
                health.record_success()
                self._routed += 1
                if status == "relayed_error":
                    self._relayed_errors += 1
                return
            try:
                response = await client.submit_raw(request, timeout_s=timeout_s)
            except (ServiceConnectionError, OSError) as exc:
                health.record_failure(str(exc))
                attempts.append(f"{shard}: {exc}")
                continue
            if (
                response.get("type") == "error"
                and response.get("error_type") in FAILOVER_ERROR_TYPES
            ):
                # The shard answered, but is draining: alive enough to
                # talk, not alive enough to take keys.
                health.record_failure(
                    f"{response.get('error_type')}: {response.get('error')}"
                )
                attempts.append(f"{shard}: {response.get('error')}")
                continue
            health.record_success()
            self._routed += 1
            if response.get("type") == "error":
                self._relayed_errors += 1
            relayed = dict(response)
            relayed["id"] = frame_id
            # A client gone away drops the answer; the shard's solve
            # still counts.
            await connection.send(relayed)
            return
        # Whole ring dark (or every reachable shard draining).
        self._unrouted += 1
        detail = "; ".join(attempts) if attempts else "no shards tried"
        await connection.send(
            error_frame(
                frame_id,
                f"no healthy shard for this request "
                f"({len(self._health)} in ring): {detail}",
                "ServiceConnectionError",
                request_hash=key,
                retryable=True,
            )
        )

    async def _relay_watch(
        self,
        client: AsyncServiceClient,
        request,
        timeout_s: float | None,
        frame_id: Any,
        connection: FrameConnection,
    ) -> tuple[str, str]:
        """Relay one shard watch to the front client, id rewritten.

        Returns ``(status, detail)``:

        * ``("failover", why)`` — the shard refused before any frame
          was relayed; the ring may still try the next shard.
        * ``("lost", why)`` — the shard connection died mid-stream;
          an error frame already ended the client's watch (replaying
          the timeline on another shard is the *client's* choice).
        * ``("relayed_error", "")`` / ``("done", "")`` — a terminal
          error/report frame was relayed; the watch is over.
        """
        relayed_any = False
        status = "done"
        try:
            async for shard_frame in client.watch(
                request, timeout_s=timeout_s
            ):
                shard_type = shard_frame.get("type")
                if shard_type == "error":
                    if (
                        not relayed_any
                        and shard_frame.get("error_type")
                        in FAILOVER_ERROR_TYPES
                    ):
                        return (
                            "failover",
                            f"{shard_frame.get('error_type')}: "
                            f"{shard_frame.get('error')}",
                        )
                    status = "relayed_error"
                relayed = dict(shard_frame)
                relayed["id"] = frame_id
                if not await connection.send(relayed):
                    # Front client went away; the shard's solve (and
                    # its archive record) still count.
                    return "done", ""
                relayed_any = True
        except (ServiceConnectionError, OSError) as exc:
            if not relayed_any:
                return "failover", str(exc)
            await connection.send(
                error_frame(
                    frame_id,
                    f"shard connection lost mid-watch: {exc}",
                    "ServiceConnectionError",
                    request_hash=request.content_hash(),
                    retryable=True,
                )
            )
            return "lost", str(exc)
        return status, ""

    # -- stats fan-out -----------------------------------------------------------------

    async def _shard_stats(self, shard: str) -> "dict[str, Any] | None":
        """One shard's stats payload, or ``None`` when unreachable."""
        health = self._health[shard]
        if not health.breaker.allows():
            return None
        try:
            client = await self._client(shard)
            stats = await asyncio.wait_for(
                client.stats(), self._probe_timeout_s
            )
        except (ServiceError, OSError, asyncio.TimeoutError) as exc:
            health.record_failure(f"{type(exc).__name__}: {exc}")
            return None
        health.record_success()
        return stats

    async def fleet_stats(self) -> dict[str, Any]:
        """The ``fleet`` payload: per-shard health+stats and aggregate."""
        names = self.shards
        all_stats = await asyncio.gather(
            *(self._shard_stats(name) for name in names)
        )
        shards = {}
        for name, stats in zip(names, all_stats):
            entry = self._health[name].to_dict()
            entry["stats"] = stats
            shards[name] = entry
        return aggregate_fleet_stats(shards, router=self.router_counters())

    def router_counters(self) -> dict[str, Any]:
        """The router's own counters (part of the fleet payload)."""
        uptime = (
            time.perf_counter() - self._started_at if self._started_at else 0.0
        )
        return {
            "submits": self._submits,
            "routed": self._routed,
            "failovers": self._failovers,
            "relayed_errors": self._relayed_errors,
            "unrouted": self._unrouted,
            "uptime_s": uptime,
        }

    async def _answer_stats(
        self, frame_id: Any, connection: FrameConnection
    ) -> None:
        fleet = await self.fleet_stats()
        payload = dict(fleet["aggregate"])
        payload["backend"] = "fleet"
        payload["shard_count"] = fleet["shard_count"]
        payload["healthy_shards"] = fleet["healthy_shards"]
        await connection.send({"type": "stats", "id": frame_id, "stats": payload})

    async def _answer_fleet_stats(
        self, frame_id: Any, connection: FrameConnection
    ) -> None:
        fleet = await self.fleet_stats()
        await connection.send(
            {"type": "fleet_stats", "id": frame_id, "fleet": fleet}
        )

    # -- router telemetry --------------------------------------------------------------

    def metrics_text(self) -> str:
        """The router's own telemetry as Prometheus text exposition."""
        counters = self.router_counters()
        families = [
            info_family(
                "repro_router",
                "Fleet router configuration.",
                {"shards": str(len(self._health))},
            ),
            counter_family(
                "repro_router_submits",
                "Submit frames accepted by the router.",
                counters["submits"],
            ),
            counter_family(
                "repro_router_routed",
                "Submits answered by a shard (reports and relayed errors).",
                counters["routed"],
            ),
            counter_family(
                "repro_router_failovers",
                "Times a submit moved past its owning shard on the ring.",
                counters["failovers"],
            ),
            counter_family(
                "repro_router_relayed_errors",
                "Shard error frames relayed to clients verbatim.",
                counters["relayed_errors"],
            ),
            counter_family(
                "repro_router_unrouted",
                "Submits refused because every shard was dark.",
                counters["unrouted"],
            ),
            gauge_family(
                "repro_router_uptime_s",
                "Seconds since the router started.",
                counters["uptime_s"],
            ),
        ]
        health = [self._health[name] for name in self.shards]
        families.append(
            MetricFamily(
                "repro_shard_healthy",
                "gauge",
                "Whether the router would currently route to the shard.",
                tuple(
                    ("", {"shard": h.name}, 1.0 if h.healthy else 0.0)
                    for h in health
                ),
            )
        )
        families.append(
            MetricFamily(
                "repro_shard_breaker_open",
                "gauge",
                "Whether the shard's circuit breaker is open.",
                tuple(
                    ("", {"shard": h.name}, 1.0 if h.breaker.state == "open" else 0.0)
                    for h in health
                ),
            )
        )
        families.append(
            MetricFamily(
                "repro_shard_probe_failures_total",
                "counter",
                "Failed ping probes per shard.",
                tuple(
                    ("", {"shard": h.name}, float(h.probe_failures))
                    for h in health
                ),
            )
        )
        return render_families(families)
