"""Deterministic fault injection: a seeded chaos TCP proxy.

:class:`ChaosProxy` sits between a client and a server (or between the
router and a shard) and injures the byte stream on purpose, under a
seeded :class:`FaultPlan`:

* **drop** — swallow a whole frame (the response never arrives);
* **delay** — hold a frame for ``delay_s`` before forwarding;
* **close mid-frame** — forward a prefix of a frame, then abort both
  sides (the victim sees a torn line and a reset, exactly like a
  SIGKILLed server);
* **blackhole** — accept the connection, forward nothing, answer
  nothing (the pathological hang case timeouts must beat).

Determinism is the whole point: faults fire from ``random.Random(seed)``
in stream order, and delays go through an injectable async sleeper, so
a chaos test replays identically on every run and never really sleeps.
The proxy's *front* port is stable across backend restarts — tests
point a client at the proxy once, then :meth:`~ChaosProxy.retarget` it
at a relaunched backend on a new port, or :meth:`~ChaosProxy.sever`
every live pipe to simulate the kill itself.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from ...errors import ServiceError
from ..endpoint import StreamEndpoint
from ..protocol import MAX_FRAME_BYTES


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault probabilities for one :class:`ChaosProxy`.

    Rates are per *forwarded frame* (server-to-client direction, where
    answers live), drawn in order from one ``random.Random(seed)``;
    ``close_rate`` is checked first, then ``drop_frame_rate``, then
    ``delay_rate``, all from a single draw per frame.
    """

    seed: int = 0
    drop_frame_rate: float = 0.0
    close_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.05
    blackhole: bool = False

    def __post_init__(self) -> None:
        for name in ("drop_frame_rate", "close_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ServiceError(
                    f"{name} must be within [0, 1], got {rate!r}"
                )
        if self.close_rate + self.drop_frame_rate + self.delay_rate > 1.0:
            raise ServiceError(
                "fault rates sum past 1.0; they are slices of one draw"
            )
        if self.delay_s < 0.0:
            raise ServiceError(f"delay_s must be >= 0, got {self.delay_s!r}")


class ChaosProxy(StreamEndpoint):
    """A retargetable TCP proxy that injects :class:`FaultPlan` faults.

    The front port is a :class:`~repro.service.endpoint.StreamEndpoint`
    (bind, :attr:`host`/:attr:`port`, start, stop, ``async with``);
    stopping it also severs every live pipe.

    Parameters
    ----------
    backend_host, backend_port:
        Where new connections are forwarded (changeable with
        :meth:`retarget` after a backend restart).
    plan:
        The seeded fault plan; the default plan injects nothing (a
        transparent proxy, useful as the severable link itself).
    host, port:
        Front bind address; ``port=0`` picks a free port.
    sleep:
        Async sleeper for delay faults; tests inject an instant one.
    """

    def __init__(
        self,
        backend_host: str,
        backend_port: int,
        plan: FaultPlan | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sleep: Callable[[float], Awaitable[Any]] | None = None,
    ) -> None:
        super().__init__(host, port)
        self._backend_host = backend_host
        self._backend_port = backend_port
        self.plan = plan if plan is not None else FaultPlan()
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._rng = random.Random(self.plan.seed)
        self._writers: set[asyncio.StreamWriter] = set()
        self._pumps: set[asyncio.Task] = set()
        # Observed fault tallies, for test assertions.
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.closes_injected = 0
        self.connections = 0

    @property
    def backend(self) -> tuple[str, int]:
        """Where new connections currently forward to."""
        return self._backend_host, self._backend_port

    async def stop(self) -> None:
        """Close the front port, then sever every live pipe."""
        await super().stop()
        self.sever()
        if self._pumps:
            await asyncio.gather(*tuple(self._pumps), return_exceptions=True)

    def retarget(self, host: str, port: int) -> None:
        """Point *new* connections at a different backend.

        Existing pipes keep flowing to the old one — combine with
        :meth:`sever` to model a restart on a new port.
        """
        self._backend_host = host
        self._backend_port = port

    def sever(self) -> None:
        """Abort every live pipe (both sides), like a yanked cable.

        Victims see a connection reset with no error frame — the same
        signature as a SIGKILLed server.
        """
        for writer in tuple(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()

    # -- internals ---------------------------------------------------------------------

    async def _handle_connection(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        self._writers.add(client_writer)
        if self.plan.blackhole:
            # Hold the connection open and consume nothing: the client
            # keeps waiting until it times out or we are severed.
            try:
                while await client_reader.read(65536):
                    pass
            except (ConnectionResetError, OSError):
                pass
            finally:
                self._writers.discard(client_writer)
                client_writer.transport.abort()
            return
        try:
            backend_reader, backend_writer = await asyncio.open_connection(
                self._backend_host, self._backend_port, limit=MAX_FRAME_BYTES
            )
        except OSError:
            self._writers.discard(client_writer)
            client_writer.transport.abort()
            return
        self._writers.add(backend_writer)
        up = asyncio.create_task(
            self._pump(client_reader, backend_writer, faulty=False)
        )
        down = asyncio.create_task(
            self._pump(backend_reader, client_writer, faulty=True)
        )
        for task in (up, down):
            self._pumps.add(task)
            task.add_done_callback(self._pumps.discard)
        await asyncio.gather(up, down, return_exceptions=True)
        for writer in (client_writer, backend_writer):
            self._writers.discard(writer)
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        faulty: bool,
    ) -> None:
        """Forward newline-framed lines, injecting faults when *faulty*."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if faulty and await self._inject(line, writer):
                    continue
                writer.write(line)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError, ValueError):
            pass
        finally:
            transport = writer.transport
            if transport is not None:
                transport.abort()
            self._writers.discard(writer)

    async def _inject(self, line: bytes, writer: asyncio.StreamWriter) -> bool:
        """Apply one frame's fault draw; True when the line was consumed."""
        plan = self.plan
        draw = self._rng.random()
        if draw < plan.close_rate:
            # Forward a torn prefix (no newline), then cut the pipe.
            self.closes_injected += 1
            writer.write(line[: max(1, len(line) // 2)])
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            raise ConnectionResetError("chaos proxy: injected mid-frame close")
        draw -= plan.close_rate
        if draw < plan.drop_frame_rate:
            self.frames_dropped += 1
            return True
        draw -= plan.drop_frame_rate
        if draw < plan.delay_rate:
            self.frames_delayed += 1
            await self._sleep(plan.delay_s)
        self.frames_forwarded += 1
        return False
