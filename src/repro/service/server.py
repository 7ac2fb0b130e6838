"""JSONL-over-TCP front end of the scheduling service.

:class:`ScheduleServer` is the :class:`~repro.service.endpoint.FrameEndpoint`
that answers frames from one local service: clients pipeline any number
of ``submit`` (plus ``stats``/``ping``) frames over one connection and
receive one response frame per submission, correlated by id, in
completion order.

Backpressure is end-to-end: a submit frame is only acknowledged into the
queue via the service's awaiting submit path, so when the queue is full
the handler stops reading the socket and the client's TCP window fills —
no unbounded buffering anywhere.  Two fast paths never touch the queue:
an answer-cache hit resolves immediately (its report frame carries
``"cached": true``), and a service configured with a shed watermark
answers over-watermark submits with a ``ServiceBusyError`` error frame
instead of queueing them.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..errors import ProtocolError, ReproError, ServiceError
from .endpoint import FrameConnection, FrameEndpoint
from .execution import SolveOutcome
from .fleet.health import ShardHealth
from .fleet.stats import aggregate_fleet_stats
from .protocol import (
    error_frame,
    event_frame,
    parse_submit_frame,
    progress_frame,
    report_frame,
)
from .service import ScheduleService, ServiceJob


def _exception_frame(
    frame_id: Any, exc: ReproError, request_hash: str
) -> dict[str, Any]:
    """The error frame answering a refused or abandoned submit.

    Carries the raising class's ``retryable`` flag and, on busy
    errors, its ``retry_after_s`` backoff hint.
    """
    return error_frame(
        frame_id,
        str(exc),
        type(exc).__name__,
        request_hash=request_hash,
        retryable=getattr(exc, "retryable", None),
        retry_after_s=getattr(exc, "retry_after_s", None),
    )


def _outcome_frame(
    frame_id: Any, outcome: SolveOutcome, request_hash: str
) -> dict[str, Any]:
    """The terminal report or error frame of a resolved solve."""
    if outcome.ok:
        assert outcome.report is not None
        return report_frame(frame_id, outcome.report)
    return error_frame(
        frame_id,
        outcome.error or "unknown error",
        outcome.error_type or "ServiceError",
        request_hash=request_hash,
    )


class ScheduleServer(FrameEndpoint):
    """TCP front end over a :class:`~repro.service.service.ScheduleService`.

    Parameters
    ----------
    service:
        The (already constructed) service; the server starts and stops
        only itself — the service's lifecycle belongs to the caller, so
        one service can sit behind several transports.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    """

    def __init__(
        self,
        service: ScheduleService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self._service = service

    @property
    def service(self) -> ScheduleService:
        """The service answering this server's submits."""
        return self._service

    async def _handle_frame(
        self, frame: dict[str, Any], connection: FrameConnection
    ) -> None:
        frame_id = frame.get("id")
        frame_type = frame["type"]
        if frame_type == "ping":
            await connection.send({"type": "pong", "id": frame_id})
        elif frame_type == "stats":
            await connection.send(
                {
                    "type": "stats",
                    "id": frame_id,
                    "stats": self._service.metrics().to_dict(),
                }
            )
        elif frame_type == "metrics":
            await connection.send(
                {
                    "type": "metrics",
                    "id": frame_id,
                    "text": self._service.metrics_text(),
                }
            )
        elif frame_type == "fleet_stats":
            # A plain server answers as a healthy fleet of one, so a
            # client can ask a shard and a router the same question.
            shard = ShardHealth(f"{self.host}:{self.port}").to_dict()
            shard["stats"] = self._service.metrics().to_dict()
            await connection.send(
                {
                    "type": "fleet_stats",
                    "id": frame_id,
                    "fleet": aggregate_fleet_stats({shard["name"]: shard}),
                }
            )
        elif frame_type == "submit":
            await self._handle_submit(frame, frame_id, connection)

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
        try:
            # Awaiting submit is the backpressure point: a full queue
            # pauses this connection's read loop.
            job = await self._service.submit(
                request, timeout_s=timeout_s, stream=stream
            )
        except ReproError as exc:
            await connection.send(
                _exception_frame(frame_id, exc, request.content_hash())
            )
            return
        if stream:
            # Subscribe before the first await: the reactive pump only
            # broadcasts via loop callbacks, so a queue attached here
            # (synchronously after submit returned) misses no event.
            events = job.subscribe()
            connection.spawn(
                self._stream_when_done(job, events, frame_id, connection)
            )
        else:
            connection.spawn(self._answer_when_done(job, frame_id, connection))

    async def _stream_when_done(
        self,
        job: ServiceJob,
        events: "asyncio.Queue[dict[str, Any] | None]",
        frame_id: Any,
        connection: FrameConnection,
    ) -> None:
        """Answer a streaming submit: push frames, then the terminal one.

        Wire order per watch: ``progress(queued)``, then — once the
        solve resolves ok — ``progress(running)`` and one ``event``
        frame per reactive-timeline event, and finally the ordinary
        report/error frame.  ``seq`` increases by one per push frame,
        so a client can assert it missed nothing.  A client that goes
        away ends the stream; the solve (and archive) still count.
        """
        seq = 0
        if not await connection.send(
            progress_frame(frame_id, "queued", seq=seq, request_hash=job.key)
        ):
            return
        seq += 1
        try:
            outcome = await job.outcome()
        except ServiceError as exc:
            await connection.send(_exception_frame(frame_id, exc, job.key))
            return
        if outcome.ok:
            if not await connection.send(
                progress_frame(
                    frame_id, "running", seq=seq, request_hash=job.key
                )
            ):
                return
            seq += 1
        # Drain the reactive timeline to its sentinel even on an
        # error outcome — the pump always terminates the queue.
        while True:
            event = await events.get()
            if event is None:
                break
            if not await connection.send(event_frame(frame_id, event, seq=seq)):
                return
            seq += 1
        await connection.send(_outcome_frame(frame_id, outcome, job.key))

    async def _answer_when_done(
        self, job: ServiceJob, frame_id: Any, connection: FrameConnection
    ) -> None:
        try:
            outcome = await job.outcome()
        # Any ServiceError, not just closed: a dedup-attached job whose
        # originating submission was cancelled resolves its waiters
        # with ServiceBusyError — the client must get an error frame
        # either way, or its submit would wait forever.
        except ServiceError as exc:
            frame = _exception_frame(frame_id, exc, job.key)
        else:
            frame = _outcome_frame(frame_id, outcome, job.key)
        await connection.send(frame)
