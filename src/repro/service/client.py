"""Clients for the scheduling service's JSONL-over-TCP protocol.

:class:`AsyncServiceClient` is the native asyncio client: it pipelines
any number of concurrent submits over one connection, correlates the
responses by frame id, and hands back decoded
:class:`~repro.api.SolveReport` objects (or raw frames, for callers that
only need the wire payload).

:class:`ServiceClient` is the synchronous wrapper for scripts and the
CLI: it runs an event loop on a background thread and exposes blocking
``submit`` / ``submit_many`` / ``stats`` / ``metrics_text`` / ``ping``
calls.

Connection loss is survivable: a client built by :meth:`connect` knows
its address, so after the read loop dies it re-dials on the next call
(pending calls at the moment of loss fail with the typed, retryable
:class:`~repro.errors.ServiceConnectionError` — the solves are
deduplicated by content hash server-side, so resubmitting is safe).
With a :class:`~repro.service.fleet.RetryPolicy` attached, the re-dial
and the resubmission happen transparently, and ``ServiceBusyError``
answers are retried honouring the server's ``retry_after_s`` hint
before exponential backoff.

Answer provenance survives decoding: a report served from the service's
answer cache arrives with ``report.cached`` set (and ``"cached": true``
in the raw frame), so a client can distinguish a memory answer from a
fresh solve.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncIterator,
    Callable,
    Iterator,
    Sequence,
)

if TYPE_CHECKING:  # imported lazily: fleet.router imports this module
    from .fleet.retry import RetryPolicy

from ..api.request import ScheduleRequest, SolveReport, report_from_dict
from ..errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
    ServiceClosedError,
    ServiceConnectionError,
    ServiceError,
)
from .protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    fleet_stats_frame,
    metrics_frame,
    ping_frame,
    stats_frame,
    submit_frame,
)

#: Error-frame types raised back as their specific client-side class.
_ERROR_CLASSES = {
    "ServiceBusyError": ServiceBusyError,
    "ServiceClosedError": ServiceClosedError,
    "ServiceConnectionError": ServiceConnectionError,
    "ProtocolError": ProtocolError,
}


def _raise_error_frame(frame: dict[str, Any]) -> None:
    error_type = frame.get("error_type") or "ServiceError"
    message = frame.get("error") or "unknown service error"
    cls = _ERROR_CLASSES.get(error_type, ServiceError)
    if cls is ServiceBusyError:
        # Reconstitute the server's backoff hint so a RetryPolicy can
        # honour it client-side.
        raise ServiceBusyError(message, retry_after_s=frame.get("retry_after_s"))
    if (
        cls is ServiceError
        and error_type != "ServiceError"
        and not message.startswith(f"{error_type}:")
    ):
        # Solver-side failures keep their origin visible (worker
        # outcomes already embed it; don't prefix twice).
        message = f"{error_type}: {message}"
    raise cls(message)


class AsyncServiceClient:
    """Pipelined asyncio client over one service connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        host: str | None = None,
        port: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._retry_policy = retry_policy
        self._write_lock = asyncio.Lock()
        self._reconnect_lock = asyncio.Lock()
        self._pending: dict[str, asyncio.Future] = {}
        #: Watch queues by frame id: push frames land here instead of a
        #: pending future; the terminal frame (or an exception on
        #: connection loss) ends the subscription.
        self._subscriptions: "dict[str, asyncio.Queue[Any]]" = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._attach(reader, writer)

    def _attach(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._connection_lost = False
        self._read_task = asyncio.ensure_future(self._read_loop(reader))

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        retry_policy: RetryPolicy | None = None,
    ) -> "AsyncServiceClient":
        """Open a connection to a running ``repro serve`` (or router).

        With a *retry_policy*, refused dials are retried with backoff
        before giving up; the policy stays attached and also governs
        reconnects and transient-error retries on later calls.
        """
        reader, writer = await cls._dial(host, port, retry_policy)
        return cls(
            reader, writer, host=host, port=port, retry_policy=retry_policy
        )

    @staticmethod
    async def _dial(
        host: str, port: int, retry_policy: RetryPolicy | None
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        attempt = 0
        while True:
            attempt += 1
            try:
                return await asyncio.open_connection(
                    host, port, limit=MAX_FRAME_BYTES
                )
            except OSError as exc:
                if retry_policy is None or not retry_policy.should_retry(
                    attempt
                ):
                    raise ServiceConnectionError(
                        f"cannot connect to scheduling service at "
                        f"{host}:{port}: {exc}"
                    ) from exc
                await retry_policy.pause(attempt)

    @property
    def connection_lost(self) -> bool:
        """True when the read loop has died (the next call re-dials)."""
        return self._connection_lost

    async def reconnect(self) -> None:
        """Re-dial after connection loss; re-entrant and idempotent.

        Concurrent callers serialise on a lock; whoever arrives after
        the connection is live again returns immediately.  Only clients
        built by :meth:`connect` know their address — a client wrapped
        around raw streams cannot re-dial.
        """
        if self._closed:
            raise ServiceConnectionError("client is closed")
        if self._host is None or self._port is None:
            raise ServiceConnectionError(
                "client was built from raw streams and cannot reconnect"
            )
        async with self._reconnect_lock:
            if self._closed:
                raise ServiceConnectionError("client is closed")
            if not self._connection_lost:
                return
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            reader, writer = await self._dial(
                self._host, self._port, self._retry_policy
            )
            self._attach(reader, writer)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError:
                    continue  # tolerate garbage; pending ids still time out
                frame_id = frame.get("id")
                frame_type = frame.get("type")
                if frame_type == "progress" or frame_type == "event":
                    # Server push: route to the watch subscription; a
                    # push for an unknown id is dropped (its watcher
                    # already finished or errored out).
                    subscription = self._subscriptions.get(frame_id)
                    if subscription is not None:
                        subscription.put_nowait(frame)
                    continue
                subscription = self._subscriptions.pop(frame_id, None)
                if subscription is not None:
                    # Terminal report/error frame of a watch.
                    subscription.put_nowait(frame)
                    continue
                future = self._pending.pop(frame_id, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        # ValueError: an oversized line (StreamReader converts
        # LimitOverrunError); the stream cannot be resynchronised.
        except (ConnectionResetError, asyncio.CancelledError, OSError, ValueError):
            pass
        finally:
            # Flag first, then fail: _roundtrip re-checks the flag
            # after registering its future, so no future can slip in
            # behind this sweep and hang forever.
            self._connection_lost = True
            self._fail_pending(
                ServiceConnectionError("connection to the service closed")
            )

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()
        for subscription in self._subscriptions.values():
            subscription.put_nowait(exc)
        self._subscriptions.clear()

    async def _roundtrip(self, frame: dict[str, Any]) -> dict[str, Any]:
        if self._closed:
            raise ServiceError("client is closed")
        if self._connection_lost:
            raise ServiceConnectionError("connection to the service closed")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[frame["id"]] = future
        if self._connection_lost:
            # Lost between the check and the registration: the read
            # loop's sweep may have missed this future — a write to a
            # dead transport can buffer silently, which would leave
            # the caller awaiting forever.
            self._pending.pop(frame["id"], None)
            raise ServiceConnectionError("connection to the service closed")
        async with self._write_lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
        return await future

    async def _request(
        self,
        build: Callable[[str], dict[str, Any]],
        busy_retry: bool = False,
    ) -> dict[str, Any]:
        """One request-response exchange, with reconnect and retries.

        *build* maps a fresh frame id to the request frame (a new id
        per attempt — the failed attempt's id died with its future).
        Connection loss triggers a re-dial; with a retry policy it is
        retried with backoff, and with ``busy_retry`` so are
        ``ServiceBusyError`` answers (honouring ``retry_after_s``).
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                if self._connection_lost and not self._closed:
                    await self.reconnect()
                response = await self._roundtrip(build(f"r{next(self._ids)}"))
            except ServiceConnectionError:
                if (
                    self._closed
                    or self._retry_policy is None
                    or not self._retry_policy.should_retry(attempt)
                ):
                    raise
                await self._retry_policy.pause(attempt)
                continue
            if (
                busy_retry
                and response["type"] == "error"
                and response.get("error_type") == "ServiceBusyError"
                and self._retry_policy is not None
                and self._retry_policy.should_retry(attempt)
            ):
                await self._retry_policy.pause(
                    attempt, retry_after_s=response.get("retry_after_s")
                )
                continue
            return response

    # -- calls -------------------------------------------------------------------------

    async def submit_raw(
        self,
        request: ScheduleRequest,
        *,
        timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """Submit and return the raw response frame — report *or* error.

        Error frames are returned, not raised, so a relay (the fleet
        router) can forward them with full wire fidelity (``retryable``,
        ``retry_after_s``, ``request_hash`` intact).  Connection loss
        still raises :class:`~repro.errors.ServiceConnectionError`
        after the retry policy is exhausted.
        """
        return await self._request(
            lambda frame_id: submit_frame(frame_id, request, timeout_s=timeout_s),
            busy_retry=True,
        )

    async def submit(
        self,
        request: ScheduleRequest,
        *,
        timeout_s: float | None = None,
        decode: bool = True,
    ) -> SolveReport | dict[str, Any]:
        """Submit one request and await its answer.

        Returns the decoded report (schedule revalidated against the
        SoC its request describes) or, with ``decode=False``, the raw
        report frame.
        Error frames raise: :class:`~repro.errors.ServiceBusyError` /
        :class:`~repro.errors.ServiceClosedError` /
        :class:`~repro.errors.ProtocolError` for their own kinds,
        :class:`~repro.errors.ServiceConnectionError` for a lost
        connection, :class:`~repro.errors.ServiceError` for solve
        failures.  Resubmitting after a connection error is always
        safe — solves are deduplicated by content hash server-side.
        """
        response = await self.submit_raw(request, timeout_s=timeout_s)
        if response["type"] == "error":
            _raise_error_frame(response)
        if response["type"] != "report":
            raise ProtocolError(
                f"expected a report frame, got {response['type']!r}"
            )
        return report_from_dict(response["report"]) if decode else response

    async def submit_many(
        self,
        requests: Sequence[ScheduleRequest],
        *,
        timeout_s: float | None = None,
        decode: bool = True,
        return_errors: bool = False,
    ) -> list[Any]:
        """Pipeline a whole burst; results in submission order.

        With ``return_errors=True`` failed submissions yield their
        exception object in place of a report instead of raising (so
        one infeasible request does not hide the other answers).
        """
        tasks = [
            asyncio.ensure_future(
                self.submit(request, timeout_s=timeout_s, decode=decode)
            )
            for request in requests
        ]
        results = await asyncio.gather(*tasks, return_exceptions=return_errors)
        return list(results)

    async def stream(
        self,
        requests: Sequence[ScheduleRequest],
        *,
        timeout_s: float | None = None,
        decode: bool = True,
    ) -> AsyncIterator[tuple[int, Any]]:
        """Pipeline a burst and yield ``(index, result)`` as answers land.

        Failures yield the exception object (stream order is completion
        order, so raising would abandon later answers).
        """

        async def _indexed(index: int, request: ScheduleRequest):
            try:
                return index, await self.submit(
                    request, timeout_s=timeout_s, decode=decode
                )
            # ReproError, not just ServiceError: decode=True can raise
            # RequestError (schema drift, provenance mismatch) from
            # report_from_dict, and that too must not abandon the
            # other in-flight answers.
            except ReproError as exc:
                return index, exc

        tasks = [
            asyncio.ensure_future(_indexed(i, request))
            for i, request in enumerate(requests)
        ]
        for completed in asyncio.as_completed(tasks):
            yield await completed

    async def watch(
        self,
        request: ScheduleRequest,
        *,
        timeout_s: float | None = None,
    ) -> AsyncIterator[dict[str, Any]]:
        """Submit with streaming and yield every frame of the watch.

        Yields raw frames in server order: ``progress`` (queued /
        running), ``event`` (the reactive executor's timeline, one
        frame per throttle / pause / reorder / session boundary), and
        finally the ordinary terminal ``report`` or ``error`` frame —
        after which the iterator ends.  Each push frame carries a
        per-watch monotonically increasing ``seq``.

        Connection loss mid-watch raises
        :class:`~repro.errors.ServiceConnectionError`; a watch is never
        auto-retried (re-submitting replays the whole timeline — the
        caller must opt into that).
        """
        if self._closed:
            raise ServiceError("client is closed")
        if self._connection_lost:
            await self.reconnect()
        frame_id = f"w{next(self._ids)}"
        queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._subscriptions[frame_id] = queue
        if self._connection_lost:
            # Lost between the check and the registration (same race
            # as _roundtrip): the read loop's sweep may have missed
            # this subscription.
            self._subscriptions.pop(frame_id, None)
            raise ServiceConnectionError("connection to the service closed")
        try:
            frame = submit_frame(
                frame_id, request, timeout_s=timeout_s, stream=True
            )
            async with self._write_lock:
                self._writer.write(encode_frame(frame))
                await self._writer.drain()
            while True:
                received = await queue.get()
                if isinstance(received, Exception):
                    raise received
                frame_type = received.get("type")
                if frame_type == "progress" or frame_type == "event":
                    yield received
                    continue
                yield received  # terminal report/error ends the watch
                return
        finally:
            self._subscriptions.pop(frame_id, None)

    async def stats(self) -> dict[str, Any]:
        """The service's current metrics snapshot."""
        response = await self._request(stats_frame)
        if response["type"] == "error":
            _raise_error_frame(response)
        return response["stats"]

    async def fleet_stats(self) -> dict[str, Any]:
        """Fleet-level stats: per-shard health and an aggregate.

        Against a router: every shard's health record and stats plus
        the summed fleet counters.  Against a plain server: the same
        shape as a healthy fleet of one.
        """
        response = await self._request(fleet_stats_frame)
        if response["type"] == "error":
            _raise_error_frame(response)
        return response["fleet"]

    async def metrics_text(self) -> str:
        """The service's telemetry as Prometheus text exposition."""
        response = await self._request(metrics_frame)
        if response["type"] == "error":
            _raise_error_frame(response)
        if response["type"] != "metrics":
            raise ProtocolError(
                f"expected a metrics frame, got {response['type']!r}"
            )
        return response["text"]

    async def ping(self) -> float:
        """Round-trip a ping; returns the latency in seconds."""
        start = time.perf_counter()
        response = await self._request(ping_frame)
        if response["type"] != "pong":
            raise ProtocolError(f"expected pong, got {response['type']!r}")
        return time.perf_counter() - start

    async def close(self) -> None:
        """Close the connection; pending calls fail."""
        if self._closed:
            return
        self._closed = True
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class ServiceClient:
    """Blocking client: an event loop on a background thread.

    Usage::

        with ServiceClient(port=7788) as client:
            report = client.submit(ScheduleRequest(soc="alpha15", ...))

    Every call is thread-safe; concurrent submits from several threads
    pipeline over the single connection.  An optional
    :class:`~repro.service.fleet.RetryPolicy` gives every call the
    async client's reconnect/backoff behaviour.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        connect_timeout_s: float = 30.0,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-client",
            daemon=True,
        )
        self._thread.start()
        try:
            self._client: AsyncServiceClient = self._call(
                AsyncServiceClient.connect(
                    host, port, retry_policy=retry_policy
                ),
                timeout=connect_timeout_s,
            )
        except BaseException:
            self._shutdown_loop()
            raise

    def _call(self, coro, timeout: float | None = None):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def _shutdown_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def submit(
        self,
        request: ScheduleRequest,
        *,
        timeout_s: float | None = None,
        decode: bool = True,
    ) -> SolveReport | dict[str, Any]:
        """Blocking :meth:`AsyncServiceClient.submit`."""
        return self._call(
            self._client.submit(request, timeout_s=timeout_s, decode=decode)
        )

    def submit_many(
        self,
        requests: Sequence[ScheduleRequest],
        *,
        timeout_s: float | None = None,
        decode: bool = True,
        return_errors: bool = False,
    ) -> list[Any]:
        """Blocking :meth:`AsyncServiceClient.submit_many`."""
        return self._call(
            self._client.submit_many(
                requests,
                timeout_s=timeout_s,
                decode=decode,
                return_errors=return_errors,
            )
        )

    def watch(
        self,
        request: ScheduleRequest,
        *,
        timeout_s: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Blocking :meth:`AsyncServiceClient.watch`: yields raw frames.

        Pumps the async generator one frame at a time over the
        background loop, so frames arrive as the server pushes them —
        not batched at the end.
        """
        watcher = self._client.watch(request, timeout_s=timeout_s)
        while True:
            try:
                frame = self._call(watcher.__anext__())
            except StopAsyncIteration:
                return
            yield frame

    def stats(self) -> dict[str, Any]:
        """Blocking :meth:`AsyncServiceClient.stats`."""
        return self._call(self._client.stats())

    def fleet_stats(self) -> dict[str, Any]:
        """Blocking :meth:`AsyncServiceClient.fleet_stats`."""
        return self._call(self._client.fleet_stats())

    def metrics_text(self) -> str:
        """Blocking :meth:`AsyncServiceClient.metrics_text`."""
        return self._call(self._client.metrics_text())

    def ping(self) -> float:
        """Blocking :meth:`AsyncServiceClient.ping`."""
        return self._call(self._client.ping())

    def close(self) -> None:
        """Close the connection and stop the background loop."""
        try:
            self._call(self._client.close(), timeout=10.0)
        finally:
            self._shutdown_loop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
