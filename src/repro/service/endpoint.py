"""The JSONL-over-TCP endpoint that ``repro serve`` and ``repro route`` share.

:class:`StreamEndpoint` owns the stream server itself: the bind, the
bound port, start, stop and ``async with``.  :class:`FrameEndpoint`
adds everything about serving the :mod:`~repro.service.protocol` frame
format that does not depend on who answers the frames.
:class:`~repro.service.server.ScheduleServer` and
:class:`~repro.service.fleet.router.FleetRouter` subclass it and only
answer decoded frames, so both treat the wire alike by construction;
:class:`~repro.service.fleet.faults.ChaosProxy` subclasses the stream
endpoint and forwards raw lines instead.
"""

from __future__ import annotations

import asyncio
from typing import Any, Coroutine, TypeVar

from ..errors import ProtocolError
from .protocol import (
    CLIENT_FRAME_TYPES,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
)

_Endpoint = TypeVar("_Endpoint", bound="StreamEndpoint")


class FrameConnection:
    """One accepted client connection, as its frame handlers see it.

    Pipelined answers resolve in completion order, from several tasks
    at once; one write lock keeps their frames from interleaving.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._pending: set[asyncio.Task[None]] = set()

    async def send(self, frame: dict[str, Any]) -> bool:
        """Write one frame; ``False`` when the client has gone away.

        Submits already admitted keep running (and archiving); a task
        that must stop streaming when its client leaves checks this.
        """
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(frame))
                await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return False
        return True

    def spawn(self, answer: Coroutine[Any, Any, None]) -> None:
        """Answer in a task of its own, awaited before the connection closes.

        The read loop must not wait on a solve or a shard round trip.
        """
        task = asyncio.create_task(answer)
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    async def close(self) -> None:
        """Let in-flight answers finish, then close the socket (a client
        that half-closed its side still wants its reports)."""
        if self._pending:
            await asyncio.gather(*self._pending, return_exceptions=True)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class StreamEndpoint:
    """An asyncio stream server on one bind address.

    It binds on :meth:`start` and closes on :meth:`stop` (or around
    ``async with``); every accepted connection goes to
    :meth:`_handle_connection`, whose reader takes lines up to
    ``MAX_FRAME_BYTES``, so any frame of the protocol fits.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The actually bound port (meaningful after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ProtocolError(f"{type(self).__name__} is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=MAX_FRAME_BYTES,
        )

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's main coroutine)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self: _Endpoint) -> _Endpoint:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one accepted connection until it ends."""
        raise NotImplementedError


class FrameEndpoint(StreamEndpoint):
    """A stream endpoint speaking the JSONL frame protocol.

    It reads and decodes frames and refuses server-side frame types; an
    oversized line or a reset drops only its connection.  Subclasses
    answer the decoded frames in :meth:`_handle_frame`.
    """

    async def _handle_frame(
        self, frame: dict[str, Any], connection: FrameConnection
    ) -> None:
        """Answer one decoded frame of a type in ``CLIENT_FRAME_TYPES``."""
        raise NotImplementedError

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = FrameConnection(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                # ValueError is how StreamReader surfaces an oversized
                # line (it converts LimitOverrunError): the frame
                # boundary is lost, so the connection cannot be
                # resynchronised — drop it cleanly.
                except (ConnectionResetError, ValueError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    await connection.send(
                        error_frame(None, str(exc), "ProtocolError")
                    )
                    continue
                frame_type = frame["type"]
                if frame_type not in CLIENT_FRAME_TYPES:
                    # A server-side frame type (report/error/...).
                    await connection.send(
                        error_frame(
                            frame.get("id"),
                            f"clients may not send {frame_type!r} frames",
                            "ProtocolError",
                        )
                    )
                    continue
                await self._handle_frame(frame, connection)
        finally:
            await connection.close()
