"""AsyncGraphClient: the asyncio-streams driver over a ClientSession.

Everything that is protocol — frames, request ids, response validation,
typed remote errors, watermarks, the retry decision, the typed op
surface — is :mod:`repro.net.session`, shared with the blocking
:class:`~repro.net.client.GraphClient`; this module only moves bytes
between asyncio streams and the session, so one event loop can hold many
server connections (the natural shape for an async application embedding
the serving tier, or for tests exercising true concurrency against one
server).  Every op of the sync client's typed surface is here under the
same name; only the ``await`` differs.
"""

from __future__ import annotations

import asyncio

from repro.errors import ProtocolError, ReproError
from repro.net.frames import supported_codecs
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.session import SessionClient


class AsyncGraphClient(SessionClient):
    """One asyncio connection to a :class:`~repro.net.server.GraphServer`."""

    _reader: asyncio.StreamReader | None = None
    _writer: asyncio.StreamWriter | None = None

    # ------------------------------------------------------------------ #
    # connection lifecycle
    # ------------------------------------------------------------------ #
    async def connect(self) -> "AsyncGraphClient":
        if self._writer is not None:
            return self
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)
        except (asyncio.TimeoutError, OSError) as exc:
            await self._unavailable(f"connect failed: {exc!r}", exc)
        hello = await self._roundtrip("hello", {
            "proto": PROTOCOL_VERSION, "codecs": supported_codecs()})
        self.session.codec = hello["codec"]
        return self

    async def _unavailable(self, message: str,
                           cause: BaseException | None = None):
        """Close and raise a retryable ``UNAVAILABLE`` transport error."""
        await self.close()
        raise self.session.unavailable(
            f"{self.host}:{self.port}: {message}") from cause

    async def close(self) -> None:
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            self.session.reset()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "AsyncGraphClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # moving bytes between the streams and the session
    # ------------------------------------------------------------------ #
    async def _roundtrip(self, op: str, args: dict) -> dict:
        if self._writer is None:
            await self.connect()
        session = self.session
        try:
            self._writer.write(session.request(op, args))
            await self._writer.drain()
            while (response := session.next_response()) is None:
                session.receive(await asyncio.wait_for(
                    self._reader.read(1 << 16), self.timeout))
        except ProtocolError:
            await self.close()
            raise
        except (asyncio.TimeoutError, OSError) as exc:
            await self._unavailable(f"request failed: {exc!r}", exc)
        return response.get("result") or {}

    async def call(self, op: str, args: dict | None = None) -> dict:
        """One request with transient-error retry/backoff."""
        args = args or {}
        attempt = 0
        while True:
            try:
                return await self._roundtrip(op, args)
            except ReproError as exc:
                delay = self.session.retry_delay(exc, attempt)
                if delay is None:
                    raise
                attempt += 1
                await asyncio.sleep(delay)

    async def _op(self, op: str, args: dict, pick):
        return pick(await self.call(op, args))
