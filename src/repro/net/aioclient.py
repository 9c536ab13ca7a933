"""AsyncGraphClient: the asyncio twin of :class:`~repro.net.client.GraphClient`.

Shares everything that matters with the sync client — the frame codec
(:mod:`repro.net.frames`), the hello handshake, the typed error mapping
(:func:`~repro.net.protocol.raise_remote_error`) and the transient-error
retry policy — but speaks over asyncio streams, so one event loop can
hold many server connections (the natural shape for an async
application embedding the serving tier, or for tests exercising true
concurrency against one server).

The API is deliberately the method-for-method mirror of the sync
client's typed surface; only the ``await`` differs.
"""

from __future__ import annotations

import asyncio
import random

from repro.errors import NetError, ProtocolError, ReproError
from repro.net.frames import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    _decode_payload,
    encode_frame,
    parse_header,
    supported_codecs,
)
from repro.net.protocol import (
    E_UNAVAILABLE,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    json_safe,
    raise_remote_error,
)
from repro.net.client import (
    DEFAULT_BACKOFF,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_RETRIES,
)


class AsyncGraphClient:
    """One asyncio connection to a :class:`~repro.net.server.GraphServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 30.0,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 rng: random.Random | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.max_frame = max_frame
        self._rng = rng or random.Random()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0
        self.codec = "json"
        self.last_generation: int | None = None
        self.last_applied_seq: int | None = None
        self.last_staleness: dict | None = None
        self.n_retries = 0

    # ------------------------------------------------------------------ #
    # connection lifecycle
    # ------------------------------------------------------------------ #
    async def connect(self) -> "AsyncGraphClient":
        if self._writer is not None:
            return self
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)
        except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
            await self._unavailable(f"connect failed: {exc!r}", exc)
        hello = await self._roundtrip("hello", {
            "proto": PROTOCOL_VERSION, "codecs": supported_codecs()})
        self.codec = hello["codec"]
        return self

    async def _unavailable(self, message: str,
                           cause: BaseException | None = None):
        """Close and raise a retryable ``UNAVAILABLE`` transport error
        (same classification as the sync client)."""
        await self.close()
        exc = NetError(
            f"[{E_UNAVAILABLE}] {self.host}:{self.port}: {message}")
        exc.code = E_UNAVAILABLE
        raise exc from cause

    async def close(self) -> None:
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
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
    # frame plumbing
    # ------------------------------------------------------------------ #
    async def _read_frame(self):
        header = await self._reader.readexactly(HEADER_SIZE)
        _, length = parse_header(header, max_frame=self.max_frame)
        payload = (await self._reader.readexactly(length)) if length else b""
        return _decode_payload(payload)

    async def _roundtrip(self, op: str, args: dict) -> dict:
        if self._writer is None:
            await self.connect()
        self._next_id += 1
        request_id = self._next_id
        frame = encode_frame(
            {"id": request_id, "op": op, "args": json_safe(args)},
            self.codec, max_frame=self.max_frame)
        try:
            self._writer.write(frame)
            await self._writer.drain()
            response = await asyncio.wait_for(self._read_frame(),
                                              self.timeout)
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, OSError) as exc:
            await self._unavailable(f"request failed: {exc!r}", exc)
        if not isinstance(response, dict):
            raise ProtocolError(
                f"response must be an object, got {type(response).__name__}")
        got = response.get("id")
        if got is not None and got != request_id:
            raise ProtocolError(
                f"response id {got} does not match request id {request_id}")
        if not response.get("ok"):
            raise_remote_error(response.get("error") or {})
        generation = response.get("generation")
        if generation is not None:
            self.last_generation = generation
        applied_seq = response.get("applied_seq")
        if applied_seq is not None:
            self.last_applied_seq = applied_seq
            self.last_staleness = response.get("staleness")
        return response.get("result") or {}

    async def call(self, op: str, args: dict | None = None) -> dict:
        """One request with transient-error retry/backoff."""
        args = args or {}
        attempt = 0
        while True:
            try:
                return await self._roundtrip(op, args)
            except ReproError as exc:
                code = getattr(exc, "code", None)
                if code not in RETRYABLE_CODES or attempt >= self.retries:
                    raise
                attempt += 1
                self.n_retries += 1
                delay = min(self.backoff_cap,
                            self.backoff * (2 ** (attempt - 1)))
                await asyncio.sleep(delay * (0.5 + self._rng.random()))

    # ------------------------------------------------------------------ #
    # typed API (mirror of the sync client)
    # ------------------------------------------------------------------ #
    async def ping(self) -> dict:
        return await self.call("ping")

    async def health(self) -> dict:
        return await self.call("health")

    async def metrics(self) -> dict:
        return await self.call("metrics")

    async def digest(self) -> dict:
        return await self.call("digest")

    async def refresh(self) -> dict:
        """Force the server to re-capture its read view (read-your-writes)."""
        return await self.call("refresh")

    async def insert_edges(self, edges, weights=None, *,
                           wait: bool = True) -> dict:
        args = {"edges": edges, "wait": wait}
        if weights is not None:
            args["weights"] = weights
        return await self.call("insert_edges", args)

    async def delete_edges(self, edges, *, wait: bool = True) -> dict:
        return await self.call("delete_edges", {"edges": edges, "wait": wait})

    async def degree(self, src: int) -> int:
        return int((await self.call("degree", {"src": int(src)}))["degree"])

    async def neighbors(self, src: int) -> dict:
        return await self.call("neighbors", {"src": int(src)})

    async def khop(self, src: int, k: int, limit: int | None = None) -> dict:
        args = {"src": int(src), "k": int(k)}
        if limit is not None:
            args["limit"] = int(limit)
        return await self.call("khop", args)

    async def shortest_path(self, src: int, dst: int, *,
                            weighted: bool = True,
                            limit: int | None = None) -> dict:
        args = {"src": int(src), "dst": int(dst), "weighted": weighted}
        if limit is not None:
            args["limit"] = int(limit)
        return await self.call("shortest_path", args)
