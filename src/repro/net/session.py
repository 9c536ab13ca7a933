"""Sans-IO client session: everything about a connection that is not a socket.

A :class:`ClientSession` turns requests into frame bytes and received
bytes back into validated responses.  It owns the request-id counter,
the :class:`~repro.net.frames.FrameDecoder`, the queue of in-flight ids,
response validation, the typed re-raise of remote error frames
(:data:`~repro.net.protocol.CODE_TO_EXCEPTION`), the ``last_*``
watermarks and the retry decision — and never touches a transport, so
every rule above is testable by feeding it bytes.  Three drivers add
only I/O or routing: :class:`~repro.net.client.GraphClient` (blocking
socket), :class:`~repro.net.aioclient.AsyncGraphClient` (asyncio
streams) and :class:`~repro.net.client.ReplicaSet` (failover routing);
the typed op surface they share is written once, in :class:`GraphOps`.

Driver contract: send what :meth:`ClientSession.request` returns, pass
what the transport yields to :meth:`ClientSession.receive`, pop
:meth:`ClientSession.next_response` until it stops answering ``None``.
A remote error frame raises its typed exception with the stream still
in step (its id was consumed).  A :class:`~repro.errors.ProtocolError`
means the byte stream is unrecoverable: close the transport and
:meth:`~ClientSession.reset`, so the next call reconnects instead of
re-reading the poisoned buffer.
"""

from __future__ import annotations

import random
from collections import deque

from repro.errors import NetError, ProtocolError
from repro.net.frames import DEFAULT_MAX_FRAME, FrameDecoder, encode_frame
from repro.net.protocol import (
    E_UNAVAILABLE,
    RETRYABLE_CODES,
    json_safe,
    raise_remote_error,
)

#: Default retry/backoff shape for transient (shed/breaker/queue) errors.
DEFAULT_RETRIES = 0
DEFAULT_BACKOFF = 0.05
DEFAULT_BACKOFF_CAP = 2.0


def backoff_delay(attempt: int, backoff: float, backoff_cap: float,
                  rng: random.Random) -> float:
    """Jittered exponential delay before retry ``attempt`` (0-based)."""
    return min(backoff_cap, backoff * (2 ** attempt)) * (0.5 + rng.random())


class ClientSession:
    """Protocol state of one client connection (no I/O)."""

    def __init__(self, *, retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 rng: random.Random | None = None):
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.max_frame = max_frame
        self.rng = rng or random.Random()
        self.codec = "json"
        #: generation of the last read response — never decreases on one
        #: connection (the server's view version is monotonic).
        self.last_generation: int | None = None
        #: WAL cursor of the last read response's view.  Unlike
        #: ``generation`` this is comparable *across* nodes (writer and
        #: replicas share the writer's sequence space), which is what
        #: ``ReplicaSet`` floors read-your-writes on.
        self.last_applied_seq: int | None = None
        #: staleness block of the last read answered by a replica
        #: (``None`` when talking to a writer).
        self.last_staleness: dict | None = None
        self.n_retries = 0  # lifetime transient retries (introspection)
        self._next_id = 0
        self._ready: deque = deque()
        #: ids of the requests still owed a response, oldest first.
        self.in_flight: deque[int] = deque()
        self.reset()

    def reset(self) -> None:
        """The connection is gone: drop buffered bytes and in-flight ids."""
        self._decoder = FrameDecoder(max_frame=self.max_frame)
        self._ready.clear()
        self.in_flight.clear()

    def request(self, op: str, args: dict) -> bytes:
        """The frame for one new request; its id joins the in-flight queue."""
        request_id = self._next_id + 1
        frame = encode_frame(
            {"id": request_id, "op": op, "args": json_safe(args)},
            self.codec, max_frame=self.max_frame)
        self._next_id = request_id
        self.in_flight.append(request_id)
        return frame

    def receive(self, data: bytes) -> None:
        """Bytes read from the transport; ``b""`` is the peer's EOF — a
        transport fault (the peer died or restarted), not a protocol
        violation, so it raises :class:`ConnectionError` for the driver
        to classify like any other: retryable, a reconnect may succeed.
        """
        if not data:
            raise ConnectionError(
                "server closed the connection mid-request"
                if self._decoder.at_boundary
                else "connection closed mid-frame")
        self._decoder.feed(data)
        self._ready.extend(self._decoder.frames())

    def next_response(self) -> dict | None:
        """The oldest in-flight request's response (``None``: feed more).

        The server answers one connection's requests in order, so the
        next frame must carry the oldest in-flight id.
        """
        if not self._ready:
            return None
        response = self._ready.popleft()
        if not self.in_flight:
            raise ProtocolError("response frame with no request in flight")
        request_id = self.in_flight.popleft()
        if not isinstance(response, dict):
            raise ProtocolError(
                f"response must be an object, got {type(response).__name__}")
        got = response.get("id")
        if got is not None and got != request_id:
            raise ProtocolError(
                f"response id {got} does not match request id {request_id} "
                f"(pipelining desync)")
        if not response.get("ok"):
            raise_remote_error(response.get("error") or {})
        generation = response.get("generation")
        if generation is not None:
            self.last_generation = generation
        applied_seq = response.get("applied_seq")
        if applied_seq is not None:
            self.last_applied_seq = applied_seq
            self.last_staleness = response.get("staleness")
        return response

    def unavailable(self, message: str) -> NetError:
        """A transport failure as the retryable synthetic ``UNAVAILABLE``."""
        exc = NetError(f"[{E_UNAVAILABLE}] {message}")
        exc.code = E_UNAVAILABLE
        return exc

    def retry_delay(self, exc: BaseException, attempt: int) -> float | None:
        """Seconds to sleep before retry ``attempt`` (0-based) of a call
        that raised ``exc``; ``None`` means surface the error."""
        if (getattr(exc, "code", None) not in RETRYABLE_CODES
                or attempt >= self.retries):
            return None
        self.n_retries += 1
        return backoff_delay(attempt, self.backoff, self.backoff_cap, self.rng)


def _whole(result: dict) -> dict:
    return result


def _degree(result: dict) -> int:
    return int(result["degree"])


def _limited(args: dict, limit: int | None) -> dict:
    if limit is not None:
        args["limit"] = int(limit)
    return args


class GraphOps:
    """The typed graph-op surface, written once for all three drivers.

    A driver provides ``_op(op, args, pick)``: run one op and return
    ``pick(result)`` — directly, or as an awaitable (the asyncio driver).
    """

    def insert_edges(self, edges, weights=None, *, wait: bool = True):
        args = {"edges": edges, "wait": wait}
        if weights is not None:
            args["weights"] = weights
        return self._op("insert_edges", args, _whole)

    def delete_edges(self, edges, *, wait: bool = True):
        return self._op("delete_edges", {"edges": edges, "wait": wait}, _whole)

    def degree(self, src: int):
        return self._op("degree", {"src": int(src)}, _degree)

    def neighbors(self, src: int):
        return self._op("neighbors", {"src": int(src)}, _whole)

    def khop(self, src: int, k: int, limit: int | None = None):
        return self._op(
            "khop", _limited({"src": int(src), "k": int(k)}, limit), _whole)

    def shortest_path(self, src: int, dst: int, *, weighted: bool = True,
                      limit: int | None = None):
        args = {"src": int(src), "dst": int(dst), "weighted": weighted}
        return self._op("shortest_path", _limited(args, limit), _whole)


class SessionClient(GraphOps):
    """What the two socket drivers share: the constructor, the session's
    state as read-only attributes, and the admin ops (``call`` returns
    the result or, on the asyncio driver, its awaitable)."""

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
        self.session = ClientSession(retries=retries, backoff=backoff,
                                     backoff_cap=backoff_cap,
                                     max_frame=max_frame, rng=rng)

    codec = property(lambda self: self.session.codec)
    last_generation = property(lambda self: self.session.last_generation)
    last_applied_seq = property(lambda self: self.session.last_applied_seq)
    last_staleness = property(lambda self: self.session.last_staleness)
    n_retries = property(lambda self: self.session.n_retries)

    def ping(self):
        return self.call("ping")

    def health(self):
        return self.call("health")

    def metrics(self):
        return self.call("metrics")

    def digest(self):
        return self.call("digest")

    def refresh(self):
        """Force the server to re-capture its read view (read-your-writes)."""
        return self.call("refresh")
