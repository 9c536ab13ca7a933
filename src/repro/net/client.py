"""Synchronous GraphClient and the ReplicaSet failover router.

:class:`GraphClient` is the blocking-socket driver over one
:class:`~repro.net.session.ClientSession` (which owns request ids,
response validation, typed remote errors, watermarks and the retry
decision): it moves bytes between the socket and the session and adds
**pipelined batch submit** — :meth:`GraphClient.submit_edges_pipelined`
writes a window of mutation frames before reading the first response,
hiding the round-trip latency a strict request/response loop would pay
per batch (the server answers one connection's frames in order).

Transport failures — connection refused/reset, a peer that vanished
mid-frame or mid-handshake — are classified as the synthetic retryable
code ``UNAVAILABLE`` (the socket is closed first, so a retry
reconnects).  A :class:`~repro.errors.ProtocolError` from the response
stream closes the socket too (a length-prefixed stream cannot be
resynchronised) but is never retried.  A client built with
``port_file=`` re-resolves the port from that file on every reconnect,
which is what lets a long-running load generator survive a server
restart onto a fresh ephemeral port.

:class:`ReplicaSet` builds failover routing on top: reads rotate across
replicas and fall back to the writer, writes always go to the writer,
and acked writes raise a per-set ``applied_seq`` floor that stale
replicas are checked against (read-your-writes).

Thread safety: one client = one socket = one user thread.  Share nothing
— open one client per worker (the load generator does exactly that).
"""

from __future__ import annotations

import random
import socket
import time

from pathlib import Path

from repro.errors import NetError, ProtocolError, ReproError
from repro.net.frames import DEFAULT_MAX_FRAME, supported_codecs
from repro.net.protocol import (
    FAILOVER_CODES,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    json_safe,
)
from repro.net.session import (
    DEFAULT_BACKOFF,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_RETRIES,
    GraphOps,
    SessionClient,
    backoff_delay,
)


class GraphClient(SessionClient):
    """One blocking connection to a :class:`~repro.net.server.GraphServer`.

    Usable as a context manager; :meth:`connect` is implicit on first
    use.  ``retries`` applies to transient error codes only — protocol
    and bad-request errors never retry.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 30.0,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 port_file: str | Path | None = None,
                 rng: random.Random | None = None):
        super().__init__(host, port, timeout=timeout, retries=retries,
                         backoff=backoff, backoff_cap=backoff_cap,
                         max_frame=max_frame, rng=rng)
        #: When set, every (re)connect re-reads the port from this file
        #: — a restarted server publishes its fresh ephemeral port there,
        #: so clients follow it instead of dying on the stale port.
        self.port_file = Path(port_file) if port_file is not None else None
        self._sock: socket.socket | None = None

    # ------------------------------------------------------------------ #
    # connection lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "GraphClient":
        if self._sock is not None:
            return self
        if self.port_file is not None:
            try:
                self.port = int(self.port_file.read_text().strip())
            except (OSError, ValueError) as exc:
                self._unavailable(
                    f"port file {self.port_file} unreadable: {exc}", exc)
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            self._unavailable(f"connect failed: {exc}", exc)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        # The hello handshake itself can hit a peer that accepted the
        # connection and died (restart race): that is the same
        # retryable condition as a refused connect, not a protocol bug.
        hello = self._roundtrip("hello", {
            "proto": PROTOCOL_VERSION, "codecs": supported_codecs()})
        self.session.codec = hello["codec"]
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self.session.reset()

    def __enter__(self) -> "GraphClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _unavailable(self, message: str,
                     cause: BaseException | None = None):
        """Close and raise a retryable ``UNAVAILABLE`` transport error."""
        self.close()
        raise self.session.unavailable(
            f"{self.host}:{self.port}: {message}") from cause

    # ------------------------------------------------------------------ #
    # moving bytes between the socket and the session
    # ------------------------------------------------------------------ #
    def _exchange(self, requests, window: int) -> list:
        """Send ``(op, args)`` requests with at most ``window`` in flight;
        return their ``result`` fields in request order.

        A remote error stops the sending; the responses already owed are
        still read (the session knows its in-flight ids), so the
        connection stays in step, and the first error is raised after.
        The socket is read in large chunks, not one ``recv`` per header
        and payload: the saved syscalls are a measurable share of
        small-request latency.
        """
        session = self.session
        in_flight = session.in_flight
        window = max(window, 1)
        results: list = []
        error: ReproError | None = None
        pending = iter(requests)
        try:
            if self._sock is None:
                self.connect()
            while True:
                request = None
                if error is None and len(in_flight) < window:
                    request = next(pending, None)
                if request is not None:
                    self._sock.sendall(session.request(*request))
                elif in_flight:
                    try:
                        while (response := session.next_response()) is None:
                            session.receive(self._sock.recv(1 << 16))
                        results.append(response.get("result"))
                    except ProtocolError:
                        raise
                    except ReproError as exc:  # remote: stream still in step
                        error = error or exc
                else:
                    break
        except ProtocolError:
            self.close()
            raise
        except OSError as exc:
            self._unavailable(f"request failed: {exc}", exc)
        if error is not None:
            raise error
        return results

    def _roundtrip(self, op: str, args: dict) -> dict:
        return self._exchange([(op, args)], 1)[0] or {}

    def call(self, op: str, args: dict | None = None) -> dict:
        """One request with transient-error retry/backoff."""
        args = args or {}
        attempt = 0
        while True:
            try:
                return self._roundtrip(op, args)
            except ReproError as exc:
                delay = self.session.retry_delay(exc, attempt)
                if delay is None:
                    raise
                attempt += 1
                time.sleep(delay)

    def _op(self, op: str, args: dict, pick):
        return pick(self.call(op, args))

    def submit_edges_pipelined(self, batches, *, op: str = "insert_edges",
                               window: int = 8) -> list[dict]:
        """Submit many mutation batches with up to ``window`` in flight.

        Writes frames ahead of reading responses (the server answers in
        request order), so the WAL-sync latency of consecutive batches
        overlaps instead of serialising.  Returns one result dict per
        batch, in submission order.  A remote error on any batch raises
        after every response already in flight has been read — the
        caller knows every batch before the failed one is durable, no
        further batch was sent, and the connection is still usable.
        """
        return self._exchange(
            ((op, {"edges": json_safe(edges), "wait": True})
             for edges in batches), window)


# --------------------------------------------------------------------- #
# failover routing
# --------------------------------------------------------------------- #
class ReplicaSet(GraphOps):
    """Failover router over one writer and any number of read replicas.

    * **Writes** always go to the writer; an acked write's ``seq``
      raises the set's read-your-writes floor.
    * **Reads** rotate across the replicas and fall back to the writer.
      A target is skipped (failed over, not failed) on any code in
      :data:`~repro.net.protocol.FAILOVER_CODES` — shed, stale-over-SLO,
      breaker, queue-full, unavailable, not-writer — and on an answer
      whose ``applied_seq`` is below the floor (the router refuses to
      hand back state older than a write this same set already acked;
      on the writer it forces a view ``refresh`` instead, which
      guarantees the floor).  Non-retryable errors raise immediately.
    * When *every* target refused retryably, the router sleeps a
      jittered exponential backoff and sweeps again, up to ``retries``
      rounds — so a briefly-partitioned cluster costs latency, not an
      error.

    Endpoints are ``(host, port)`` pairs or ``{"host", "port",
    "port_file"}`` dicts (a ``port_file`` endpoint follows server
    restarts).  Thread safety matches :class:`GraphClient`: one set per
    thread.
    """

    def __init__(self, writer, replicas=(), *,
                 timeout: float = 30.0,
                 retries: int = 3,
                 backoff: float = DEFAULT_BACKOFF,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 rng: random.Random | None = None):
        self._rng = rng or random.Random()
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap

        def build(endpoint) -> GraphClient:
            if isinstance(endpoint, GraphClient):
                return endpoint
            if not isinstance(endpoint, dict):
                host, port = endpoint
                endpoint = {"host": host, "port": port}
            return GraphClient(endpoint.get("host", "127.0.0.1"),
                               int(endpoint.get("port", 0)),
                               port_file=endpoint.get("port_file"),
                               timeout=timeout, max_frame=max_frame,
                               rng=self._rng)

        self.writer = build(writer)
        self.replicas = [build(r) for r in replicas]
        self._rr = 0
        #: highest WAL seq this set has seen acked — the
        #: read-your-writes floor every answered read is checked against.
        self.floor_seq = 0
        self.n_failovers = 0      # reads answered by a non-first choice
        self.n_stale_rejects = 0  # answers discarded for a floor breach
        self.last_generation: int | None = None
        self.last_staleness: dict | None = None

    def _rounds(self, attempt, codes):
        """Run ``attempt()`` until it answers, backing off between rounds
        while it raises one of ``codes``, up to ``retries`` extra rounds."""
        for round_no in range(self.retries + 1):
            try:
                return attempt()
            except ReproError as exc:
                if (getattr(exc, "code", None) not in codes
                        or round_no == self.retries):
                    raise
            time.sleep(backoff_delay(round_no, self.backoff,
                                     self.backoff_cap, self._rng))

    def _op(self, op: str, args: dict, pick):
        route = self.read if OPS[op] == "read" else self.write
        return pick(route(op, args))

    # ------------------------------- writes --------------------------- #
    def write(self, op: str, args: dict) -> dict:
        """One mutation against the writer, with transport retry."""
        result = self._rounds(lambda: self.writer.call(op, args),
                              RETRYABLE_CODES)
        seq = result.get("seq")
        if seq is not None:
            self.floor_seq = max(self.floor_seq, int(seq))
        return result

    # ------------------------------- reads ---------------------------- #
    def read(self, op: str, args: dict | None = None) -> dict:
        """One read, routed across replicas with writer fallback."""
        args = args or {}
        return self._rounds(lambda: self._sweep(op, args), FAILOVER_CODES)

    def _sweep(self, op: str, args: dict) -> dict:
        """One pass over the read targets; raises the last refusal."""
        last_exc: ReproError = NetError("replica set has no targets")
        for rank, client in enumerate(self._read_targets()):
            try:
                result = self._read_once(client, op, args)
            except ReproError as exc:
                if getattr(exc, "code", None) not in FAILOVER_CODES:
                    raise
                last_exc = exc
                continue
            if result is None:   # floor breach on a replica
                continue
            if rank > 0:
                self.n_failovers += 1
            self.last_generation = client.last_generation
            self.last_staleness = client.last_staleness
            return result
        raise last_exc

    def _read_targets(self) -> list[GraphClient]:
        """Replicas in rotated order, writer always last resort."""
        if not self.replicas:
            return [self.writer]
        self._rr = (self._rr + 1) % len(self.replicas)
        rotated = self.replicas[self._rr:] + self.replicas[:self._rr]
        return [*rotated, self.writer]

    def _read_once(self, client: GraphClient, op: str, args: dict):
        """One read against one target; ``None`` = stale, try the next.

        On the writer a floor breach is fixable (its state *has* the
        acked writes — only the cached view lags), so force a refresh
        and re-read instead of giving up.
        """
        result = client.call(op, args)
        applied = client.last_applied_seq
        if applied is not None and applied < self.floor_seq:
            self.n_stale_rejects += 1
            if client is not self.writer:
                return None
            client.refresh()
            result = client.call(op, args)
        return result

    # ------------------------------- misc ----------------------------- #
    @property
    def n_retries(self) -> int:
        """Lifetime transient retries across every member connection."""
        return sum(c.n_retries for c in (self.writer, *self.replicas))

    def close(self) -> None:
        for client in (self.writer, *self.replicas):
            client.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
