"""GraphServer: the asyncio TCP front-end over one GraphService.

One server owns one durable :class:`~repro.service.GraphService` and
speaks the :mod:`repro.net.protocol` over length-prefixed frames.  The
connection layer is a raw :class:`asyncio.Protocol` (not streams): every
``data_received`` chunk runs through the shared
:class:`~repro.net.frames.FrameDecoder` and *read* requests are
answered synchronously in that same callback — no per-request task, no
coroutine scheduling — which is what lets one event loop sustain
thousands of point reads per second.

* **Mutations** (``insert_edges`` / ``delete_edges``) never leave the
  loop thread: parse, submit into the service's queue without waiting
  (a full queue is an immediate, retryable ``QUEUE_FULL``) and — by
  default — park the connection's later frames until the ticket
  resolves, so a successful response means *durable* (WAL-synced and
  applied) and pipelined clients keep their response order.  No thread
  waits on the ticket: its done-callback, run by the flusher, schedules
  the response back onto the loop; a loop timer bounds the wait.
* **Reads** (``degree`` / ``neighbors`` / ``khop`` / ``shortest_path``)
  are served lock-free from the current cached
  :class:`~repro.net.readpath.ReadView`.  The view refreshes *off-loop*:
  when a request notices the applied sequence has moved, one executor
  task re-captures under the store lock and swaps the new view in — a
  read never waits on ingest, it serves the generation it finds (bounded
  staleness, explicit via the ``generation`` field on every read
  response; the ``refresh`` admin op forces a synchronous re-capture
  when a caller needs read-your-writes).  Overload reuses the service's
  read shedding: a shed read is a typed ``SHED`` error frame, never a
  hang.
* **Admin** (``health`` / ``metrics`` / ``digest`` / ``refresh`` /
  ``ping``) — health snapshot, Prometheus metrics text, canonical state
  digest, forced view refresh.
* **Replication** (``subscribe`` / ``wal_batch`` / ``replica_status`` /
  ``resync``) — the WAL-shipping stream replicas pull from
  (docs/network.md "Replication").  ``subscribe`` binds a
  :class:`~repro.service.tail.WalTailer` to the connection at the
  replica's ``{seq, cum_edges}`` cursor (a pruned cursor is a typed
  ``CURSOR_GAP``); ``wal_batch`` long-polls it on the executor —
  parking only *this* connection's queue, which is why replicas use a
  dedicated replication connection; ``replica_status`` reports the
  replica's applied cursor into the writer's peer registry (surfaced
  under ``health()["replication"]``); ``resync`` ships the full edge
  state captured consistently under the store lock for cursors the
  retained WAL can no longer serve.  Replication ops are never shed —
  they are how replicas *stop* being stale.

Failure containment: a malformed frame kills only its connection (after
a best-effort ``PROTOCOL`` error frame); an unexpected per-request
exception answers ``INTERNAL`` and keeps the connection; client
disconnects — abrupt or clean — release the connection's resources and
decrement ``net.active_conns``.  The service itself is never taken down
by a client.

Telemetry (when :mod:`repro.obs` is enabled): ``net.request_ms``
quantile sketch, ``net.bytes_in`` / ``net.bytes_out`` / ``net.shed`` /
``net.requests.<family>`` / ``net.errors`` counters and the
``net.active_conns`` gauge.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

import repro.obs as obs
from repro.errors import (
    CursorGapError,
    ProtocolError,
    ReproError,
    ServiceError,
    ShedError,
    WorkloadError,
)
from repro.net.frames import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    encode_frame,
)
from repro.net.protocol import (
    E_PROTOCOL,
    E_VERSION,
    OPS,
    PROTOCOL_VERSION,
    error_response,
    json_safe,
    store_digest,
    wal_record_to_wire,
)
from repro.net.readpath import (
    DEFAULT_KHOP_LIMIT,
    DEFAULT_PATH_LIMIT,
    capture_view_locked,
)
from repro.obs import hooks as obs_hooks
from repro.obs.log import get_logger, kv
from repro.obs.recorder import get_recorder
from repro.service.tail import DEFAULT_POLL_RECORDS, WalTailer

log = get_logger("net.server")

#: Per-mutation durability wait (seconds) before the server answers a
#: write request with an error instead of holding the frame.
DEFAULT_WRITE_TIMEOUT = 30.0

#: Executor threads, for what blocks: view re-captures, ``digest`` /
#: ``refresh`` and replication long-polls.  Writes never use the pool.
POOL_WORKERS = 8

#: Hard cap on a ``wal_batch`` long-poll (seconds).  Each waiting poll
#: occupies one executor thread, so the cap bounds how much of the pool
#: idle subscribers can hold.
MAX_BATCH_WAIT = 30.0

#: Hard cap on records per ``wal_batch`` response (bounds frame size).
MAX_BATCH_RECORDS = 4096

#: Per-capture patch budget: each throttled refresh re-measures at most
#: this many dirty rows while holding the store lock, so a capture can
#: never stall ingest for more than (budget × per-row measure cost) even
#: after a large write burst.  Rows over budget stay pending and the
#: server keeps re-capturing every refresh interval until the backlog
#: drains; the blocking ``refresh`` op ignores the budget (full
#: read-your-writes).
VIEW_PATCH_ROWS = 512


class GraphServer:
    """Asyncio TCP server over one :class:`~repro.service.GraphService`.

    The caller owns the service's lifecycle; :meth:`stop` stops serving
    but does not close the service (the CLI driver closes both, in
    order: server first, then service).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, *,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 view_refresh_s: float = 0.25):
        self.service = service
        self.host = host
        self.port = port          # rebound to the real port on start()
        self.max_frame = max_frame
        #: Minimum seconds between background view re-captures.  A
        #: capture re-measures every row the applied batches touched
        #: while holding the store lock, so its cost scales with write
        #: volume — throttling it bounds both the capture work and the
        #: ingest stalls it can cause.  Staleness stays explicit
        #: (``generation``) and bounded (~refresh interval + capture
        #: time); 0 means re-capture on every applied-seq change.
        self.view_refresh_s = view_refresh_s
        self._pool = ThreadPoolExecutor(
            max_workers=POOL_WORKERS, thread_name_prefix="graph-server")
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._view = None
        self._view_ts = 0.0
        self._refreshing = False
        self.n_connections = 0      # lifetime accepted
        self.active_connections = 0
        self._conns: set = set()    # live protocol instances (loop thread)
        #: replica_id -> last-reported cursor/liveness (the writer-side
        #: half of the ``health()["replication"]`` block).  Mutated from
        #: executor threads and the loop thread; every mutation is a
        #: single dict assignment, so no lock is needed under the GIL.
        self.replication_peers: dict[str, dict] = {}
        # The read path serves from the store's CSR snapshot; make sure
        # one is attached before the first capture.
        if service._store.analytics_snapshot is None:
            service._store.enable_snapshot()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # First capture is synchronous: the server never serves without
        # a view (an empty store captures in microseconds).
        self._view = capture_view_locked(self.service)
        self._server = await self._loop.create_server(
            lambda: _GraphConnection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info(kv("serve-net listening", host=self.host, port=self.port))

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Established connections must die with the server: a client
        # (or replication link) parked on a long poll would otherwise
        # block until its own timeout instead of seeing EOF and
        # reconnecting — an in-process restart has to look like a
        # process death from the outside.
        for conn in list(self._conns):
            conn.closing = True
            if conn.transport is not None:
                conn.transport.close()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # read view maintenance
    # ------------------------------------------------------------------ #
    def current_view(self):
        """The cached ReadView; kicks an off-loop refresh if it lags.

        Never blocks: callers serve the view they find.  At most one
        refresh is in flight; when it lands the new view is swapped in
        on the loop thread, so a later request sees it.
        """
        view = self._view
        if (not self._refreshing
                and (view.pending
                     or view.applied_seq != self.service.applied_seq)
                and time.monotonic() - self._view_ts >= self.view_refresh_s):
            self._refreshing = True
            future = self._loop.run_in_executor(
                self._pool, self._capture_budgeted)
            future.add_done_callback(self._refresh_done)
        return view

    def _capture_budgeted(self):
        return capture_view_locked(self.service,
                                   max_patch_rows=VIEW_PATCH_ROWS)

    def _refresh_done(self, future) -> None:
        self._refreshing = False
        self._view_ts = time.monotonic()
        try:
            self._view = future.result()
        except Exception as exc:  # noqa: BLE001 - keep serving the old view
            log.warning(kv("view refresh failed", error=repr(exc)))

    def refresh_view_blocking(self):
        """Synchronous re-capture (the ``refresh`` op; executor-side)."""
        view = capture_view_locked(self.service)
        self._view = view
        self._view_ts = time.monotonic()
        return view

    # ------------------------------------------------------------------ #
    # replication bookkeeping
    # ------------------------------------------------------------------ #
    def replication_health(self) -> dict:
        """Writer-side ``replication`` health block (peer cursors/lag)."""
        now = time.time()
        writer_seq = self.service._wal.last_seq
        peers = {}
        for replica_id, info in list(self.replication_peers.items()):
            applied = int(info.get("applied_seq", 0))
            peers[replica_id] = {
                "applied_seq": applied,
                "cum_edges": int(info.get("cum_edges", 0)),
                "generation": info.get("generation"),
                "lag_seq": max(0, int(writer_seq) - applied),
                "connected": bool(info.get("connected", False)),
                "age_s": round(now - float(info.get("ts", now)), 3),
                "n_resyncs": int(info.get("n_resyncs", 0)),
            }
        return {
            "role": "writer",
            "writer_seq": int(writer_seq),
            "n_replicas": sum(1 for p in peers.values() if p["connected"]),
            "peers": peers,
        }


class _GraphConnection(asyncio.Protocol):
    """One client connection: frame decode, ordered dispatch, telemetry.

    Requests on a connection are answered strictly in arrival order.
    Synchronous ops (reads, ping, health, metrics) are answered directly
    inside ``data_received``; a durable write parks the connection's
    queue until its ticket resolves, an executor op (digest, refresh,
    replication) until its future lands, then the queue pumps again —
    pipelined clients get ordered responses without the server
    serializing across *connections*.
    """

    def __init__(self, server: GraphServer):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.decoder = FrameDecoder(max_frame=server.max_frame)
        self.codec = "json"
        self.hello_done = False
        self.closing = False
        self._queue: deque = deque()
        self._busy = False      # a write or executor op is in flight
        #: The parked write: (ticket, request_id, n_edges, deadline timer).
        self._write: tuple | None = None
        self.repl_tailer: WalTailer | None = None
        self.replica_id: str | None = None

    # ---------------------------- plumbing ---------------------------- #
    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        server = self.server
        server.n_connections += 1
        server.active_connections += 1
        server._conns.add(self)
        if obs_hooks.enabled:
            registry = obs.get_registry()
            registry.counter("net.connections").inc()
            registry.gauge("net.active_conns").set(server.active_connections)

    def connection_lost(self, exc) -> None:
        self.closing = True
        self._queue.clear()
        if self._write is not None:
            self._write[3].cancel()
            self._write = None
        server = self.server
        server.active_connections -= 1
        server._conns.discard(self)
        if self.replica_id is not None:
            peer = server.replication_peers.get(self.replica_id)
            if peer is not None:
                peer["connected"] = False
                peer["ts"] = time.time()
        if obs_hooks.enabled:
            obs.get_registry().gauge("net.active_conns").set(
                server.active_connections)

    def data_received(self, data: bytes) -> None:
        if self.closing:
            return
        if obs_hooks.enabled:
            obs.get_registry().counter("net.bytes_in").inc(len(data))
        try:
            self.decoder.feed(data)
            for request in self.decoder.frames():
                self._queue.append(request)
        except ProtocolError as exc:
            # A length-prefixed stream cannot resynchronise after a bad
            # prefix: answer typed, then drop the connection.
            self._send(error_response(None, E_PROTOCOL, str(exc)))
            self._close()
            return
        self._pump()

    def _pump(self) -> None:
        while self._queue and not self._busy and not self.closing:
            request = self._queue.popleft()
            self._handle(request)

    def _send(self, response: dict) -> None:
        if self.transport is None or self.transport.is_closing():
            return
        try:
            # Handlers emit plain-JSON types already; the sanitizing
            # deep-copy is only needed when one leaks a numpy scalar or
            # array (encode raises TypeError on those — a cheap probe
            # next to paying json_safe's recursion on every response).
            blob = encode_frame(response, self.codec,
                                max_frame=self.server.max_frame)
        except TypeError:
            blob = encode_frame(json_safe(response), self.codec,
                                max_frame=self.server.max_frame)
        self.transport.write(blob)
        if obs_hooks.enabled:
            obs.get_registry().counter("net.bytes_out").inc(len(blob))

    def _close(self) -> None:
        self.closing = True
        if self.transport is not None:
            self.transport.close()

    # ---------------------------- dispatch ---------------------------- #
    def _handle(self, request) -> None:
        if not isinstance(request, dict):
            self._send(error_response(
                None, E_PROTOCOL,
                f"request must be an object, got {type(request).__name__}"))
            self._close()
            return
        request_id = request.get("id")
        op = request.get("op")
        start = time.perf_counter()
        try:
            family = OPS.get(op)
            if family is None:
                raise WorkloadError(f"unknown op {op!r} "
                                    f"(known: {', '.join(sorted(OPS))})")
            if op == "hello":
                self._do_hello(request_id, request)
                return
            if not self.hello_done:
                self._send(error_response(
                    request_id, E_PROTOCOL,
                    "first frame must be a hello (protocol negotiation)"))
                self._close()
                return
            args = request.get("args") or {}
            if not isinstance(args, dict):
                raise WorkloadError("args must be an object")
            if family == "write":
                self._start_write(request_id, op, args)
            elif family == "read":
                self._send(self._do_read(request_id, op, args))
            elif family == "repl":
                self._start_async(request_id, self._repl_job(op, args))
            elif op in ("digest", "refresh"):
                self._start_async(request_id, self._admin_job(op))
            else:
                self._send(self._do_admin(request_id, op))
        except Exception as exc:  # noqa: BLE001 - request fault wall
            self._send_error(request_id, exc)
        finally:
            if obs_hooks.enabled:
                registry = obs.get_registry()
                registry.counter(
                    f"net.requests.{OPS.get(op, 'unknown')}").inc()
                registry.quantile(
                    "net.request_ms", "server-side request handling (ms)"
                ).record((time.perf_counter() - start) * 1e3)

    def _send_error(self, request_id, exc: BaseException) -> None:
        """Typed frame for a ReproError, INTERNAL + a log line otherwise."""
        if not isinstance(exc, ReproError):
            log.warning(kv("request failed unexpectedly", error=repr(exc)))
        if obs_hooks.enabled:
            registry = obs.get_registry()
            registry.counter("net.errors").inc()
            if isinstance(exc, ShedError):
                registry.counter("net.shed").inc()
        self._send(error_response(request_id, exc))

    # ----------------------------- writes ------------------------------ #
    def _start_write(self, request_id, op: str, args: dict) -> None:
        """Submit one mutation from the loop thread.  ``timeout=0``: a
        full queue is a typed ``QUEUE_FULL`` now, the loop never waits
        for space.  A durable write parks this connection's queue until
        the ticket or the deadline timer calls :meth:`_finish_write`."""
        edges, weights = _parse_edges(args)
        service = self.server.service
        if op == "insert_edges":
            ticket = service.submit_insert(edges, weights, timeout=0)
        else:
            ticket = service.submit_delete(edges, timeout=0)
        n_edges = int(edges.shape[0])
        if not args.get("wait", True):
            self._send({"id": request_id, "ok": True,
                        "result": {"queued": True, "n_edges": n_edges}})
            return
        self._busy = True
        loop = self.server._loop
        deadline = loop.call_later(DEFAULT_WRITE_TIMEOUT,
                                   self._finish_write, ticket)
        self._write = (ticket, request_id, n_edges, deadline)
        # Runs on the flusher thread.  Once the loop is closed (server
        # stopped under this write) it raises; Ticket keeps that out of
        # the flush, and nobody is left to answer.
        ticket.add_done_callback(
            partial(loop.call_soon_threadsafe, self._finish_write))

    def _finish_write(self, ticket) -> None:
        """Loop thread: answer the parked write and pump the queue."""
        if self._write is None or self._write[0] is not ticket:
            return  # the deadline (or the close) already settled it
        _, request_id, n_edges, deadline = self._write
        self._write = None
        deadline.cancel()
        self._busy = False
        if self.closing:
            return
        # Never an ack before the ticket resolved: unresolved here means
        # the deadline timer fired.
        error = ticket.error if ticket.done() else ServiceError(
            f"batch not durable after {DEFAULT_WRITE_TIMEOUT}s")
        if error is not None:
            self._send_error(request_id, error)
        else:
            self._send({"id": request_id, "ok": True, "result": {
                "seq": int(ticket.seq), "n_edges": n_edges}})
        self._pump()

    # ----------------------- async (executor) ops ---------------------- #
    def _start_async(self, request_id, job) -> None:
        """Run ``job`` on the pool; park this connection's queue until
        it lands, then answer and pump."""
        self._busy = True
        future = self.server._loop.run_in_executor(self.server._pool, job)

        def done(fut) -> None:
            self._busy = False
            if self.closing:
                return
            try:
                self._send({"id": request_id, "ok": True,
                            "result": fut.result()})
            except Exception as exc:  # noqa: BLE001 - request fault wall
                self._send_error(request_id, exc)
            self._pump()

        future.add_done_callback(done)

    def _admin_job(self, op: str):
        server = self.server

        def job() -> dict:
            if op == "refresh":
                view = server.refresh_view_blocking()
                return {"generation": view.generation,
                        "applied_seq": view.applied_seq}
            service = server.service
            with service._store_lock:
                digest = store_digest(service._store)
            digest["applied_seq"] = service.applied_seq
            snap = service._store.analytics_snapshot
            digest["generation"] = (snap.generation
                                    if snap is not None else None)
            return digest

        return job

    # ----------------------- replication ops --------------------------- #
    def _repl_job(self, op: str, args: dict):
        """Executor job for one replication-family op.

        Replication ops run on the pool: ``subscribe`` and ``resync``
        touch the store/WAL, and ``wal_batch`` may long-poll.  While one
        is in flight this connection's queue is parked — which is
        exactly the per-connection ordering a replication stream wants.
        """
        if op == "subscribe":
            return lambda: self._repl_subscribe(args)
        if op == "wal_batch":
            return lambda: self._repl_wal_batch(args)
        if op == "replica_status":
            return lambda: self._repl_status(args)
        return lambda: self._repl_resync(args)

    def _tailable_wal(self):
        """The writer's log, refused when a :class:`WalTailer` cannot ship it.

        The tailer follows the base chain only; a log with shard chains
        would advertise a ``writer_seq`` no stream ever reaches, and the
        replica would lag forever without an error.
        """
        wal = self.server.service._wal
        if wal.n_shards:
            raise ServiceError(
                f"replication of a sharded writer is unsupported: this "
                f"log keeps {wal.n_shards} shard chains and WAL shipping "
                f"streams the base chain only")
        return wal

    def _repl_subscribe(self, args: dict) -> dict:
        server = self.server
        service = server.service
        after_seq = int(args.get("after_seq", 0))
        cum_edges = int(args.get("cum_edges", 0))
        replica_id = str(args.get("replica_id") or f"conn-{id(self):x}")
        wal = self._tailable_wal()
        if after_seq > wal.last_seq:
            raise CursorGapError(
                f"subscription cursor {after_seq} is ahead of this "
                f"writer's log (last seq {wal.last_seq}) — the replica "
                f"holds foreign history and must resync")
        # Eager cursor validation: raises CursorGapError right here when
        # checkpoint pruning already dropped the requested records.
        self.repl_tailer = WalTailer(service.directory, after_seq, cum_edges)
        self.replica_id = replica_id
        previous = server.replication_peers.get(replica_id, {})
        server.replication_peers[replica_id] = {
            "applied_seq": after_seq,
            "cum_edges": cum_edges,
            "generation": previous.get("generation"),
            "connected": True,
            "ts": time.time(),
            "n_resyncs": int(previous.get("n_resyncs", 0)),
        }
        if obs_hooks.enabled:
            get_recorder().record("repl.subscribe", replica=replica_id,
                                  after_seq=after_seq)
        log.info(kv("replica subscribed", replica=replica_id,
                    after_seq=after_seq, writer_seq=wal.last_seq))
        return {"replica_id": replica_id,
                "writer_seq": int(wal.last_seq),
                "writer_cum_edges": int(wal.cum_edges)}

    def _repl_wal_batch(self, args: dict) -> dict:
        wal = self._tailable_wal()
        if self.repl_tailer is None:
            raise WorkloadError("wal_batch before subscribe on this "
                                "connection")
        tailer = self.repl_tailer
        max_records = min(int(args.get("max_records",
                                       DEFAULT_POLL_RECORDS)),
                          MAX_BATCH_RECORDS)
        wait_s = min(float(args.get("wait_s", 0.0)), MAX_BATCH_WAIT)
        deadline = time.monotonic() + wait_s
        records = tailer.poll(max_records)
        while not records and not self.closing:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(0.02, remaining))
            records = tailer.poll(max_records)
        return {"records": [wal_record_to_wire(r) for r in records],
                "last_seq": int(tailer.last_seq),
                "cum_edges": int(tailer.cum_edges),
                "writer_seq": int(wal.last_seq)}

    def _repl_status(self, args: dict) -> dict:
        server = self.server
        service = server.service
        replica_id = self.replica_id or str(args.get("replica_id") or "")
        wal = service._wal
        if replica_id:
            previous = server.replication_peers.get(replica_id, {})
            server.replication_peers[replica_id] = {
                "applied_seq": int(args.get("applied_seq", 0)),
                "cum_edges": int(args.get("cum_edges", 0)),
                "generation": args.get("generation"),
                "connected": True,
                "ts": time.time(),
                "n_resyncs": int(previous.get("n_resyncs", 0)),
            }
        return {"writer_seq": int(wal.last_seq),
                "writer_applied_seq": int(service.applied_seq)}

    def _repl_resync(self, args: dict) -> dict:
        server = self.server
        service = server.service
        # One consistent cut: the store content, its digest, and the WAL
        # cursor it reflects, all under the store lock (the flusher
        # updates the cursor inside the same critical section it applies
        # batches in, so the triple cannot tear).
        with service._store_lock:
            store = service._store
            src, dst, weight = store.analytics_edges()
            digest = store_digest(store)
            last_seq = int(service.applied_seq)
            cum_edges = int(service.cum_input_edges)
        if self.replica_id is not None:
            peer = server.replication_peers.get(self.replica_id)
            if peer is not None:
                peer["n_resyncs"] = int(peer.get("n_resyncs", 0)) + 1
                peer["ts"] = time.time()
        if obs_hooks.enabled:
            obs.get_registry().counter("net.repl.resyncs").inc()
            get_recorder().record("repl.resync", replica=self.replica_id,
                                  last_seq=last_seq,
                                  n_edges=int(src.shape[0]))
        log.info(kv("serving full resync", replica=self.replica_id,
                    last_seq=last_seq, n_edges=int(src.shape[0])))
        return {"src": src.tolist(), "dst": dst.tolist(),
                "weight": weight.tolist(),
                "last_seq": last_seq, "cum_edges": cum_edges,
                "digest": digest}

    # --------------------------- sync ops ------------------------------ #
    def _do_hello(self, request_id, request) -> None:
        args = request.get("args") or {}
        proto = args.get("proto")
        if proto != PROTOCOL_VERSION:
            # Answer typed on the wire, then drop the connection.
            self._send(error_response(
                request_id, E_VERSION,
                f"protocol version {proto!r} not supported "
                f"(server speaks {PROTOCOL_VERSION})"))
            self._close()
            return
        # JSON is the only codec, whatever else the peer's list offers.
        self.hello_done = True
        from repro import __version__

        self._send({"id": request_id, "ok": True,
                    "result": {"proto": PROTOCOL_VERSION, "codec": self.codec,
                               "server": f"repro/{__version__}"}})

    def _do_read(self, request_id, op: str, args: dict) -> dict:
        server = self.server
        server.service._shed_check()
        view = server.current_view()
        if op == "degree":
            result = {"degree": view.degree(_int_arg(args, "src"))}
        elif op == "neighbors":
            dst, weight = view.neighbors(_int_arg(args, "src"))
            result = {"dst": dst.tolist(), "weight": weight.tolist()}
        elif op == "khop":
            limit = int(args.get("limit") or DEFAULT_KHOP_LIMIT)
            vertices, truncated = view.khop(
                _int_arg(args, "src"), _int_arg(args, "k"),
                min(limit, DEFAULT_KHOP_LIMIT))
            result = {"vertices": vertices, "truncated": truncated}
        else:  # shortest_path (the op table routed us here)
            limit = int(args.get("limit") or DEFAULT_PATH_LIMIT)
            result = view.shortest_path(
                _int_arg(args, "src"), _int_arg(args, "dst"),
                weighted=bool(args.get("weighted", True)),
                limit=min(limit, DEFAULT_PATH_LIMIT))
        response = {"id": request_id, "ok": True, "result": result,
                    "generation": view.generation,
                    "applied_seq": view.applied_seq}
        # Replicas report honest staleness on every read (lag behind the
        # writer's known cursor); a plain writer service has no notion
        # of it, hence the probe.
        read_staleness = getattr(server.service, "read_staleness", None)
        if read_staleness is not None:
            response["staleness"] = read_staleness()
        return response

    def _do_admin(self, request_id, op: str) -> dict:
        server = self.server
        if op == "ping":
            return {"id": request_id, "ok": True, "result": {"pong": True}}
        if op == "health":
            health = server.service.health()
            health["net"] = {
                "active_conns": server.active_connections,
                "n_connections": server.n_connections,
                "view_generation": server._view.generation,
                "view_applied_seq": server._view.applied_seq,
            }
            # A replica's service reports its own replication block
            # (role "replica", upstream cursor/lag); only a plain
            # writer gets the peer-registry view filled in here.
            if "replication" not in health:
                health["replication"] = server.replication_health()
            return {"id": request_id, "ok": True, "result": health}
        if op == "metrics":
            text = obs.registry_to_prometheus(obs.get_registry())
            return {"id": request_id, "ok": True,
                    "result": {"prometheus": text,
                               "obs_enabled": obs_hooks.enabled}}
        raise WorkloadError(f"unhandled admin op {op!r}")


def _parse_edges(args) -> tuple[np.ndarray, np.ndarray | None]:
    edges = args.get("edges")
    if edges is None:
        raise WorkloadError("missing 'edges' argument")
    try:
        arr = np.asarray(edges, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise WorkloadError(f"edges not convertible to int64: {exc}") from exc
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise WorkloadError(
            f"edges must be an (n, 2) array, got shape {arr.shape}")
    weights = args.get("weights")
    if weights is not None:
        try:
            weights = np.asarray(weights, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise WorkloadError(
                f"weights not convertible to float64: {exc}") from exc
        if weights.shape[0] != arr.shape[0]:
            raise WorkloadError("weights length must match edge count")
    return arr, weights


def _int_arg(args: dict, name: str) -> int:
    value = args.get(name)
    if value is None or isinstance(value, bool) or not isinstance(
            value, (int, np.integer)):
        raise WorkloadError(f"missing or non-integer argument {name!r}")
    return int(value)


# --------------------------------------------------------------------- #
# thread-hosted server (tests, CLI, embedding)
# --------------------------------------------------------------------- #
class ServerThread:
    """Run a :class:`GraphServer` on its own event loop in a thread.

    The constructor arguments mirror :class:`GraphServer`.  ``start()``
    blocks until the port is bound (so ``.port`` is usable immediately);
    ``stop()`` shuts the server down and joins the thread.  The service
    is *not* closed — same ownership rule as :class:`GraphServer`.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 **server_kwargs):
        self.server = GraphServer(service, host, port, **server_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="graph-server-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server thread failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
