"""WAL-shipping read replicas: apply loop, catch-up, and resync.

The replication plane (docs/network.md "Replication") is pull-based: a
replica opens one dedicated connection to the writer, ``subscribe``\\ s
with its ``{seq, cum_edges}`` cursor, and long-polls ``wal_batch`` for
the records after it.  Three classes implement the replica side:

* :class:`ReplicaService` — the durable replica state.  It quacks
  enough like a :class:`~repro.service.GraphService` for the unmodified
  :class:`~repro.net.server.GraphServer` to serve the read/admin ops
  over it (``_store``, ``_store_lock``, ``applied_seq``,
  ``_shed_check``, ``health`` …), but mutations raise
  :class:`~repro.errors.NotWriterError` — a replica's only write path
  is :meth:`~ReplicaService.apply_record`.  The replica owns a real WAL
  + checkpoint directory of its own: shipped records are appended to
  its local log *before* they touch the store (same WAL-first
  discipline as the writer), which makes ``kill -9`` at any instant
  recoverable by the ordinary :func:`~repro.service.recovery.recover`
  protocol — replay is idempotent via seq skipping, and the surviving
  cursor is exactly the resubscribe point.
* :class:`ReplicationLink` — the background thread that talks to the
  writer: subscribe → pull → apply → report status, resubscribing with
  jittered exponential backoff on disconnect, falling back to a full
  ``resync`` state transfer on :class:`~repro.errors.CursorGapError`
  (the writer pruned our history) or any
  :class:`~repro.errors.ReplicationError` (cursor divergence, digest
  mismatch).  After catching up to the writer's cursor it cross-checks
  ``store_digest`` equality once per session — silent divergence dies
  here, loudly.
* :class:`ReplicaServer` — composition glue: one
  :class:`ReplicaService`, one serving
  :class:`~repro.net.server.ServerThread`, one
  :class:`ReplicationLink`; this is what ``repro serve-replica`` runs.

Staleness is honest and bounded: every read response carries the
replica's ``applied_seq`` and a ``staleness`` block (lag behind the last
writer cursor the link observed), and when ``max_lag_seq`` is set a read
over the bound is shed with a typed ``STALE`` error instead of being
answered stale — the :class:`~repro.net.client.ReplicaSet` router fails
over to a fresher node.
"""

from __future__ import annotations

import random
import threading
import time
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker
from repro.errors import (
    CursorGapError,
    NotWriterError,
    ReplicationError,
    ReproError,
    ServiceError,
    StaleReadError,
)
from repro.net.client import GraphClient
from repro.net.protocol import store_digest, wal_record_from_wire
from repro.net.session import backoff_delay
from repro.obs import hooks as obs_hooks
from repro.obs.log import get_logger, kv
from repro.obs.recorder import get_recorder
from repro.service.checkpoint import CheckpointManager, list_checkpoints
from repro.service.recovery import recover
from repro.service.wal import (
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
    list_segments,
)

log = get_logger("net.replication")

#: How long one ``wal_batch`` long-poll parks on the writer (seconds).
#: Short enough that stop/lag bookkeeping stays responsive.
DEFAULT_POLL_WAIT = 1.0

#: Records pulled per batch by default.
DEFAULT_PULL_RECORDS = 512

#: Resync insert chunk: bounds peak intermediate memory when rebuilding
#: a store from a shipped edge list.
_RESYNC_CHUNK = 100_000


class ReplicaService:
    """Durable replica state behind an unmodified ``GraphServer``.

    The constructor runs the standard crash-recovery protocol against
    the replica's own directory, so a replica killed at any point —
    mid-append, mid-checkpoint, mid-resync — comes back to a consistent
    ``{store, seq, cum_edges}`` triple and resubscribes from there.

    ``max_lag_seq`` is the staleness SLO: reads shed with
    :class:`~repro.errors.StaleReadError` while the replica is more
    than that many WAL records behind the writer's last known cursor
    (0 disables shedding — staleness is still *reported*, never
    hidden).  ``checkpoint_every`` checkpoints after that many applied
    records (0 disables; the link's session end still checkpoints).
    """

    def __init__(self, directory: str | Path, *,
                 config: GTConfig | None = None,
                 max_lag_seq: int = 0,
                 checkpoint_every: int = 0,
                 checkpoint_keep: int = 2,
                 verify: str | None = "quick"):
        if max_lag_seq < 0:
            raise ServiceError("max_lag_seq must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._config = config
        result = recover(self.directory, config, verify=verify)
        self.recovery = result
        self._store = result.store
        if self._store.analytics_snapshot is None:
            self._store.enable_snapshot()
        self._store_lock = threading.RLock()
        self._wal = WriteAheadLog(self.directory,
                                  min_last_seq=result.last_seq,
                                  min_cum_edges=result.cum_edges)
        if self._wal.last_seq != result.last_seq:
            raise ServiceError(
                f"{self.directory}: WAL ends at {self._wal.last_seq} but "
                f"recovery produced {result.last_seq} — inconsistent "
                f"replica directory")
        self._ckpt = CheckpointManager(self.directory, keep=checkpoint_keep)
        self._applied_seq = int(result.last_seq)
        self._cum_edges = int(result.cum_edges)
        self.max_lag_seq = int(max_lag_seq)
        self.checkpoint_every = int(checkpoint_every)
        self._since_ckpt = 0
        #: Writer cursor as last observed by the link (its lag anchor).
        self.known_upstream_seq = int(result.last_seq)
        self.known_upstream_cum = int(result.cum_edges)
        self.upstream: dict | None = None   # filled in by the link
        self.n_applied_records = 0
        self.n_applied_edges = 0
        self.n_resyncs = 0
        self.n_resubscribes = 0
        self.n_stale_sheds = 0
        self.last_resync: float | None = None
        self.last_batch_at: float | None = None
        self.link_connected = False
        self._fatal: BaseException | None = None
        self._closed = False
        self._start = time.monotonic()

    # ------------------------------------------------------------------ #
    # GraphService-compatible surface (what GraphServer consumes)
    # ------------------------------------------------------------------ #
    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def cum_input_edges(self) -> int:
        return self._cum_edges

    @property
    def fatal_error(self) -> BaseException | None:
        return self._fatal

    def submit_insert(self, edges, weights=None, timeout=None):
        raise NotWriterError(
            "this node is a read replica; send mutations to the writer")

    def submit_delete(self, edges, timeout=None):
        raise NotWriterError(
            "this node is a read replica; send mutations to the writer")

    def lag(self) -> tuple[int, int]:
        """(lag_seq, lag_edges) behind the last known writer cursor."""
        return (max(0, self.known_upstream_seq - self._applied_seq),
                max(0, self.known_upstream_cum - self._cum_edges))

    def read_staleness(self) -> dict:
        """Per-read staleness block (attached to every read response)."""
        lag_seq, lag_edges = self.lag()
        return {"lag_seq": lag_seq, "lag_edges": lag_edges,
                "upstream_seq": self.known_upstream_seq}

    def _shed_check(self) -> None:
        if self.max_lag_seq:
            lag_seq, _ = self.lag()
            if lag_seq > self.max_lag_seq:
                self.n_stale_sheds += 1
                if obs_hooks.enabled:
                    obs.get_registry().counter("repl.stale_sheds").inc()
                raise StaleReadError(
                    f"replica is {lag_seq} records behind the writer "
                    f"(SLO max_lag_seq={self.max_lag_seq}); retry on a "
                    f"fresher node")

    def health(self) -> dict:
        lag_seq, lag_edges = self.lag()
        snap = self._store.analytics_snapshot
        return {
            "role": "replica",
            "applied_seq": self._applied_seq,
            "cum_edges": self._cum_edges,
            "uptime_s": round(time.monotonic() - self._start, 3),
            "queue_depth": 0,
            "pending_edges": 0,
            "snapshot_generation": (snap.generation
                                    if snap is not None else None),
            "snapshot_pending_rows": (snap.pending_rows
                                      if snap is not None else 0),
            "shedding_reads": bool(self.max_lag_seq
                                   and lag_seq > self.max_lag_seq),
            "fatal": repr(self._fatal) if self._fatal else None,
            "replication": {
                "role": "replica",
                "upstream": self.upstream,
                "connected": self.link_connected,
                "upstream_seq": self.known_upstream_seq,
                "applied_seq": self._applied_seq,
                "lag_seq": lag_seq,
                "lag_edges": lag_edges,
                "n_applied_records": self.n_applied_records,
                "n_applied_edges": self.n_applied_edges,
                "n_resyncs": self.n_resyncs,
                "n_resubscribes": self.n_resubscribes,
                "n_stale_sheds": self.n_stale_sheds,
                "last_resync": self.last_resync,
                "last_batch_age_s": (
                    round(time.monotonic() - self.last_batch_at, 3)
                    if self.last_batch_at is not None else None),
            },
            "ok": self._fatal is None,
        }

    # ------------------------------------------------------------------ #
    # the replica's only write path
    # ------------------------------------------------------------------ #
    def apply_record(self, record: WalRecord) -> bool:
        """Apply one shipped record; False = already applied (skipped).

        WAL-first, like the writer: the record lands in the replica's
        local log before the store mutates, so a crash between the two
        replays it.  Appending in upstream order reproduces the
        *identical* seq/cum cursor — any parity break is divergence and
        raises :class:`ReplicationError` (the link resyncs).
        """
        with self._store_lock:
            if self._closed:
                raise ServiceError("replica service is closed")
            if record.seq <= self._applied_seq:
                return False  # idempotent catch-up skip
            return self._apply_locked(record)

    def _apply_locked(self, record: WalRecord) -> bool:
        if record.seq != self._applied_seq + 1:
            raise ReplicationError(
                f"replication stream gap: replica at {self._applied_seq}, "
                f"received record {record.seq}")
        seq = self._wal.append(record.op, record.edges, record.weights)
        if seq != record.seq or self._wal.cum_edges != record.cum_edges:
            raise ReplicationError(
                f"cursor divergence applying record {record.seq}: local "
                f"WAL produced (seq={seq}, cum={self._wal.cum_edges}), "
                f"upstream says (seq={record.seq}, "
                f"cum={record.cum_edges}) — resync required")
        if record.op == OP_INSERT:
            self._store.insert_batch(record.edges, record.weights)
        else:
            self._store.delete_batch(record.edges)
        self._applied_seq = seq
        self._cum_edges = int(record.cum_edges)
        self.n_applied_records += 1
        self.n_applied_edges += int(record.edges.shape[0])
        self._since_ckpt += 1
        if self.checkpoint_every and self._since_ckpt >= self.checkpoint_every:
            self.checkpoint()
        return True

    def checkpoint(self) -> Path:
        """Snapshot applied state; prunes the local WAL behind it."""
        with self._store_lock:
            path = self._ckpt.write(self._store, self._applied_seq,
                                    self._cum_edges)
            self._since_ckpt = 0
        return path

    # ------------------------------------------------------------------ #
    # full state transfer
    # ------------------------------------------------------------------ #
    def resync_from(self, payload: dict) -> None:
        """Replace all local state with a writer ``resync`` payload.

        The old WAL and checkpoints describe history this replica is
        abandoning (pruned-past cursor, or divergence) — both are
        deleted *before* the new state lands, and a fresh checkpoint is
        written at the shipped cursor before the WAL reopens, so a kill
        at any point recovers to either the old empty-directory state
        (restart resyncs again) or the complete new one.  Generation
        monotonicity survives the store swap via
        :meth:`~repro.engine.snapshot.AnalyticsSnapshot.rebase_generation`.
        """
        src = np.asarray(payload["src"], dtype=np.int64)
        dst = np.asarray(payload["dst"], dtype=np.int64)
        weight = np.asarray(payload["weight"], dtype=np.float64)
        last_seq = int(payload["last_seq"])
        cum_edges = int(payload["cum_edges"])
        expected = payload.get("digest") or {}
        with self._store_lock:
            old_snap = self._store.analytics_snapshot
            old_generation = old_snap.generation if old_snap else 0
            self._wal.close()
            for seg in list_segments(self.directory):
                seg.unlink(missing_ok=True)
            # Every old checkpoint goes: one at a *higher* seq than the
            # new cursor would win recovery and resurrect abandoned
            # history.
            for ckpt in list_checkpoints(self.directory):
                ckpt.unlink(missing_ok=True)
            store = GraphTinker(self._config if self._config is not None
                                else GTConfig())
            snap = store.enable_snapshot()
            edges = np.column_stack((src, dst))
            for lo in range(0, edges.shape[0], _RESYNC_CHUNK):
                hi = lo + _RESYNC_CHUNK
                store.insert_batch(edges[lo:hi], weight[lo:hi])
            local = store_digest(store)
            if expected and local["sha256"] != expected.get("sha256"):
                raise ReplicationError(
                    f"resync digest mismatch: writer shipped "
                    f"{expected.get('sha256')} ({expected.get('n_edges')} "
                    f"edges), replica rebuilt {local['sha256']} "
                    f"({local['n_edges']} edges)")
            snap.rebase_generation(old_generation)
            # Counters first: applied_seq is the lock-free "caught up"
            # signal, so an observer that sees the new cursor must also
            # see this resync counted.
            self.n_resyncs += 1
            self.last_resync = time.time()
            self._store = store
            self._applied_seq = last_seq
            self._cum_edges = cum_edges
            self._since_ckpt = 0
            # The shipped cursor IS the writer's position at capture
            # time: rebase the lag anchor on it rather than keeping a
            # stale (possibly higher, after a writer reset) estimate.
            self.known_upstream_seq = last_seq
            self.known_upstream_cum = cum_edges
            self._ckpt.write(store, last_seq, cum_edges)
            self._wal = WriteAheadLog(self.directory,
                                      min_last_seq=last_seq,
                                      min_cum_edges=cum_edges)
        if obs_hooks.enabled:
            obs.get_registry().counter("repl.resyncs").inc()
            get_recorder().record("repl.resync", last_seq=last_seq,
                                  n_edges=int(src.shape[0]))
        log.info(kv("resynced from writer", last_seq=last_seq,
                    n_edges=int(src.shape[0])))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def note_fatal(self, exc: BaseException) -> None:
        self._fatal = exc

    def close(self, checkpoint: bool = False) -> None:
        with self._store_lock:
            if self._closed:
                return
            if checkpoint:
                self._ckpt.write(self._store, self._applied_seq,
                                 self._cum_edges)
            self._closed = True
            self._wal.close()


class ReplicationLink(threading.Thread):
    """Background thread pulling the writer's WAL into one replica.

    Owns one dedicated :class:`~repro.net.client.GraphClient` (so its
    long-polls park no one else's requests).  The session loop survives
    every transient failure by design: disconnects resubscribe with
    jittered exponential backoff; cursor gaps and divergence resync;
    only a non-:class:`~repro.errors.ReproError` programming failure
    marks the replica fatal.
    """

    def __init__(self, replica: ReplicaService, host: str, port: int = 0, *,
                 port_file: str | Path | None = None,
                 replica_id: str | None = None,
                 poll_wait_s: float = DEFAULT_POLL_WAIT,
                 timeout: float = 30.0,
                 backoff: float = 0.1,
                 backoff_cap: float = 5.0,
                 rng: random.Random | None = None):
        super().__init__(name="replication-link", daemon=True)
        self.replica = replica
        self.replica_id = replica_id or f"replica-{replica.directory.name}"
        self.poll_wait_s = poll_wait_s
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._rng = rng or random.Random()
        self._client = GraphClient(host, port, port_file=port_file,
                                   timeout=timeout)
        self._halt = threading.Event()
        replica.upstream = {"host": host, "port": port,
                            "port_file": str(port_file) if port_file else None}

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        failures = 0
        while not self._halt.is_set():
            try:
                self._session()
                failures = 0
            except ReproError as exc:
                # Transient by policy: disconnects, writer restarts,
                # shed/breaker — anything typed.  Resubscribe after a
                # jittered backoff.
                self.replica.link_connected = False
                self.replica.n_resubscribes += 1
                failures += 1
                delay = backoff_delay(min(failures - 1, 10), self.backoff,
                                      self.backoff_cap, self._rng)
                if obs_hooks.enabled:
                    obs.get_registry().counter("repl.resubscribes").inc()
                    get_recorder().record("repl.resubscribe",
                                          error=repr(exc),
                                          delay_s=round(delay, 3))
                log.info(kv("replication session ended; resubscribing",
                            error=str(exc)[:200], delay_s=round(delay, 3)))
                self._halt.wait(delay)
            except Exception as exc:  # noqa: BLE001 - fatal wall
                self.replica.link_connected = False
                self.replica.note_fatal(exc)
                log.error(kv("replication link fatal", error=repr(exc)))
                return
            finally:
                self._client.close()
        self.replica.link_connected = False

    def stop(self, timeout: float = 10.0) -> None:
        self._halt.set()
        self.join(timeout)
        self._client.close()

    # ------------------------------------------------------------------ #
    def _session(self) -> None:
        """One subscribe→stream session; returns/raises on disconnect."""
        replica = self.replica
        client = self._client
        client.connect()
        try:
            sub = self._subscribe(client)
        except (CursorGapError, ReplicationError):
            sub = self._resync(client)
        replica.known_upstream_seq = max(replica.known_upstream_seq,
                                         int(sub["writer_seq"]))
        replica.known_upstream_cum = max(replica.known_upstream_cum,
                                         int(sub["writer_cum_edges"]))
        replica.link_connected = True
        digest_checked = False
        while not self._halt.is_set():
            batch = client.call("wal_batch",
                                {"max_records": DEFAULT_PULL_RECORDS,
                                 "wait_s": self.poll_wait_s})
            writer_seq = int(batch["writer_seq"])
            replica.known_upstream_seq = max(replica.known_upstream_seq,
                                             writer_seq)
            records = batch["records"]
            try:
                for wire in records:
                    record = wal_record_from_wire(wire)
                    replica.apply_record(record)
                if not digest_checked and replica.applied_seq >= writer_seq:
                    self._cross_check(client)
                    digest_checked = True
            except ReplicationError:
                # Divergence (a record that does not chain, or a digest
                # mismatch at an equal cursor): abandon local history,
                # take the full state transfer, stream on from the
                # shipped cursor and check the digest again.
                self._resync(client)
                digest_checked = False
                continue
            replica.known_upstream_cum = max(replica.known_upstream_cum,
                                             replica.cum_input_edges)
            replica.last_batch_at = time.monotonic()
            self._report_status(client)
            self._update_gauges()

    def _resync(self, client: GraphClient) -> dict:
        """Full state transfer, then subscribe at the shipped cursor."""
        self.replica.resync_from(client.call("resync", {}))
        return self._subscribe(client)

    def _subscribe(self, client: GraphClient) -> dict:
        replica = self.replica
        return client.call("subscribe", {
            "after_seq": replica.applied_seq,
            "cum_edges": replica.cum_input_edges,
            "replica_id": self.replica_id,
        })

    def _report_status(self, client: GraphClient) -> None:
        replica = self.replica
        snap = replica._store.analytics_snapshot
        status = client.call("replica_status", {
            "replica_id": self.replica_id,
            "applied_seq": replica.applied_seq,
            "cum_edges": replica.cum_input_edges,
            "generation": snap.generation if snap is not None else None,
        })
        replica.known_upstream_seq = max(replica.known_upstream_seq,
                                         int(status["writer_seq"]))

    def _update_gauges(self) -> None:
        if not obs_hooks.enabled:
            return
        lag_seq, lag_edges = self.replica.lag()
        registry = obs.get_registry()
        registry.gauge("repl.lag_seq").set(lag_seq)
        registry.gauge("repl.lag_edges").set(lag_edges)

    def _cross_check(self, client: GraphClient) -> None:
        """Digest the writer and compare — only at equal cursors.

        The writer's ``digest`` op reports the cursor its digest was
        taken at; if ingest moved past us between our catch-up and the
        digest, the comparison is meaningless and is skipped (the next
        session retries).  An actual mismatch at an equal cursor is
        silent divergence: raise, and the session resyncs.
        """
        replica = self.replica
        remote = client.call("digest")
        if int(remote.get("applied_seq", -1)) != replica.applied_seq:
            return
        with replica._store_lock:
            local = store_digest(replica._store)
        if local["sha256"] != remote["sha256"]:
            raise ReplicationError(
                f"post-catch-up digest mismatch at seq "
                f"{replica.applied_seq}: writer {remote['sha256']} "
                f"({remote['n_edges']} edges) vs replica "
                f"{local['sha256']} ({local['n_edges']} edges)")
        if obs_hooks.enabled:
            get_recorder().record("repl.digest_ok",
                                  applied_seq=replica.applied_seq)
        log.info(kv("catch-up digest verified",
                    applied_seq=replica.applied_seq,
                    n_edges=local["n_edges"]))


class ReplicaServer:
    """One read replica: service + serving thread + replication link.

    ``start()`` brings all three up (serving port is bound before the
    link starts, so health is observable during initial catch-up);
    ``stop()`` tears them down link-first and closes the service with a
    final checkpoint, making the next start's recovery instant.
    """

    def __init__(self, directory: str | Path, upstream_host: str,
                 upstream_port: int = 0, *,
                 upstream_port_file: str | Path | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 replica_id: str | None = None,
                 config: GTConfig | None = None,
                 max_lag_seq: int = 0,
                 checkpoint_every: int = 0,
                 poll_wait_s: float = DEFAULT_POLL_WAIT,
                 backoff: float = 0.1,
                 backoff_cap: float = 5.0,
                 timeout: float = 30.0,
                 **server_kwargs):
        from repro.net.server import ServerThread

        self.service = ReplicaService(directory, config=config,
                                      max_lag_seq=max_lag_seq,
                                      checkpoint_every=checkpoint_every)
        self.link = ReplicationLink(self.service, upstream_host,
                                    upstream_port,
                                    port_file=upstream_port_file,
                                    replica_id=replica_id,
                                    poll_wait_s=poll_wait_s,
                                    backoff=backoff,
                                    backoff_cap=backoff_cap,
                                    timeout=timeout)
        self.thread = ServerThread(self.service, host, port, **server_kwargs)

    @property
    def port(self) -> int:
        return self.thread.port

    @property
    def host(self) -> str:
        return self.thread.host

    def start(self, timeout: float = 10.0) -> "ReplicaServer":
        self.thread.start(timeout)
        self.link.start()
        return self

    def wait_caught_up(self, target_seq: int, timeout: float = 30.0) -> bool:
        """Block until the replica applied ``target_seq`` (True) or
        the deadline passed (False).  Test/ops convenience."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.service.applied_seq >= target_seq:
                return True
            if self.service.fatal_error is not None:
                return False
            time.sleep(0.01)
        return self.service.applied_seq >= target_seq

    def stop(self, *, checkpoint: bool = True) -> None:
        self.link.stop()
        self.thread.stop()
        self.service.close(checkpoint=checkpoint)

    def __enter__(self) -> "ReplicaServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
