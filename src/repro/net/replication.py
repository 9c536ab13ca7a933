"""WAL-shipping read replicas: the link that follows a writer's log.

The replication plane (docs/network.md "Replication") is pull-based: a
replica opens one dedicated connection to the writer, ``subscribe``\\ s
with its ``{seq, cum_edges}`` cursor, and long-polls ``wal_batch`` for
the records after it.  The replica is a
:class:`~repro.service.GraphService` opened with ``follower=True``
(served by the unmodified :class:`~repro.net.server.GraphServer`): its
one write entry, :meth:`~repro.service.GraphService.apply_record`, logs
each shipped record in its own directory and applies it as a flush and
recovery do, so ``kill -9`` at any instant recovers by the ordinary
:func:`~repro.service.recovery.recover`, whose cursor is exactly the
resubscribe point.  Two classes drive it:

* :class:`ReplicationLink` — the background thread that talks to the
  writer: subscribe → pull → apply → report status, resubscribing with
  jittered exponential backoff on disconnect, falling back to a full
  ``resync`` state transfer on :class:`~repro.errors.CursorGapError`
  (the writer pruned our history) or any
  :class:`~repro.errors.ReplicationError` (cursor divergence, digest
  mismatch).  After catching up to the writer's cursor it cross-checks
  ``store_digest`` equality once per session — silent divergence dies
  here, loudly.
* :class:`ReplicaServer` — one follower service, one serving
  :class:`~repro.net.server.ServerThread` and one
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

import repro.obs as obs
from repro.core.config import GTConfig
from repro.core.store import store_digest
from repro.errors import CursorGapError, ReplicationError, ReproError
from repro.net.client import GraphClient
from repro.net.protocol import wal_record_from_wire
from repro.net.session import backoff_delay
from repro.obs import hooks as obs_hooks
from repro.obs.log import get_logger, kv
from repro.obs.recorder import get_recorder
from repro.service.service import GraphService

log = get_logger("net.replication")

#: How long one ``wal_batch`` long-poll parks on the writer (seconds).
#: Short enough that stop/lag bookkeeping stays responsive.
DEFAULT_POLL_WAIT = 1.0

#: Records pulled per batch by default.
DEFAULT_PULL_RECORDS = 512


class ReplicationLink(threading.Thread):
    """Background thread pulling the writer's WAL into one replica.

    Owns one dedicated :class:`~repro.net.client.GraphClient` (so its
    long-polls park no one else's requests).  The session loop survives
    every transient failure by design: disconnects resubscribe with
    jittered exponential backoff; cursor gaps and divergence resync;
    only a non-:class:`~repro.errors.ReproError` programming failure
    marks the replica fatal.
    """

    def __init__(self, replica: GraphService, host: str, port: int = 0, *,
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
                self.replica._fatal = exc
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

        self.service, _ = GraphService.open(
            directory, config, follower=True, max_lag_seq=max_lag_seq,
            checkpoint_every=checkpoint_every)
        self.link = ReplicationLink(
            self.service, upstream_host, upstream_port,
            port_file=upstream_port_file, replica_id=replica_id,
            poll_wait_s=poll_wait_s, backoff=backoff,
            backoff_cap=backoff_cap, timeout=timeout)
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
