"""GraphService: a durable, batching ingest/query frontend.

The service turns the library's batch-oriented store into something a
multi-threaded application can talk to:

* **Ingest** — :meth:`GraphService.submit_insert` / ``submit_delete``
  enqueue work from any thread and return a :class:`Ticket`.  A single
  flusher thread coalesces queued requests into micro-batches of up to
  ``batch_edges`` rows and is **self-clocked**: it flushes as soon as
  the previous flush has returned, so whatever arrived during the last
  fsync + apply *is* the next group commit (``flush_interval``, default
  0, caps an optional linger on a lone request; no command sets it).
  Each micro-batch commits **WAL-first**: append + sync, then apply to
  the store, then complete the tickets.  A ticket that resolves is
  durable.
* **Backpressure** — the queue is bounded at ``queue_limit`` pending
  requests; a full queue blocks submitters up to ``submit_timeout``
  seconds, then raises :class:`~repro.errors.ServiceError`.
* **Reads** — degree/neighbors/edge-count/analytics take the store lock
  the flusher applies under, so a reader never observes half of a
  micro-batch (snapshot consistency at batch granularity).
* **Durability lifecycle** — :meth:`checkpoint` snapshots the store with
  its WAL cursor and prunes the log behind it (``checkpoint_every``
  automates this per applied record count);
  :meth:`GraphService.open` recovers a directory (checkpoint + WAL tail
  replay) and resumes serving where the last process stopped.

Instrumented through :mod:`repro.obs` (``service.queue.*``,
``service.flush.*``, ``service.wal.*`` plus a span per flush) — all
no-ops while observability is down, like every other hook in the repo.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.store import store_from_config
from repro.errors import (
    BreakerOpenError,
    QueueFullError,
    ServiceError,
    ShedError,
)
from repro.obs import hooks as obs_hooks
from repro.obs.log import get_logger, kv
from repro.obs.recorder import blackbox_path, get_recorder
from repro.obs.timeseries import MetricsSampler, TimeSeriesRing
from repro.service.checkpoint import CheckpointManager, list_checkpoints
from repro.service.recovery import RecoveryResult, recover
from repro.service.wal import (
    DEFAULT_SEGMENT_BYTES,
    OP_DELETE,
    OP_INSERT,
    WriteAheadLog,
)

#: Exponential backoff between WAL retries: base delay and cap (seconds).
RETRY_BASE = 0.01
RETRY_CAP = 0.5
#: Samples the optional time-series ring holds (``sample_interval > 0``).
SAMPLE_CAPACITY = 256

log = get_logger("service")


class Ticket:
    """Completion handle for one submitted batch.

    :meth:`wait` blocks until the batch's micro-batch flush has made it
    durable (WAL-synced and applied), returning the WAL sequence that
    carries it — or re-raising the failure that killed the flush.
    :meth:`add_done_callback` delivers the same without a parked thread.
    """

    __slots__ = ("_event", "_lock", "_callbacks", "seq", "error")

    def __init__(self):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: list = []
        self.seq: int | None = None
        self.error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> int:
        if not self._event.wait(timeout):
            raise ServiceError(f"batch not durable after {timeout}s")
        if self.error is not None:
            raise self.error
        return self.seq

    def add_done_callback(self, fn) -> None:
        """Call ``fn(ticket)`` exactly once, ``seq`` / ``error`` set: on
        the flusher thread when the ticket resolves (maybe under the
        queue lock — only hand off), or right here if it already has.
        What ``fn`` raises is logged and swallowed: a consumer that went
        away must not fail the flush that served it."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        self._call(fn)

    def _call(self, fn) -> None:
        try:
            fn(self)
        except Exception as exc:  # noqa: BLE001 - isolate the flusher
            log.warning(kv("ticket callback failed", error=repr(exc)))
            if obs_hooks.enabled:
                obs.get_registry().counter(
                    "service.ticket.callback_errors").inc()

    def _resolve(self, seq: int | None, error: BaseException | None) -> None:
        with self._lock:
            self.seq = seq
            self.error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._call(fn)


class _Request:
    __slots__ = ("op", "edges", "weights", "ticket", "ts")

    def __init__(self, op: int, edges: np.ndarray, weights: np.ndarray | None):
        self.op = op
        self.edges = edges
        self.weights = weights
        self.ticket = Ticket()
        self.ts = time.monotonic()


class GraphService:
    """Durable frontend over one graph store (see module docstring).

    Any :class:`repro.core.store.Store` backend serves: pass a ``store``
    directly, or a backend config (``GTConfig`` / ``StingerConfig`` /
    ``TieredConfig``) and the matching backend is built via
    :func:`repro.core.store.store_from_config`.  The default remains the
    paper's GraphTinker.

    Build fresh services on *clean* directories directly; anything with
    history goes through :meth:`GraphService.open`, which recovers first.
    The constructor refuses a store/WAL cursor mismatch rather than
    silently double-applying the log.
    """

    def __init__(self, directory: str | Path, *,
                 store=None,
                 config=None,
                 wal: WriteAheadLog | None = None,
                 batch_edges: int = 2048,
                 flush_interval: float = 0.0,
                 queue_limit: int = 256,
                 submit_timeout: float = 5.0,
                 sync: str = "batch",
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 checkpoint_every: int = 0,
                 checkpoint_keep: int = 2,
                 applied_seq: int = 0,
                 cum_edges: int = 0,
                 max_retries: int = 0,
                 breaker_threshold: int = 0,
                 breaker_reset: float = 1.0,
                 shed_reads_at: int = 0,
                 sample_interval: float = 0.0,
                 injector=None):
        if batch_edges < 1:
            raise ServiceError("batch_edges must be >= 1")
        if queue_limit < 1:
            raise ServiceError("queue_limit must be >= 1")
        if max_retries < 0:
            raise ServiceError("max_retries must be >= 0")
        if breaker_threshold < 0:
            raise ServiceError("breaker_threshold must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._store = store if store is not None else store_from_config(config)
        if wal is None:
            # One log whatever the backend: the store config says how many
            # shard chains it has (none for an unsharded store) and the
            # injector, if any, picks the fault-injecting variant.
            store_config = getattr(self._store, "config", None)
            n_shards = getattr(store_config, "n_shards", 0)
            wal_cls, fault = WriteAheadLog, {}
            if injector is not None:
                if n_shards:
                    raise ServiceError(
                        "WAL fault injection is not supported with a sharded "
                        "store (per-shard logs; inject into a plain backend)")
                from repro.service.faults import (
                    FaultyWriteAheadLog,
                    FlakyWriteAheadLog,
                    TransientFaultInjector,
                )

                wal_cls = (FlakyWriteAheadLog
                           if isinstance(injector, TransientFaultInjector)
                           else FaultyWriteAheadLog)
                fault = {"injector": injector}
            wal = wal_cls(
                self.directory, n_shards=n_shards,
                seed=getattr(store_config, "seed", 0),
                segment_bytes=segment_bytes, sync=sync,
                min_last_seq=applied_seq, min_cum_edges=cum_edges, **fault)
        self._wal = wal
        if self._wal.last_seq != applied_seq:
            raise ServiceError(
                f"{self.directory}: WAL ends at sequence {self._wal.last_seq} "
                f"but the store reflects {applied_seq} — recover first "
                f"(GraphService.open) instead of constructing directly"
            )
        self.batch_edges = batch_edges
        self.flush_interval = flush_interval
        self.queue_limit = queue_limit
        self.submit_timeout = submit_timeout
        self.sync_policy = sync
        self.checkpoint_every = checkpoint_every
        self.max_retries = max_retries
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self.shed_reads_at = shed_reads_at
        self._ckpt = CheckpointManager(self.directory, keep=checkpoint_keep)
        self._applied_seq = applied_seq
        self._cum_edges = cum_edges
        self._last_ckpt_seq = applied_seq

        self._breaker_state = "closed"
        self._breaker_failures = 0
        self._breaker_opened_at = 0.0
        self._last_fsck = None
        self._started_at = time.monotonic()
        self._last_ckpt_at: float | None = None

        self._store_lock = threading.RLock()
        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._pending_edges = 0
        self._flushing = False
        self._force_flush = False
        self._stop = False
        self._closed = False
        self._fatal: BaseException | None = None
        self.n_flushes = 0
        self._thread = threading.Thread(target=self._flusher_loop,
                                        name="graph-service-flusher",
                                        daemon=True)
        self._thread.start()
        # Optional background time-series sampler (off by default): tracks
        # the service vitals docs/observability.md names, into a ring the
        # health() snapshot and `repro top` can read back.
        self._sampler: MetricsSampler | None = None
        if sample_interval > 0:
            self._sampler = self._build_sampler(sample_interval)
            self._sampler.start()

    def _build_sampler(self, interval: float) -> MetricsSampler:
        ring = TimeSeriesRing(capacity=SAMPLE_CAPACITY)
        sampler = MetricsSampler(ring=ring, interval=interval)
        sampler.add_gauge("queue_depth", lambda: len(self._queue))
        sampler.add_gauge("pending_edges", lambda: self._pending_edges)
        sampler.add_rate("ingest_edges_per_s", lambda: self._wal.cum_edges)
        sampler.add_gauge(
            "breaker_state",
            lambda: {"closed": 0.0, "half-open": 1.0,
                     "open": 2.0}[self._breaker_state])
        sampler.add_gauge(
            "wal_fsync_p99_ms",
            lambda: obs.get_registry().quantile(
                "service.wal.fsync_ms").quantile(0.99))
        sampler.add_gauge(
            "flush_p99_ms",
            lambda: obs.get_registry().quantile(
                "service.flush.ms").quantile(0.99))
        return sampler

    @property
    def timeseries(self) -> TimeSeriesRing | None:
        """The sampler's ring, when ``sample_interval > 0`` (else None)."""
        return self._sampler.ring if self._sampler is not None else None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, directory: str | Path, config=None,
             verify: str | None = "quick",
             **kwargs) -> tuple["GraphService", RecoveryResult]:
        """Recover ``directory`` and serve from the recovered state.

        Returns ``(service, recovery_result)`` so drivers can see what
        was replayed (and where a deterministic input stream resumes:
        ``recovery_result.cum_edges``).  A fresh/empty directory recovers
        to an empty store at sequence 0.

        ``verify`` is the post-recovery fsck level (see
        :func:`repro.service.recovery.recover`); its outcome lands in
        ``recovery_result.fsck`` and in the service's :meth:`health`
        snapshot.  A violated store still serves — refusing is the
        caller's decision (``python -m repro fsck`` exists for that).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        result = recover(directory, config=config, verify=verify)
        service = cls(directory, store=result.store,
                      applied_seq=result.last_seq, cum_edges=result.cum_edges,
                      **kwargs)
        if result.fsck is not None:
            service._note_fsck(result.fsck)
        return service, result

    @property
    def fatal_error(self) -> BaseException | None:
        """The failure that stopped the flusher, if any."""
        return self._fatal

    @property
    def applied_seq(self) -> int:
        """Last WAL sequence the store reflects."""
        with self._cond:
            return self._applied_seq

    @property
    def cum_input_edges(self) -> int:
        """Total input rows made durable (the stream-resume offset)."""
        with self._cond:
            return self._cum_edges

    def close(self, checkpoint: bool = False) -> None:
        """Flush the queue, stop the flusher, sync + close the WAL.

        Shutdown ordering is load-bearing and explicit:

        1. stop accepting new submissions (``_stop``; in-flight queued
           batches stay queued),
        2. the flusher drains every queued micro-batch — each one is
           WAL-appended, applied, and its tickets resolved,
        3. the drained log is **fsynced** (even under the ``"batch"`` /
           ``"never"`` policies, whose steady-state flushes defer or skip
           fsync) *before* any finalization touches the directory — a
           ticket that resolved durable must survive a crash immediately
           after ``close()`` returns, whatever the fsync policy was,
        4. only then the optional final checkpoint (which prunes the log)
           and the WAL close run.

        ``checkpoint=True`` additionally snapshots the final state (which
        prunes the WAL down to nothing worth replaying).  Idempotent:
        later calls return immediately (a ``checkpoint=True`` on a second
        call is ignored — the service already finalized).
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._stop = True
            self._cond.notify_all()
        if self._sampler is not None:
            self._sampler.stop()
        self._thread.join()
        if self._fatal is None:
            # Step 3: the drain's durability point.  The per-flush path
            # honored sync_policy; the close path must not leave resolved
            # tickets hostage to the page cache.
            self._wal_op(self._wal.sync)
        if checkpoint and self._fatal is None:
            self.checkpoint()
        self._wal.close()

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def submit_insert(self, edges: np.ndarray,
                      weights: np.ndarray | None = None,
                      timeout: float | None = None) -> Ticket:
        """Enqueue an insert batch; returns its durability :class:`Ticket`."""
        return self._submit(OP_INSERT, edges, weights, timeout)

    def submit_delete(self, edges: np.ndarray,
                      timeout: float | None = None) -> Ticket:
        """Enqueue a delete batch; returns its durability :class:`Ticket`."""
        return self._submit(OP_DELETE, edges, None, timeout)

    def _submit(self, op: int, edges: np.ndarray,
                weights: np.ndarray | None, timeout: float | None) -> Ticket:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ServiceError("submitted edges must have shape (n, 2)")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != edges.shape[0]:
                raise ServiceError("weights length must match edge count")
        request = _Request(op, edges, weights)
        timeout = self.submit_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        with self._cond:
            self._check_alive()
            self._breaker_guard()
            while len(self._queue) >= self.queue_limit:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    if obs_hooks.enabled:
                        obs.get_registry().counter(
                            "service.queue.rejected").inc()
                    raise QueueFullError(
                        f"queue full ({self.queue_limit} pending batches) "
                        f"for {timeout}s — backpressure timeout; slow down "
                        f"or raise queue_limit/batch_edges"
                    )
                self._check_alive()
            self._check_alive()
            self._queue.append(request)
            self._pending_edges += edges.shape[0]
            depth = len(self._queue)
            self._cond.notify_all()
        if obs_hooks.enabled:
            registry = obs.get_registry()
            registry.counter("service.queue.enqueued").inc()
            registry.gauge("service.queue.depth").set(depth)
        return request.ticket

    def _check_alive(self) -> None:
        if self._fatal is not None:
            raise ServiceError(
                f"service stopped after flush failure: {self._fatal}"
            ) from self._fatal
        if self._stop:
            raise ServiceError("service is closed")

    def _breaker_guard(self) -> None:
        """Fail fast while the breaker is open (call under ``_cond``).

        After ``breaker_reset`` seconds of open time the breaker moves to
        half-open: the guard lets one submission through and the next
        flush becomes the probe — success re-closes the breaker, another
        transient failure re-opens it with a fresh timer.
        """
        if self._breaker_state != "open":
            return
        elapsed = time.monotonic() - self._breaker_opened_at
        if elapsed >= self.breaker_reset:
            self._breaker_state = "half-open"
            if obs_hooks.enabled:
                obs.get_registry().counter("service.breaker.half_open").inc()
                get_recorder().record("breaker.half_open",
                                      open_for_s=round(elapsed, 4))
            return
        if obs_hooks.enabled:
            obs.get_registry().counter("service.breaker.fast_fail").inc()
        raise BreakerOpenError(
            f"circuit breaker open after {self._breaker_failures} "
            f"consecutive flush failures; retry in "
            f"{self.breaker_reset - elapsed:.2f}s"
        )

    def flush_now(self, timeout: float | None = None) -> None:
        """Block until everything currently queued is durable."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._force_flush = True
            self._cond.notify_all()
            while self._queue or self._flushing:
                if self._fatal is not None:
                    break
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServiceError(f"flush_now timed out after {timeout}s")
                self._cond.wait(remaining)
            if self._fatal is not None:
                raise ServiceError(
                    f"service stopped after flush failure: {self._fatal}"
                ) from self._fatal
            if self._breaker_state == "open":
                raise BreakerOpenError(
                    f"circuit breaker open after {self._breaker_failures} "
                    f"consecutive flush failures; queued work was rejected")

    # ------------------------------------------------------------------ #
    # flusher
    # ------------------------------------------------------------------ #
    def _flusher_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._queue or self._stop)
                if not self._queue:
                    break  # stopping with a drained queue
                # Self-clocked: at the default linger of 0 this returns at
                # once — the batch is what queued during the last flush.
                deadline = self._queue[0].ts + self.flush_interval
                self._cond.wait_for(
                    lambda: (self._stop or self._force_flush
                             or self._pending_edges >= self.batch_edges),
                    timeout=max(0.0, deadline - time.monotonic()),
                )
                # Drain at most ~batch_edges rows (always at least one
                # request): micro-batches stay bounded even when
                # submitters outrun the flusher, so the WAL fills with
                # incremental records instead of one giant one.
                batch: list[_Request] = []
                taken = 0
                while self._queue and (not batch or taken < self.batch_edges):
                    request = self._queue.popleft()
                    batch.append(request)
                    taken += request.edges.shape[0]
                self._pending_edges -= taken
                self._force_flush = bool(self._queue) and self._force_flush
                self._flushing = True
                self._cond.notify_all()
            try:
                self._flush(batch)
            except OSError as exc:
                # Transient I/O kind (real disk errors and injected ones
                # travel as OSError).  With a breaker configured the
                # service survives: this batch fails, the breaker counts
                # it, and enough consecutive failures trip it open.
                # Without a breaker, keep PR 2's fail-stop semantics.
                if self.breaker_threshold > 0:
                    self._flush_failed(batch, exc)
                    continue
                self._go_fatal(batch, exc)
                return
            except Exception as exc:  # noqa: BLE001 - flusher is the fault wall
                self._go_fatal(batch, exc)
                return
            with self._cond:
                self._flushing = False
                if self._breaker_failures or self._breaker_state != "closed":
                    reopened = self._breaker_state != "closed"
                    self._breaker_state = "closed"
                    self._breaker_failures = 0
                    if obs_hooks.enabled:
                        obs.get_registry().counter(
                            "service.breaker.closed").inc()
                        if reopened:
                            get_recorder().record("breaker.close")
                self._cond.notify_all()

    def _go_fatal(self, batch: list[_Request], exc: BaseException) -> None:
        with self._cond:
            self._fatal = exc
            self._flushing = False
            for request in [*batch, *self._queue]:
                request.ticket._resolve(None, exc)
            self._queue.clear()
            self._pending_edges = 0
            self._cond.notify_all()
        if obs_hooks.enabled:
            get_recorder().record("service.fatal", error=repr(exc),
                                  n_requests=len(batch))
            self._dump_blackbox("fatal", error=repr(exc))

    def _dump_blackbox(self, reason: str, **context) -> None:
        """Best-effort flight-recorder post-mortem in the service dir.

        Gated on the master switch by the callers; a dump that fails
        (disk full, directory gone) must never mask the original fault.
        """
        try:
            get_recorder().dump(
                blackbox_path(self.directory, reason), reason,
                directory=str(self.directory), **context)
        except Exception:  # noqa: BLE001 - post-mortem is best-effort
            pass

    def _flush_failed(self, batch: list[_Request], exc: BaseException) -> None:
        """Record one non-fatal flush failure; maybe trip the breaker."""
        with self._cond:
            self._flushing = False
            for request in batch:
                request.ticket._resolve(None, exc)
            self._breaker_failures += 1
            tripped = self._breaker_failures >= self.breaker_threshold
            if tripped:
                self._breaker_state = "open"
                self._breaker_opened_at = time.monotonic()
                # Everything still queued would hit the same wall; fail
                # it fast rather than letting tickets hang.
                error = BreakerOpenError(
                    f"circuit breaker opened after "
                    f"{self._breaker_failures} consecutive flush "
                    f"failures (last: {exc})")
                error.__cause__ = exc
                for request in self._queue:
                    request.ticket._resolve(None, error)
                self._queue.clear()
                self._pending_edges = 0
            self._cond.notify_all()
        if obs_hooks.enabled:
            registry = obs.get_registry()
            registry.counter("service.breaker.failures").inc()
            get_recorder().record("flush.failed", error=repr(exc),
                                  consecutive=self._breaker_failures)
            if tripped:
                registry.counter("service.breaker.opened").inc()
                get_recorder().record(
                    "breaker.open", consecutive=self._breaker_failures,
                    threshold=self.breaker_threshold, error=repr(exc))
                self._dump_blackbox("breaker-open", error=repr(exc))

    def _wal_op(self, fn):
        """Run one WAL operation with exponential backoff + jitter.

        Only ``OSError`` (the transient I/O kind) is retried; anything
        else propagates immediately.  ``max_retries == 0`` (the default)
        makes this a plain call.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except OSError:
                if attempt >= self.max_retries:
                    raise
                delay = min(RETRY_CAP, RETRY_BASE * (2 ** attempt))
                # Full jitter on [delay/2, delay]: desynchronises retry
                # storms without ever collapsing the backoff to zero.
                delay *= 0.5 + random.random() / 2
                attempt += 1
                if obs_hooks.enabled:
                    obs.get_registry().counter("service.wal.retries").inc()
                    get_recorder().record("wal.retry", attempt=attempt,
                                          delay_s=round(delay, 4))
                time.sleep(delay)

    @staticmethod
    def _coalesce(batch: list[_Request]) -> list[tuple[int, np.ndarray,
                                                       np.ndarray | None,
                                                       list[_Request]]]:
        """Merge consecutive same-op requests (order preserved)."""
        groups = []
        for request in batch:
            if groups and groups[-1][0] == request.op:
                groups[-1][3].append(request)
            else:
                groups.append((request.op, None, None, [request]))
        out = []
        for op, _, _, members in groups:
            edges = np.concatenate([m.edges for m in members]) \
                if len(members) > 1 else members[0].edges
            if op == OP_INSERT:
                weights = np.concatenate([
                    m.weights if m.weights is not None
                    else np.ones(m.edges.shape[0], dtype=np.float64)
                    for m in members
                ]) if len(members) > 1 else members[0].weights
            else:
                weights = None
            out.append((op, edges, weights, members))
        return out

    def _flush(self, batch: list[_Request]) -> None:
        n_edges = sum(r.edges.shape[0] for r in batch)
        start = time.monotonic()
        with obs.span("service.flush", n_requests=len(batch), n_edges=n_edges):
            groups = self._coalesce(batch)
            # WAL first: nothing touches the store until the log carries it.
            # Each WAL call retries individually: a failed append rolls its
            # partial bytes back and does not advance the sequence, so
            # re-running exactly that append is safe — retrying the whole
            # flush would duplicate the records that already landed.
            seqs: list[tuple[int, list[_Request]]] = []
            for op, edges, weights, members in groups:
                seq = self._wal_op(
                    lambda op=op, edges=edges, weights=weights:
                    self._wal.append(op, edges, weights))
                seqs.append((seq, members))
            if self.sync_policy == "batch":
                self._wal_op(self._wal.sync)
            with self._store_lock:
                for op, edges, weights, _ in groups:
                    if op == OP_INSERT:
                        self._store.insert_batch(edges, weights)
                    else:
                        self._store.delete_batch(edges)
                with self._cond:
                    self._applied_seq = self._wal.last_seq
                    self._cum_edges = self._wal.cum_edges
        for seq, members in seqs:
            for request in members:
                request.ticket._resolve(seq, None)
        self.n_flushes += 1
        if obs_hooks.enabled:
            registry = obs.get_registry()
            registry.counter("service.flush.batches").inc()
            registry.counter("service.flush.edges").inc(n_edges)
            registry.quantile(
                "service.flush.requests", "coalesced requests per flush"
            ).record(len(batch))
            registry.quantile(
                "service.flush.ms", "micro-batch flush wall latency (ms)"
            ).record((time.monotonic() - start) * 1e3)
            registry.gauge("service.queue.depth").set(len(self._queue))
        if (self.checkpoint_every
                and self._applied_seq - self._last_ckpt_seq >= self.checkpoint_every):
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> Path:
        """Snapshot the applied state and prune the WAL behind it."""
        with self._store_lock:
            with self._cond:
                seq, cum = self._applied_seq, self._cum_edges
            path = self._ckpt.write(self._store, seq, cum,
                                    meta=self._wal.checkpoint_meta())
            self._last_ckpt_seq = seq
            self._last_ckpt_at = time.monotonic()
        if obs_hooks.enabled:
            registry = obs.get_registry()
            registry.counter("service.checkpoint.count").inc()
            registry.gauge("service.checkpoint.seq").set(seq)
            get_recorder().record("service.checkpoint", seq=seq,
                                  cum_edges=cum)
        return path

    # ------------------------------------------------------------------ #
    # integrity & health
    # ------------------------------------------------------------------ #
    def _note_fsck(self, report) -> None:
        with self._cond:
            self._last_fsck = {
                "level": report.level,
                "ok": report.ok,
                "violations": len(report.violations),
                "at": time.time(),
            }
        if obs_hooks.enabled:
            obs.get_registry().gauge("service.fsck.violations").set(
                len(report.violations))
            if not report.ok:
                get_recorder().record("fsck", level=report.level,
                                      violations=len(report.violations))

    def run_fsck(self, level: str = "quick", repair: bool = False):
        """Audit the live store under the store lock; record the outcome.

        Returns the :class:`~repro.core.verify.VerifyReport` (or
        :class:`~repro.core.verify.RepairReport` with ``repair=True``);
        the summary also lands in :meth:`health`.
        """
        with self._store_lock:
            result = self._store.fsck(level=level, repair=repair)
        self._note_fsck(result.final if repair else result)
        return result

    def _checkpoint_age_s(self) -> float | None:
        """Seconds since the last checkpoint, or ``None`` if never.

        A service that has not checkpointed *this process* falls back to
        the newest checkpoint file on disk (a recovered service inherits
        its predecessor's checkpoint).
        """
        if self._last_ckpt_at is not None:
            return time.monotonic() - self._last_ckpt_at
        try:
            checkpoints = list_checkpoints(self.directory)
        except OSError:
            return None
        if not checkpoints:
            return None
        return max(0.0, time.time() - checkpoints[-1].stat().st_mtime)

    def health(self) -> dict:
        """Point-in-time service status snapshot (cheap; lock-light).

        ``ok`` means: flusher alive, breaker closed, and the last fsck
        (if any ran) found nothing.  ``last_event`` is the most recent
        flight-recorder event (None while observability is down or quiet);
        ``timeseries`` summarises the sampler ring when one is running.
        """
        with self._cond:
            snapshot = {
                "queue_depth": len(self._queue),
                "pending_edges": self._pending_edges,
                "queue_limit": self.queue_limit,
                "applied_seq": self._applied_seq,
                "cum_edges": self._cum_edges,
                "n_flushes": self.n_flushes,
                "uptime_s": time.monotonic() - self._started_at,
                "breaker": {
                    "state": self._breaker_state,
                    "consecutive_failures": self._breaker_failures,
                    "threshold": self.breaker_threshold,
                },
                "fatal": str(self._fatal) if self._fatal else None,
                "last_fsck": dict(self._last_fsck) if self._last_fsck else None,
                "shedding_reads": (self.shed_reads_at > 0
                                   and len(self._queue) >= self.shed_reads_at),
            }
        snapshot["last_checkpoint_age_s"] = self._checkpoint_age_s()
        # Staleness observability for the snapshot-serving read path:
        # which view version readers are being served, and how many rows
        # the next sync would have to re-measure to catch up.
        snap = self._store.analytics_snapshot
        snapshot["snapshot_generation"] = (
            snap.generation if snap is not None else None)
        snapshot["snapshot_pending_rows"] = (
            snap.pending_rows if snap is not None else None)
        snapshot["last_event"] = get_recorder().last_event()
        if self._sampler is not None:
            snapshot["timeseries"] = self._sampler.ring.summary()
        snapshot["ok"] = (snapshot["fatal"] is None
                          and snapshot["breaker"]["state"] == "closed"
                          and (snapshot["last_fsck"] is None
                               or snapshot["last_fsck"]["ok"]))
        return snapshot

    # ------------------------------------------------------------------ #
    # snapshot-consistent reads
    # ------------------------------------------------------------------ #
    def _shed_check(self) -> None:
        """Reject reads while the ingest queue is over the shed mark.

        Under overload the store lock is the contended resource; reads
        walking the store would stall the flusher further.  Off by
        default (``shed_reads_at == 0``).
        """
        if self.shed_reads_at <= 0:
            return
        with self._cond:
            depth = len(self._queue)
        if depth >= self.shed_reads_at:
            if obs_hooks.enabled:
                obs.get_registry().counter("service.shed.reads").inc()
                get_recorder().record("shed.reads", queue_depth=depth,
                                      shed_reads_at=self.shed_reads_at)
            raise ShedError(
                f"shedding reads: queue depth {depth} >= shed_reads_at "
                f"{self.shed_reads_at} — ingest is saturated"
            )

    @property
    def n_edges(self) -> int:
        with self._store_lock:
            return self._store.n_edges

    @property
    def n_vertices(self) -> int:
        with self._store_lock:
            return self._store.n_vertices

    def degree(self, src: int) -> int:
        self._shed_check()
        with self._store_lock:
            return self._store.degree(src)

    def has_edge(self, src: int, dst: int) -> bool:
        self._shed_check()
        with self._store_lock:
            return self._store.has_edge(src, dst)

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        self._shed_check()
        with self._store_lock:
            return self._store.neighbors(src)

    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._shed_check()
        with self._store_lock:
            return self._store.analytics_edges()

    def analytics(self, program, *, roots=None, policy: str = "hybrid"):
        """Run a GAS program over the current state via the hybrid engine.

        Holds the store lock for the whole computation, so the result is
        a consistent point-in-time answer even under concurrent ingest.
        """
        from repro.engine import HybridEngine

        with self._store_lock:
            engine = HybridEngine(self._store, program, policy=policy)
            if roots is not None:
                engine.reset(roots=roots)
            else:
                engine.reset()
            return engine.compute()
