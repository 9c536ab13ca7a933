"""Process-per-shard store: true multi-core ingest behind one Store.

The paper parallelises GraphTinker (Sec. III.D, Fig. 10) by
hash-partitioning source vertices into independent instances with no
cross-talk, so a batch's parallel time is the slowest partition.
:class:`ShardedStore` is that design run for real: each shard is a full
Store-protocol backend (any registered backend, built with
:func:`repro.core.store.create_store`) living in its **own worker
process**, and the parent speaks the same ``Store`` protocol, so every
consumer — the engine, the analytics snapshot, the durable service, the
conformance and differential suites — works unchanged.  It is the one
partitioned store: Fig. 10's modeled makespan and its measured wall
clock come from the same run.

Architecture
------------

* **Routing** — a vertex's home shard is
  ``partition_of(src, n_shards, seed)`` (:mod:`repro.core.hashing`).  All
  state for a source row lives in exactly one shard, so shards never
  coordinate.
* **Dispatch** — one message shape travels over one duplex pipe per
  shard: ``(method, args, touched)`` runs the inner store's
  ``method(*args)`` and returns its result, its charged delta and the
  degrees of the ``touched`` sources.  Batch mutations are split by the
  vectorized router (stream order preserved within a shard),
  **scattered to every owning shard first and then gathered**, so shard
  workers genuinely overlap on multi-core hosts.
* **Charging** — every worker response carries the
  :class:`~repro.core.stats.AccessStats` delta its inner store charged;
  the parent merges the deltas into its own ``stats``.  Deltas are sums,
  so the merged totals are **bit-identical to the serial lockstep run**
  (the same sub-batches applied to the same backends one after another)
  regardless of worker interleaving.  Batch mutators additionally
  record the per-shard deltas (:attr:`ShardedStore.last_batch_partitions`),
  the input of Fig. 10's max-over-partitions makespan model.
* **Exports** — full-graph reads (``edge_arrays`` /
  ``analytics_edges`` / digests) ask every shard for its
  ``analytics_edges`` triple before reading any reply, so the workers
  materialize their exports concurrently; the triples come back over
  the pipes and are concatenated in shard order.  A message's large
  array buffers cross out of band (:func:`_put` / :func:`_get`):
  written from the sender's array, read straight into the receiver's.
* **Degree cache** — the parent mirrors per-vertex degrees (updated
  from worker responses, probed *unchanged* by snapshot/restore
  machinery), so ``degree`` and the ``gather_active_scalar`` degree
  pre-filter stay uncharged parent-local reads, exactly like the other
  backends.
* **Failure** — a dead worker (``kill -9``, OOM), or one silent for
  :data:`SHARD_REPLY_TIMEOUT_S` on a one-edge call, surfaces as a typed
  :class:`~repro.errors.ShardCrashError` on the next dispatch.  The
  surviving shards are intact; the service stops, and a reopen rebuilds
  the store from the one log's replay (see docs/sharding.md).

Observability (when :mod:`repro.obs` is enabled): per-shard gauges
``store.shard<k>.queue_depth`` (rows in flight on the pipe),
``store.shard<k>.edges_per_s`` (last batch), and
``store.shard<k>.rss_kb`` (worker resident set, from /proc).
"""

from __future__ import annotations

import os
import pickle
import socket
import time
import weakref
from multiprocessing import get_context

import numpy as np

from repro.core.config import ShardedConfig
from repro.core.hashing import partition_of, partition_of_array
from repro.core.pool import grow
from repro.core.stats import STAT_FIELDS as _FIELDS, AccessStats
from repro.core.store import RowStoreDefaults, check_edge_batch
from repro.errors import ShardCrashError, VertexNotFoundError
from repro.obs import hooks as obs_hooks

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


#: Longest a parent waits for the reply to a one-edge call
#: (``insert_edge`` / ``delete_edge`` / ``edge_weight``) before the worker
#: counts as hung: then :class:`~repro.errors.ShardCrashError` poisons the
#: store.  The slowest such reply seen in the tier-1 suite,
#: ``bench_sharded_ingest`` and ``bench_fig10_multicore`` took 8.6 ms
#: (2-core host); the deadline is over 10x that and at least 60 s.  Calls
#: whose run time grows with the data (batches, exports, ``fsck``, row
#: walks, ``delete_vertex``) have no deadline: they wait for the worker,
#: and a dead one still ends the wait.
SHARD_REPLY_TIMEOUT_S = 60.0

#: Array buffers at least this large cross a pipe out of band, not
#: copied into the pickle; smaller ones (a per-op row) ride inside it.
OOB_BYTES = 1 << 16


def _put(conn, sock, obj) -> None:
    """Send ``obj`` as one protocol-5 pickle, then each of its
    out-of-band buffers raw over ``sock`` (a duplicate of ``conn``'s
    socket), each after its 8-byte length."""
    bufs = []
    conn.send_bytes(pickle.dumps(obj, protocol=5, buffer_callback=lambda b: (
        b.raw().nbytes < OOB_BYTES or bufs.append(b.raw()))))
    for buf in bufs:
        sock.sendall(buf.nbytes.to_bytes(8, "little"))
        sock.sendall(buf)


def _get(conn, sock):
    """Receive what :func:`_put` sent; the unpickler pulls each buffer
    off ``sock`` as it reaches it, into a fresh array."""
    def fill(buf):
        view = memoryview(buf).cast("B")
        while view.nbytes:
            got = sock.recv_into(view)
            if not got:
                raise EOFError("pipe closed mid-message")
            view = view[got:]
        return buf

    def buffers():
        while True:
            size = int.from_bytes(fill(bytearray(8)), "little")
            yield fill(np.empty(size, dtype=np.uint8))

    return pickle.loads(conn.recv_bytes(), buffers=buffers())


def _shard_worker(conn, backend: str, shard_index: int) -> None:
    """Worker-process loop: one inner Store behind one message shape.

    A message ``(method, args, touched)`` calls the inner store's
    ``method(*args)`` (or one of the adapters below) and replies
    ``(True, (result, delta, (srcs, degrees)))``: the call's charged
    AccessStats delta, and the degrees of the distinct ``touched``
    sources (``True``: a batch's own source column).  A failure replies
    ``(False, exception)``; the parent re-raises transported exceptions
    verbatim.  Degree probes run under a stats snapshot/restore so they
    can never perturb the charged delta, whatever the inner backend
    charges for ``degree``.  ``None`` stops the worker.
    """
    from repro.core.store import create_store

    inner = create_store(backend)
    sock = socket.socket(fileno=os.dup(conn.fileno()))

    def rows(srcs):
        # The scatter half of a frontier gather (and ``neighbors``): one
        # charged walk per source, none for a source never seen here,
        # returned as one (src, dst, weight) triple in ``srcs`` order.
        out = [(_EMPTY_I, _EMPTY_I, _EMPTY_F)]
        for src in srcs:
            try:
                dsts, weights = inner.neighbors(src)
            except VertexNotFoundError:
                continue
            out.append((np.full(dsts.shape[0], src, dtype=np.int64), dsts, weights))
        return tuple(np.concatenate(column) for column in zip(*out))

    def degrees(touched, args):
        # ``True`` names a batch's source column, ``args[0][:, 0]`` (its
        # distinct sources are found here, in the worker); otherwise a
        # list of sources, as pickling a small array costs more than
        # most calls.
        if touched is True:
            touched = np.unique(args[0][:, 0])
        if not len(touched):
            return touched, ()
        mid = inner.stats.snapshot()
        degs = [inner.degree(int(v)) for v in touched]
        inner.stats.reset()
        inner.stats.merge(mid)
        return touched, degs

    adapters = {
        "rows": rows,
        "fsck": lambda level, repair: _shard_report(
            inner, inner.fsck(level=level, repair=repair), shard_index),
        "n_edges": lambda: int(inner.n_edges),
    }

    while True:
        try:
            msg = _get(conn, sock)
        except (EOFError, OSError):
            break
        if msg is None:
            break
        method, args, touched = msg
        try:
            before = inner.stats.snapshot()
            result = (adapters.get(method) or getattr(inner, method))(*args)
            delta = inner.stats.delta(before)
            delta = tuple(getattr(delta, f) for f in _FIELDS)
            _put(conn, sock, (True, (result, delta, degrees(touched, args))))
        except BaseException as exc:  # transported to the parent
            try:
                _put(conn, sock, (False, exc))
            except (BrokenPipeError, OSError):
                break
    sock.close()
    conn.close()


def _shard_report(inner, report, shard: int):
    """``report`` (a shard's ``VerifyReport`` or ``RepairReport``) in
    parent terms: vertex ids are original ids and every violation's
    ``where`` names the shard."""
    from dataclasses import replace

    from repro.core.verify import RepairReport

    def original(vertices: list[int]) -> list[int]:
        return inner.original_ids(np.array(vertices, dtype=np.int64)).tolist()

    if isinstance(report, RepairReport):
        return replace(
            report,
            initial=_shard_report(inner, report.initial, shard),
            final=_shard_report(inner, report.final, shard),
            rebuilt_vertices=original(report.rebuilt_vertices),
            recounted_vertices=original(report.recounted_vertices),
            actions=[f"shard {shard}: {a}" for a in report.actions])
    return replace(report, violations=[
        replace(v, vertex=original([v.vertex])[0] if v.vertex >= 0 else -1,
                where=f"shard{shard}" + (f"/{v.where}" if v.where else ""))
        for v in report.violations])


class ShardedStore(RowStoreDefaults):
    """Process-per-shard Store (see module docstring).

    Rows are original source ids, like the tiered/STINGER backends:
    ``n_vertices`` is the highest source id ever inserted plus one,
    ``original_ids`` is the identity, and there is no id translator.
    """

    obs_name = "sharded"

    def __init__(self, config: ShardedConfig | None = None):
        self.config = config if config is not None else ShardedConfig()
        self.stats = AccessStats()
        self._n_vertices = 0
        self._n_edges = 0
        self._degree = np.zeros(16, dtype=np.int64)
        #: Per-shard AccessStats deltas of the most recent batch mutation
        #: (shard-index order) — the Fig. 10 makespan model's input.
        self.last_batch_partitions: list[AccessStats] = [
            AccessStats() for _ in range(self.config.n_shards)]
        self._closed = False
        self._crashed: ShardCrashError | None = None

        ctx = get_context("fork")
        self._pipes = []
        self._socks = []  # a socket on each pipe's fd, for raw buffers
        self._procs = []
        for k in range(self.config.n_shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_shard_worker,
                args=(child_conn, self.config.backend, k),
                name=f"repro-shard-{k}", daemon=True)
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._socks.append(socket.socket(fileno=os.dup(parent_conn.fileno())))
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._pipes, self._socks, self._procs)
        if self.config.snapshot:
            self.enable_snapshot()

    # ------------------------------------------------------------------ #
    # dispatch plumbing
    # ------------------------------------------------------------------ #
    @property
    def worker_pids(self) -> list[int]:
        """Live worker process ids (fault-injection hook)."""
        return [p.pid for p in self._procs]

    def _crash(self, shard: int, exc: Exception) -> ShardCrashError:
        """Build the typed crash error and poison the store.

        A crash mid-scatter leaves surviving shards' replies unread in
        their pipes and the parent's caches (degree, ``_n_edges``) behind
        the workers' actual state, so the store cannot keep serving —
        every subsequent operation re-raises the first crash until the
        caller discards the store and re-opens the service directory
        (WAL replay restores the durable state).
        """
        proc = self._procs[shard]
        err = ShardCrashError(
            f"shard {shard} worker (pid {proc.pid}) died "
            f"(exitcode {proc.exitcode}): {exc}")
        if self._crashed is None:
            self._crashed = err
        return err

    def _send(self, shard: int, msg: tuple) -> None:
        if self._crashed is not None:
            raise self._crashed
        try:
            _put(self._pipes[shard], self._socks[shard], msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._crash(shard, exc) from None

    def _recv(self, shard: int, bounded: bool = False):
        """One reply ``(result, delta, (srcs, degrees))`` from ``shard``;
        a ``bounded`` call waits at most :data:`SHARD_REPLY_TIMEOUT_S`."""
        if self._crashed is not None:
            raise self._crashed
        pipe = self._pipes[shard]
        try:
            if bounded and not pipe.poll(SHARD_REPLY_TIMEOUT_S):
                raise TimeoutError(f"no reply in {SHARD_REPLY_TIMEOUT_S} s")
            ok, payload = _get(pipe, self._socks[shard])
        except (EOFError, OSError) as exc:
            raise self._crash(shard, exc) from None
        if not ok:
            raise payload
        return payload

    def _call(self, shard: int, msg: tuple, bounded: bool = False):
        self._send(shard, msg)
        return self._recv(shard, bounded)

    def _take(self, reply) -> tuple:
        """Fold a reply's degrees into the cache and its delta into
        ``stats``; returns ``(result, delta, touched sources)``."""
        result, delta, (srcs, degrees) = reply
        if len(srcs):
            self._ensure_vertex(int(srcs[-1]))
            self._degree[srcs] = degrees
        delta = AccessStats(*delta)
        self.stats.merge(delta)
        return result, delta, srcs

    def _on(self, src: int, method: str, *args, touched=(), bounded=False):
        """``method(*args)`` on ``src``'s home shard; returns its result."""
        shard = self._shard_of(src)
        return self._take(self._call(shard, (method, args, touched), bounded))[0]

    def _shard_of(self, src: int) -> int:
        return partition_of(src, self.config.n_shards, self.config.seed)

    def _ensure_vertex(self, src: int) -> None:
        self._degree = grow(self._degree, src + 1)
        if src >= self._n_vertices:
            self._n_vertices = src + 1

    def _mark_dirty(self, src: int) -> None:
        if self._analytics_snapshot is not None and src < self._n_vertices:
            self._analytics_snapshot.mark_dirty(src)

    # ------------------------------------------------------------------ #
    # sizes / protocol surface
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def full_load_is_row_sweep(self) -> bool:
        """Full loads stream per-shard pools, not a global row sweep."""
        return False

    # ------------------------------------------------------------------ #
    # mutators
    # ------------------------------------------------------------------ #
    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        src, dst, weight = int(src), int(dst), float(weight)
        if src < 0 or dst < 0:
            raise ValueError(
                f"vertex ids must be non-negative, got ({src}, {dst})")
        is_new = self._on(src, "insert_edge", src, dst, weight,
                          touched=[src], bounded=True)
        if is_new:
            self._n_edges += 1
        self._mark_dirty(src)
        return is_new

    def delete_edge(self, src: int, dst: int) -> bool:
        src, dst = int(src), int(dst)
        if src < 0 or src >= self._n_vertices or dst < 0:
            return False
        existed = self._on(src, "delete_edge", src, dst, touched=[src],
                           bounded=True)
        if existed:
            self._n_edges -= 1
            self._mark_dirty(src)
        return existed

    def delete_vertex(self, src: int) -> int:
        src = int(src)
        if src < 0 or src >= self._n_vertices:
            return 0
        deleted = self._on(src, "delete_vertex", src, touched=[src])
        self._n_edges -= deleted
        if deleted:
            self._mark_dirty(src)
        return deleted

    def _scatter_batch(self, cmd: str, edges: np.ndarray,
                       weights: np.ndarray | None = None) -> int:
        """Scatter a mutation batch, gather counts/degrees/deltas.

        Sends every shard its sub-batch before reading any reply — the
        workers run concurrently; the parent's merge order (ascending
        shard index) is fixed, so the merged stats are deterministic.  A
        batch with no rows reaches no worker and charges no shard.
        """
        shard_ids = partition_of_array(edges[:, 0], self.config.n_shards,
                                       self.config.seed)
        publish = obs_hooks.enabled and edges.shape[0] > 0
        before = self.stats.snapshot() if publish else None
        t0 = time.perf_counter()
        sent: list[tuple[int, int]] = []
        for k in range(self.config.n_shards):
            mask = shard_ids == k
            if not mask.any():
                self.last_batch_partitions[k] = AccessStats()
                continue
            sub = edges[mask]
            args = (sub,) if weights is None else (sub, weights[mask])
            self._send(k, (cmd, args, True))
            sent.append((k, int(sub.shape[0])))
            if publish:
                self._shard_gauge(k, "queue_depth", int(sub.shape[0]))
        total = 0
        for k, _ in sent:
            count, self.last_batch_partitions[k], uniq = self._take(self._recv(k))
            total += count
            if self._analytics_snapshot is not None:
                self._analytics_snapshot.mark_dirty_many(uniq)
            if publish:
                self._shard_gauge(k, "queue_depth", 0)
        elapsed = time.perf_counter() - t0
        if publish:
            for k, rows in sent:
                self._shard_gauge(k, "edges_per_s",
                                  rows / elapsed if elapsed > 0 else 0.0)
            self._publish_worker_rss()
            obs_hooks.publish_store_delta(self.obs_name, self.stats.delta(before))
            obs_hooks.publish_ingest(cmd.split("_")[0], self.obs_name,
                                     int(edges.shape[0]), elapsed)
        return total

    def insert_batch(self, edges: np.ndarray,
                     weights: np.ndarray | None = None) -> int:
        """Insert an ``(n, 2)`` edge batch; returns the number of new edges."""
        edges, _ = check_edge_batch(edges)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        new = self._scatter_batch("insert_batch", edges, weights)
        self._n_edges += new
        return new

    def delete_batch(self, edges: np.ndarray) -> int:
        """Delete a batch of edges; returns how many existed."""
        edges, _ = check_edge_batch(edges, negative_ok=True)
        # Rows that cannot exist never reach a worker: negative ids and
        # unallocated sources miss for free, same as the other backends.
        live = ((edges[:, 0] >= 0) & (edges[:, 0] < self._n_vertices)
                & (edges[:, 1] >= 0))
        deleted = self._scatter_batch("delete_batch", edges[live])
        self._n_edges -= deleted
        return deleted

    def _publish_worker_rss(self) -> None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
        for k, proc in enumerate(self._procs):
            try:
                with open(f"/proc/{proc.pid}/statm") as fh:
                    rss_pages = int(fh.read().split()[1])
            except (OSError, ValueError, IndexError):
                continue
            registry.gauge(
                f"store.shard{k}.rss_kb",
                "shard worker resident set size (KiB)",
            ).set(rss_pages * os.sysconf("SC_PAGE_SIZE") // 1024)

    @staticmethod
    def _shard_gauge(shard: int, suffix: str, value) -> None:
        from repro.obs.metrics import get_registry

        get_registry().gauge(f"store.shard{shard}.{suffix}").set(value)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def edge_weight(self, src: int, dst: int) -> float | None:
        src, dst = int(src), int(dst)
        if src < 0 or src >= self._n_vertices or dst < 0:
            return None
        return self._on(src, "edge_weight", src, dst, bounded=True)

    def degree(self, src: int) -> int:
        """Live out-degree (uncharged — a parent-local cache read)."""
        src = int(src)
        return int(self._degree[src]) if 0 <= src < self._n_vertices else 0

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours of ``src``; charged by the owning shard's walk."""
        src = int(src)
        if src < 0 or src >= self._n_vertices:
            raise VertexNotFoundError(src)
        _, dsts, weights = self._on(src, "rows", [src])
        return dsts, weights

    def neighbors_many(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scatter-gather frontier load with a deterministic merge.

        Sanitizes like every backend (sorted unique, negatives dropped),
        scatters each shard its owned sources (sorted sub-order), then
        stable-sorts the gathered rows by source, which restores **global
        sorted-source order** with every row intact — exactly the triples
        and exactly the summed charges of the serial
        :func:`~repro.engine.snapshot.gather_active_scalar` loop.  Served
        from the CSR snapshot instead when one is attached.
        """
        from repro.engine.snapshot import sanitize_active

        if self._analytics_snapshot is not None:
            return self._analytics_snapshot.gather_active(active)
        active = sanitize_active(active)
        # The uncharged degree pre-filter of the scalar loop, vectorized
        # against the parent-local degree cache.
        active = active[active < self._n_vertices]
        active = active[self._degree[active] > 0]
        shard_ids = partition_of_array(active, self.config.n_shards,
                                       self.config.seed)
        sent: list[int] = []
        for k in range(self.config.n_shards):
            owned = active[shard_ids == k]
            if owned.size:
                self._send(k, ("rows", (owned.tolist(),), ()))
                sent.append(k)
        parts = [(_EMPTY_I, _EMPTY_I, _EMPTY_F)]
        parts += [self._take(self._recv(k))[0] for k in sent]
        src, dst, weight = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(src, kind="stable")
        return src[order], dst[order], weight[order]

    # ------------------------------------------------------------------ #
    # full-graph exports
    # ------------------------------------------------------------------ #
    def _export_shards(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every shard's charged ``analytics_edges`` triple, in shard
        order: asked of every shard before any reply is read, so the
        workers materialize their exports concurrently.  (Original ids
        on every backend; a GraphTinker shard's ``edge_arrays`` would be
        dense ids.)"""
        for k in range(self.config.n_shards):
            self._send(k, ("analytics_edges", (), ()))
        return [self._take(self._recv(k))[0] for k in range(self.config.n_shards)]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live edges, concatenated in shard-index order."""
        return tuple(np.concatenate(column) for column in zip(*self._export_shards()))

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #
    def _fsck_checks(self, violations: list, level: str) -> None:
        """Every shard's own ``fsck(level)``, plus what only the parent
        sees: the shards' edge counts against the parent cache, and the
        routing invariant (a shard only holds vertices that
        consistent-hash to it).  The generic audit has already compared
        the scatter-gather walks against the parent degree cache."""
        from repro.core.verify import IntegrityViolation, V_DEGREE

        n_shards = self.config.n_shards
        for k in range(n_shards):
            self._send(k, ("fsck", (level, False), ()))
        total = 0
        for k in range(n_shards):
            report = self._recv(k)[0]
            violations.extend(report.violations)
            total += report.n_edges
        if total != self._n_edges:
            violations.append(IntegrityViolation(
                V_DEGREE, -1,
                f"shard edge counts sum to {total} but the parent cache "
                f"says {self._n_edges}"))
        for k, (src, _, _) in enumerate(self._export_shards()):
            uniq = np.unique(src)
            owners = partition_of_array(uniq, n_shards, self.config.seed)
            for v in uniq[owners != k].tolist():
                violations.append(IntegrityViolation(
                    V_ROUTING, int(v),
                    f"vertex {v} found in shard {k} but hashes to "
                    f"shard {self._shard_of(int(v))}"))

    def _fsck_repair(self, out) -> None:
        """Every shard repairs itself; the parent then rebuilds its
        degree / edge-count caches from the repaired workers.  A shard's
        ``repair-undecided`` violations go into ``out.final``."""
        from repro.core.verify import V_UNDECIDED

        n_shards = self.config.n_shards
        for k in range(n_shards):
            self._send(k, ("fsck", (out.initial.level, True), ()))
        for k in range(n_shards):
            shard = self._recv(k)[0]
            out.rebuilt_vertices += shard.rebuilt_vertices
            out.recounted_vertices += shard.recounted_vertices
            out.freed_blocks += shard.freed_blocks
            out.sgh_fixes += shard.sgh_fixes
            out.actions += shard.actions
            out.final.violations += [v for v in shard.final.violations
                                     if v.kind == V_UNDECIDED]
        self._degree[: self._n_vertices] = 0
        total = 0
        for src, _, _ in self._export_shards():
            if src.size:
                uniq, counts = np.unique(src, return_counts=True)
                self._ensure_vertex(int(uniq[-1]))
                self._degree[uniq] = counts
                total += int(src.shape[0])
        self._n_edges = total

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _shutdown_workers(self._pipes, self._socks, self._procs)


def _shutdown_workers(pipes, socks, procs) -> None:
    """Best-effort, bounded worker teardown (also the GC finalizer): a worker
    silent for 2 s is terminated, then killed (a stopped one ignores SIGTERM)."""
    for pipe, sock in zip(pipes, socks):
        try:
            _put(pipe, sock, None)
        except (BrokenPipeError, OSError):
            pass
        sock.close()
    for pipe in pipes:
        try:
            if pipe.poll(2.0):
                pipe.recv()
        except (EOFError, OSError):
            pass
        try:
            pipe.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        for stop in (proc.terminate, proc.kill):
            if proc.is_alive():
                stop()
                proc.join(timeout=2.0)


#: Violation kind for consistent-hash routing breaks (sharded fsck).
V_ROUTING = "shard-routing"
