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
* **Dispatch** — commands travel over one duplex pipe per shard.  Batch
  mutations are split by the vectorized router (stream order preserved
  within a shard), **scattered to every owning shard first and then
  gathered**, so shard workers genuinely overlap on multi-core hosts.
* **Charging** — every worker response carries the
  :class:`~repro.core.stats.AccessStats` delta its inner store charged;
  the parent merges the deltas into its own ``stats``.  Deltas are sums,
  so the merged totals are **bit-identical to the serial lockstep run**
  (the same sub-batches applied to the same backends one after another)
  regardless of worker interleaving.  Batch mutators additionally
  record the per-shard deltas (:attr:`ShardedStore.last_batch_partitions`),
  the input of Fig. 10's max-over-partitions makespan model.
* **Zero-copy exports** — full-graph reads (``edge_arrays`` /
  ``analytics_edges`` / digests) move the shard's edge pools through
  ``multiprocessing.shared_memory``: the parent allocates one segment
  per shard, the worker writes its ``(src, dst, weight)`` pool arrays
  into it, and the parent maps NumPy views directly over the buffer —
  no pickling, no pipe copy.  Only the final cross-shard concatenation
  copies.
* **Degree cache** — the parent mirrors per-vertex degrees (updated
  from worker responses, probed *unchanged* by snapshot/restore
  machinery), so ``degree`` and the ``gather_active_scalar`` degree
  pre-filter stay uncharged parent-local reads, exactly like the other
  backends.
* **Failure** — a dead worker (``kill -9``, OOM) surfaces as a typed
  :class:`~repro.errors.ShardCrashError` on the next dispatch.  The
  surviving shards are intact; the service layer recovers by replaying
  the crashed shard's own WAL segments (see docs/sharding.md).

Observability (when :mod:`repro.obs` is enabled): per-shard gauges
``store.shard<k>.queue_depth`` (rows in flight on the pipe),
``store.shard<k>.edges_per_s`` (last batch), and
``store.shard<k>.rss_kb`` (worker resident set, from /proc).
"""

from __future__ import annotations

import os
import time
import weakref
from multiprocessing import get_context, resource_tracker
from multiprocessing import shared_memory as shm_mod
from typing import Iterator

import numpy as np

from repro.core.config import ShardedConfig
from repro.core.hashing import partition_of, partition_of_array
from repro.core.pool import grow
from repro.core.stats import STAT_FIELDS as _FIELDS, AccessStats
from repro.core.store import RowStoreDefaults
from repro.errors import ShardCrashError, VertexNotFoundError
from repro.obs import hooks as obs_hooks

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def _delta_tuple(stats: AccessStats, before: AccessStats) -> tuple[int, ...]:
    delta = stats.delta(before)
    return tuple(getattr(delta, f) for f in _FIELDS)


def _shard_worker(conn, backend: str, shard_index: int) -> None:
    """Worker-process loop: one inner Store, commands in, payloads out.

    Every reply is ``(True, payload)`` or ``(False, exception)``; the
    parent re-raises transported exceptions verbatim.  Degree probes run
    under a stats snapshot/restore so they can never perturb the charged
    delta, whatever the inner backend charges for ``degree``.
    """
    from repro.core.store import create_store

    inner = create_store(backend)

    def probe_degrees(srcs):
        mid = inner.stats.snapshot()
        degs = [inner.degree(int(s)) for s in srcs]
        inner.stats.reset()
        inner.stats.merge(mid)
        return degs

    staged = None  # pending edge_arrays export between stage and fill
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        cmd = msg[0]
        try:
            before = inner.stats.snapshot()
            if cmd == "close":
                conn.send((True, None))
                break
            elif cmd == "insert_edge":
                _, src, dst, weight = msg
                is_new = inner.insert_edge(src, dst, weight)
                delta = _delta_tuple(inner.stats, before)
                payload = (is_new, probe_degrees([src])[0], delta)
            elif cmd == "delete_edge":
                _, src, dst = msg
                existed = inner.delete_edge(src, dst)
                delta = _delta_tuple(inner.stats, before)
                payload = (existed, probe_degrees([src])[0], delta)
            elif cmd == "delete_vertex":
                _, src = msg
                deleted = inner.delete_vertex(src)
                delta = _delta_tuple(inner.stats, before)
                payload = (deleted, probe_degrees([src])[0], delta)
            elif cmd == "insert_batch":
                _, edges, weights = msg
                n_new = inner.insert_batch(edges, weights)
                delta = _delta_tuple(inner.stats, before)
                uniq = np.unique(edges[:, 0])
                payload = (n_new, uniq,
                           np.array(probe_degrees(uniq), dtype=np.int64),
                           delta)
            elif cmd == "delete_batch":
                _, edges = msg
                n_del = inner.delete_batch(edges)
                delta = _delta_tuple(inner.stats, before)
                uniq = np.unique(edges[:, 0])
                payload = (n_del, uniq,
                           np.array(probe_degrees(uniq), dtype=np.int64),
                           delta)
            elif cmd == "find":
                _, src, dst = msg
                weight = inner.edge_weight(src, dst)
                payload = (weight, _delta_tuple(inner.stats, before))
            elif cmd == "neighbors":
                _, src = msg
                try:
                    dsts, weights = inner.neighbors(src)
                except VertexNotFoundError:
                    dsts, weights = _EMPTY_I, _EMPTY_F
                payload = (dsts, weights, _delta_tuple(inner.stats, before))
            elif cmd == "neighbors_multi":
                # Sorted source list: the scatter half of a frontier
                # gather; one charged walk per source, one merged delta.
                _, srcs = msg
                rows = []
                for src in srcs:
                    try:
                        rows.append(inner.neighbors(src))
                    except VertexNotFoundError:
                        rows.append((_EMPTY_I, _EMPTY_F))
                payload = (rows, _delta_tuple(inner.stats, before))
            elif cmd == "edge_stage":
                # analytics_edges: original ids on every backend (a
                # GraphTinker shard's edge_arrays would be dense ids).
                staged = inner.analytics_edges()
                payload = (int(staged[0].shape[0]),
                           _delta_tuple(inner.stats, before))
            elif cmd == "edge_fill":
                _, shm_name = msg
                src, dst, weight = staged
                staged = None
                n = src.shape[0]
                seg = shm_mod.SharedMemory(name=shm_name)
                try:
                    # Python 3.11 registers attachments with the resource
                    # tracker; the parent owns this segment's lifetime,
                    # so drop the worker-side claim before closing.
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(seg._name, "shared_memory")
                    buf = np.ndarray((3, n), dtype=np.int64, buffer=seg.buf)
                    buf[0] = src
                    buf[1] = dst
                    buf[2] = weight.view(np.int64)
                finally:
                    seg.close()
                payload = None
            elif cmd == "fsck":
                _, level, repair = msg
                payload = _shard_report(
                    inner, inner.fsck(level=level, repair=repair), shard_index)
            elif cmd == "n_edges":
                payload = int(inner.n_edges)
            else:
                raise ValueError(f"unknown shard command {cmd!r}")
            conn.send((True, payload))
        except BaseException as exc:  # transported to the parent
            try:
                conn.send((False, exc))
            except (BrokenPipeError, OSError):
                break
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
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._pipes, self._procs)
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
        (per-shard WAL replay restores the durable state).
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
            self._pipes[shard].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._crash(shard, exc) from None

    def _recv(self, shard: int):
        if self._crashed is not None:
            raise self._crashed
        try:
            ok, payload = self._pipes[shard].recv()
        except (EOFError, OSError) as exc:
            raise self._crash(shard, exc) from None
        if not ok:
            raise payload
        return payload

    def _call(self, shard: int, msg: tuple):
        self._send(shard, msg)
        return self._recv(shard)

    def _merge_delta(self, delta: tuple[int, ...]) -> AccessStats:
        stats = AccessStats(**dict(zip(_FIELDS, delta)))
        self.stats.merge(stats)
        return stats

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
        is_new, degree, delta = self._call(
            self._shard_of(src), ("insert_edge", src, dst, weight))
        self._ensure_vertex(src)
        self._degree[src] = degree
        if is_new:
            self._n_edges += 1
        self._merge_delta(delta)
        self._mark_dirty(src)
        return is_new

    def delete_edge(self, src: int, dst: int) -> bool:
        src, dst = int(src), int(dst)
        if src < 0 or src >= self._n_vertices or dst < 0:
            return False
        existed, degree, delta = self._call(
            self._shard_of(src), ("delete_edge", src, dst))
        self._degree[src] = degree
        if existed:
            self._n_edges -= 1
        self._merge_delta(delta)
        if existed:
            self._mark_dirty(src)
        return existed

    def delete_vertex(self, src: int) -> int:
        src = int(src)
        if src < 0 or src >= self._n_vertices:
            return 0
        deleted, degree, delta = self._call(
            self._shard_of(src), ("delete_vertex", src))
        self._degree[src] = degree
        self._n_edges -= deleted
        self._merge_delta(delta)
        if deleted:
            self._mark_dirty(src)
        return deleted

    def _scatter_batch(self, cmd: str, edges: np.ndarray,
                       weights: np.ndarray | None) -> tuple[int, float]:
        """Scatter a mutation batch, gather counts/degrees/deltas.

        Sends every shard its sub-batch before reading any reply — the
        workers run concurrently; the parent's merge order (ascending
        shard index) is fixed, so the merged stats are deterministic.
        """
        n_shards = self.config.n_shards
        shard_ids = partition_of_array(edges[:, 0], n_shards,
                                       self.config.seed)
        t0 = time.perf_counter()
        sent: list[int] = []
        sub_rows: dict[int, int] = {}
        for k in range(n_shards):
            mask = shard_ids == k
            if not mask.any():
                self.last_batch_partitions[k] = AccessStats()
                continue
            sub = edges[mask]
            if cmd == "insert_batch":
                sub_w = None if weights is None else weights[mask]
                self._send(k, (cmd, sub, sub_w))
            else:
                self._send(k, (cmd, sub))
            sent.append(k)
            sub_rows[k] = int(sub.shape[0])
            if obs_hooks.enabled:
                self._shard_gauge(k, "queue_depth", int(sub.shape[0]))
        total = 0
        for k in sent:
            count, uniq, degrees, delta = self._recv(k)
            total += count
            if uniq.size:
                self._ensure_vertex(int(uniq[-1]))
                self._degree[uniq] = degrees
            self.last_batch_partitions[k] = self._merge_delta(delta)
            if self._analytics_snapshot is not None:
                self._analytics_snapshot.mark_dirty_many(uniq)
            if obs_hooks.enabled:
                self._shard_gauge(k, "queue_depth", 0)
        elapsed = time.perf_counter() - t0
        if obs_hooks.enabled:
            for k in sent:
                self._shard_gauge(
                    k, "edges_per_s",
                    sub_rows[k] / elapsed if elapsed > 0 else 0.0)
            self._publish_worker_rss()
        return total, elapsed

    def _empty_batch(self) -> int:
        """A batch with no rows reaches no worker and charges no shard."""
        for k in range(self.config.n_shards):
            self.last_batch_partitions[k] = AccessStats()
        return 0

    def insert_batch(self, edges: np.ndarray,
                     weights: np.ndarray | None = None) -> int:
        """Insert an ``(n, 2)`` edge batch; returns the number of new edges."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (n, 2)")
        if edges.size and edges.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        if not edges.shape[0]:
            return self._empty_batch()
        before = self.stats.snapshot() if obs_hooks.enabled else None
        new, elapsed = self._scatter_batch("insert_batch", edges, weights)
        self._n_edges += new
        if before is not None:
            obs_hooks.publish_store_delta("sharded", self.stats.delta(before))
            obs_hooks.publish_ingest("insert", "sharded",
                                     int(edges.shape[0]), elapsed)
        return new

    def delete_batch(self, edges: np.ndarray) -> int:
        """Delete a batch of edges; returns how many existed."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (n, 2)")
        # Rows that cannot exist never reach a worker: negative ids and
        # unallocated sources miss for free, same as the other backends.
        live = ((edges[:, 0] >= 0) & (edges[:, 0] < self._n_vertices)
                & (edges[:, 1] >= 0))
        edges = edges[live]
        if not edges.shape[0]:
            return self._empty_batch()
        before = self.stats.snapshot() if obs_hooks.enabled else None
        deleted, elapsed = self._scatter_batch("delete_batch", edges, None)
        self._n_edges -= deleted
        if before is not None:
            obs_hooks.publish_store_delta("sharded", self.stats.delta(before))
            obs_hooks.publish_ingest("delete", "sharded",
                                     int(edges.shape[0]), elapsed)
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
    def _find(self, src: int, dst: int) -> float | None:
        if src < 0 or src >= self._n_vertices or dst < 0:
            return None
        weight, delta = self._call(self._shard_of(src), ("find", src, dst))
        self._merge_delta(delta)
        return weight

    def has_edge(self, src: int, dst: int) -> bool:
        return self._find(int(src), int(dst)) is not None

    def edge_weight(self, src: int, dst: int) -> float | None:
        return self._find(int(src), int(dst))

    def degree(self, src: int) -> int:
        """Live out-degree (uncharged — a parent-local cache read)."""
        src = int(src)
        return int(self._degree[src]) if 0 <= src < self._n_vertices else 0

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours of ``src``; charged by the owning shard's walk."""
        src = int(src)
        if src < 0 or src >= self._n_vertices:
            raise VertexNotFoundError(src)
        dsts, weights, delta = self._call(self._shard_of(src),
                                          ("neighbors", src))
        self._merge_delta(delta)
        return dsts, weights

    def neighbors_many(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scatter-gather frontier load with a deterministic merge.

        Sanitizes like every backend (sorted unique, negatives dropped),
        scatters each shard its owned sources (sorted sub-order), then
        reassembles the per-vertex rows **in global sorted-source
        order** — exactly the triples and exactly the summed charges of
        the serial :func:`~repro.engine.snapshot.gather_active_scalar`
        loop.  Served from the CSR snapshot instead when one is attached.
        """
        from repro.engine.snapshot import sanitize_active

        if self._analytics_snapshot is not None:
            return self._analytics_snapshot.gather_active(active)
        active = sanitize_active(active)
        # The uncharged degree pre-filter of the scalar loop, vectorized
        # against the parent-local degree cache.
        active = active[active < self._n_vertices]
        if active.size:
            active = active[self._degree[active] > 0]
        if not active.size:
            return _EMPTY_I.copy(), _EMPTY_I.copy(), _EMPTY_F.copy()
        shard_ids = partition_of_array(active, self.config.n_shards,
                                       self.config.seed)
        sent: list[tuple[int, np.ndarray]] = []
        for k in range(self.config.n_shards):
            owned = active[shard_ids == k]
            if owned.size:
                self._send(k, ("neighbors_multi", owned.tolist()))
                sent.append((k, owned))
        per_vertex: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k, owned in sent:
            rows, delta = self._recv(k)
            self._merge_delta(delta)
            for src, (dsts, weights) in zip(owned.tolist(), rows):
                per_vertex[src] = (dsts, weights)
        srcs, dsts, weights = [], [], []
        for src in active.tolist():
            d, w = per_vertex[src]
            if d.shape[0]:
                srcs.append(np.full(d.shape[0], src, dtype=np.int64))
                dsts.append(d)
                weights.append(w)
        if not srcs:
            return _EMPTY_I.copy(), _EMPTY_I.copy(), _EMPTY_F.copy()
        return (np.concatenate(srcs), np.concatenate(dsts),
                np.concatenate(weights))

    # ------------------------------------------------------------------ #
    # full-graph exports (shared-memory path)
    # ------------------------------------------------------------------ #
    def _export_shards(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Pull every shard's edge pools through shared memory.

        Two phases, both scattered before gathering: *stage* (the worker
        materializes its charged ``edge_arrays`` and reports the size)
        and *fill* (the parent allocates one shared-memory segment per
        shard; the worker writes its pools straight into it).  The
        returned arrays are copies of the mapped views; the segments are
        unlinked before returning.
        """
        n_shards = self.config.n_shards
        for k in range(n_shards):
            self._send(k, ("edge_stage",))
        counts = []
        for k in range(n_shards):
            n, delta = self._recv(k)
            self._merge_delta(delta)
            counts.append(n)
        out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        filling: list[tuple[int, shm_mod.SharedMemory]] = []
        for k, n in enumerate(counts):
            if not n:
                out.append((_EMPTY_I.copy(), _EMPTY_I.copy(),
                            _EMPTY_F.copy()))
                continue
            seg = shm_mod.SharedMemory(create=True, size=3 * 8 * n)
            self._send(k, ("edge_fill", seg.name))
            filling.append((k, seg))
            out.append(None)
        for k, seg in filling:
            try:
                self._recv(k)
                n = counts[k]
                buf = np.ndarray((3, n), dtype=np.int64, buffer=seg.buf)
                out[k] = (buf[0].copy(), buf[1].copy(),
                          buf[2].copy().view(np.float64))
            finally:
                seg.close()
                # When the fork-inherited resource tracker is shared with
                # the worker, the worker's attach/unregister pair already
                # removed this name; re-register so unlink's unregister
                # finds it (registration is a set add — idempotent when
                # the trackers are separate).
                resource_tracker.register(seg._name, "shared_memory")
                seg.unlink()
        return out

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live edges, concatenated in shard-index order."""
        parts = self._export_shards()
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
                np.concatenate([p[2] for p in parts]))

    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Engine load path; shard rows are already original ids."""
        return self.edge_arrays()

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every live edge, in ``edge_arrays`` order."""
        src, dst, weight = self.edge_arrays()
        for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
            yield int(s), int(d), float(w)

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
            self._send(k, ("fsck", level, False))
        total = 0
        for k in range(n_shards):
            report = self._recv(k)
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
        degree / edge-count caches from the repaired workers."""
        n_shards = self.config.n_shards
        for k in range(n_shards):
            self._send(k, ("fsck", out.initial.level, True))
        for k in range(n_shards):
            shard = self._recv(k)
            out.rebuilt_vertices += shard.rebuilt_vertices
            out.recounted_vertices += shard.recounted_vertices
            out.freed_blocks += shard.freed_blocks
            out.sgh_fixes += shard.sgh_fixes
            out.actions += shard.actions
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
        _shutdown_workers(self._pipes, self._procs)


def _shutdown_workers(pipes, procs) -> None:
    """Best-effort, bounded worker teardown (also the GC finalizer): a worker
    silent for 2 s is terminated, then killed (a stopped one ignores SIGTERM)."""
    for pipe in pipes:
        try:
            pipe.send(("close",))
        except (BrokenPipeError, OSError):
            pass
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
