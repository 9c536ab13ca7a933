"""Closed-loop load generator for a running GraphServer.

``N`` worker threads, each owning one :class:`~repro.net.client.
GraphClient`, issue a seeded random mix of reads (``degree`` /
``neighbors`` / ``khop``) and ticketed mutations (``insert_edges`` of
RMAT batches) against one server for a fixed duration.  *Closed-loop*
means each worker waits for every response before sending the next
request — measured throughput is what the server actually sustains at
this concurrency, not an open-loop arrival fantasy.

The RMAT mutation stream is pre-generated (one disjoint slice per
worker) so generation cost never pollutes the measured window, and the
read keys are drawn from the same vertex id distribution the mutations
populate — reads hit real topology, not empty rows.

Results aggregate into a :class:`LoadStats` (per-family op counts,
latency arrays, typed-error tallies, generation monotonicity check).
The run is a smoke and chaos driver, not a ledger: the served path's
tracked numbers are the ``serve_mixed`` workload of ``perf/run.py``
(perf/README.md).
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np

from repro.errors import ReproError
from repro.net.client import GraphClient, ReplicaSet
from repro.net.protocol import RETRYABLE_CODES
from repro.workloads.rmat import rmat_edges

#: Per-worker op mix defaults: 90:10 read:write is the acceptance mix.
#: Mutations are OLTP-sized transactions (16 edges per ticketed batch):
#: small enough that the micro-batch flush — whose store-apply cost is
#: per-edge — stays short, which is what keeps the closed loop's write
#: stalls (and therefore the whole mix's latency) bounded.
DEFAULT_READ_FRACTION = 0.9
DEFAULT_BATCH_EDGES = 16
#: Probability split inside the read mix: mostly point lookups, some
#: 2-hop expansions to exercise the traversal path.
READ_OP_WEIGHTS = (("degree", 0.55), ("neighbors", 0.35), ("khop", 0.10))
#: Result cap of the 2-hop expansions in the read mix.
KHOP_LIMIT = 128

#: Consecutive all-targets-unreachable errors before a worker declares
#: the system dead and goes fatal.  Transport errors are retryable (a
#: restarted server is reachable again), so a *single* failure must not
#: kill the run — but a permanently dead server must not let loadgen
#: spin to a clean exit either.
FATAL_UNAVAILABLE_STREAK = 10


class LoadStats:
    """Aggregated outcome of one load-generation run."""

    def __init__(self):
        self.read_latency_ms: list[float] = []
        self.write_latency_ms: list[float] = []
        self.n_reads = 0
        self.n_writes = 0
        self.n_edges_written = 0
        self.errors: dict[str, int] = {}
        self.n_retries = 0
        self.generation_regressions = 0
        #: per-read replica lag samples (WAL records behind the writer);
        #: empty when reads were answered by the writer itself.
        self.staleness_lag: list[int] = []
        self.n_failovers = 0
        self.n_stale_rejects = 0
        self.wall_s = 0.0

    def merge(self, other: "LoadStats") -> None:
        self.read_latency_ms.extend(other.read_latency_ms)
        self.write_latency_ms.extend(other.write_latency_ms)
        self.n_reads += other.n_reads
        self.n_writes += other.n_writes
        self.n_edges_written += other.n_edges_written
        for code, count in other.errors.items():
            self.errors[code] = self.errors.get(code, 0) + count
        self.n_retries += other.n_retries
        self.generation_regressions += other.generation_regressions
        self.staleness_lag.extend(other.staleness_lag)
        self.n_failovers += other.n_failovers
        self.n_stale_rejects += other.n_stale_rejects

    @property
    def read_ops_per_s(self) -> float:
        return self.n_reads / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def write_ops_per_s(self) -> float:
        return self.n_writes / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def total_ops(self) -> int:
        return self.n_reads + self.n_writes

    def summary(self) -> dict:
        def _q(values: list[float], q: float) -> float:
            return float(np.quantile(values, q)) if values else 0.0

        return {
            "wall_s": self.wall_s,
            "n_reads": self.n_reads,
            "n_writes": self.n_writes,
            "n_edges_written": self.n_edges_written,
            "read_ops_per_s": self.read_ops_per_s,
            "write_ops_per_s": self.write_ops_per_s,
            "read_p50_ms": _q(self.read_latency_ms, 0.5),
            "read_p99_ms": _q(self.read_latency_ms, 0.99),
            "write_p50_ms": _q(self.write_latency_ms, 0.5),
            "write_p99_ms": _q(self.write_latency_ms, 0.99),
            "errors": dict(self.errors),
            "n_retries": self.n_retries,
            "generation_regressions": self.generation_regressions,
            "staleness_p50_lag": _q(self.staleness_lag, 0.5),
            "staleness_p99_lag": _q(self.staleness_lag, 0.99),
            "n_staleness_samples": len(self.staleness_lag),
            "n_failovers": self.n_failovers,
            "n_stale_rejects": self.n_stale_rejects,
        }


class _Worker(threading.Thread):
    def __init__(self, worker_id: int, host: str, port: int, *,
                 read_fraction: float, scale: int, batches: np.ndarray,
                 seed: int, stop_at: float, retries: int, timeout: float,
                 port_file: str | None = None,
                 replicas: list | None = None):
        super().__init__(name=f"loadgen-{worker_id}", daemon=True)
        if replicas:
            self.client = ReplicaSet(
                {"host": host, "port": port, "port_file": port_file},
                [{"host": h, "port": p} for h, p in replicas],
                retries=retries, timeout=timeout,
                rng=random.Random(seed))
        else:
            self.client = GraphClient(host, port, retries=retries,
                                      timeout=timeout, port_file=port_file,
                                      rng=random.Random(seed))
        self.routed = replicas is not None and len(replicas) > 0
        self.read_fraction = read_fraction
        self.scale = scale
        self.batches = batches          # (n_batches, batch, 2) int64
        self.rng = np.random.default_rng(seed)
        self.stop_at = stop_at
        self.stats = LoadStats()
        self.fatal: BaseException | None = None
        self._next_batch = 0

    def _read_op(self) -> None:
        src = int(self.rng.integers(0, 2 ** self.scale))
        draw = float(self.rng.random())
        start = time.perf_counter()
        if draw < READ_OP_WEIGHTS[0][1]:
            self.client.degree(src)
        elif draw < READ_OP_WEIGHTS[0][1] + READ_OP_WEIGHTS[1][1]:
            self.client.neighbors(src)
        else:
            self.client.khop(src, 2, limit=KHOP_LIMIT)
        self.stats.read_latency_ms.append(
            (time.perf_counter() - start) * 1e3)
        self.stats.n_reads += 1
        staleness = self.client.last_staleness
        if staleness is not None:  # read answered by a replica
            self.stats.staleness_lag.append(int(staleness.get("lag_seq", 0)))

    def _write_op(self) -> None:
        batch = self.batches[self._next_batch % self.batches.shape[0]]
        self._next_batch += 1
        start = time.perf_counter()
        self.client.insert_edges(batch.tolist())
        self.stats.write_latency_ms.append(
            (time.perf_counter() - start) * 1e3)
        self.stats.n_writes += 1
        self.stats.n_edges_written += batch.shape[0]

    def run(self) -> None:
        last_generation = -1
        unavailable_streak = 0
        try:
            while time.monotonic() < self.stop_at:
                try:
                    if float(self.rng.random()) < self.read_fraction:
                        self._read_op()
                    else:
                        self._write_op()
                    unavailable_streak = 0
                except ReproError as exc:
                    code = getattr(exc, "code", None)
                    if code is None:
                        raise  # untyped failure: not a transient condition
                    if code == "UNAVAILABLE":
                        # Reconnect-and-retry already happened inside the
                        # client; a long enough streak means nothing is
                        # listening anymore (permanent death), which a
                        # load generator must report, not paper over.
                        unavailable_streak += 1
                        if unavailable_streak >= FATAL_UNAVAILABLE_STREAK:
                            raise
                    key = code or type(exc).__name__
                    self.stats.errors[key] = self.stats.errors.get(key, 0) + 1
                    if code in RETRYABLE_CODES:
                        time.sleep(0.005)
                if not self.routed:
                    # Generation is a per-node counter: only comparable
                    # when every read hits the same server.  The routed
                    # mode's equivalent invariant (read-your-writes via
                    # the applied_seq floor) is enforced inside
                    # ReplicaSet itself.
                    gen = self.client.last_generation
                    if gen is not None:
                        if gen < last_generation:
                            self.stats.generation_regressions += 1
                        last_generation = gen
        except BaseException as exc:  # noqa: BLE001 - reported by run()
            self.fatal = exc
        finally:
            self.stats.n_retries = self.client.n_retries
            if self.routed:
                self.stats.n_failovers = self.client.n_failovers
                self.stats.n_stale_rejects = self.client.n_stale_rejects
            self.client.close()


def run_loadgen(host: str, port: int, *,
                clients: int = 4,
                duration: float = 5.0,
                read_fraction: float = DEFAULT_READ_FRACTION,
                scale: int = 14,
                batch_edges: int = DEFAULT_BATCH_EDGES,
                batches_per_worker: int = 64,
                seed: int = 0,
                retries: int = 3,
                timeout: float = 30.0,
                port_file: str | None = None,
                replicas: list | None = None) -> LoadStats:
    """Drive a server with ``clients`` closed-loop workers for ``duration`` s.

    Returns the merged :class:`LoadStats`; raises what killed a worker
    (a transport error once the server is permanently gone, or any
    untyped failure).

    ``replicas`` (a list of ``(host, port)`` pairs) switches every
    worker to a :class:`~repro.net.client.ReplicaSet`: reads rotate
    over the replicas with failover, writes go to ``host:port`` (the
    writer), and per-read staleness lag is sampled into the stats.
    ``port_file`` makes the writer endpoint survive a server restart.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    # Pre-generate each worker's disjoint RMAT mutation stream.
    total = clients * batches_per_worker * batch_edges
    edges = rmat_edges(scale, total, seed=seed)
    per_worker = edges.reshape(clients, batches_per_worker, batch_edges, 2)
    stop_at = time.monotonic() + duration
    workers = [
        _Worker(i, host, port, read_fraction=read_fraction, scale=scale,
                batches=per_worker[i], seed=seed * 7919 + i,
                stop_at=stop_at, retries=retries, timeout=timeout,
                port_file=port_file, replicas=replicas)
        for i in range(clients)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - start
    merged = LoadStats()
    merged.wall_s = wall
    for worker in workers:
        if worker.fatal is not None:
            raise worker.fatal
        merged.merge(worker.stats)
    return merged

